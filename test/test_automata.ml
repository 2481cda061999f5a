(* Unit and property tests for the generic NFA and the symbolic SFA. *)

module CharAlpha = struct
  type t = char

  let compare = Char.compare
  let pp = Fmt.char
end

module N = Automata.Nfa.Make (CharAlpha)

let word = Alcotest.testable Fmt.(Dump.list char) ( = )

let mk trans finals = N.create ~init:[ 0 ] ~finals ~trans

(* (ab)* ending in a final 0; accepts "", "ab", "abab", … *)
let ab_star = mk [ (0, 'a', 1); (1, 'b', 0) ] [ 0 ]

(* words containing "aa" *)
let contains_aa =
  N.create ~init:[ 0 ]
    ~finals:[ 2 ]
    ~trans:
      [
        (0, 'a', 0); (0, 'b', 0); (0, 'a', 1); (1, 'a', 2);
        (2, 'a', 2); (2, 'b', 2);
      ]

let test_accepts () =
  Alcotest.(check bool) "eps in (ab)*" true (N.accepts ab_star []);
  Alcotest.(check bool) "ab in (ab)*" true (N.accepts ab_star [ 'a'; 'b' ]);
  Alcotest.(check bool) "abab" true (N.accepts ab_star [ 'a'; 'b'; 'a'; 'b' ]);
  Alcotest.(check bool) "a not in" false (N.accepts ab_star [ 'a' ]);
  Alcotest.(check bool) "ba not in" false (N.accepts ab_star [ 'b'; 'a' ]);
  Alcotest.(check bool) "baab has aa" true
    (N.accepts contains_aa [ 'b'; 'a'; 'a'; 'b' ]);
  Alcotest.(check bool) "abab no aa" false
    (N.accepts contains_aa [ 'a'; 'b'; 'a'; 'b' ])

let test_empty_language () =
  Alcotest.(check bool) "no finals" true
    (N.is_language_empty (mk [ (0, 'a', 1) ] []));
  Alcotest.(check bool) "unreachable final" true
    (N.is_language_empty (N.create ~init:[ 0 ] ~finals:[ 9 ] ~trans:[ (0, 'a', 1) ]));
  Alcotest.(check bool) "reachable final" false (N.is_language_empty ab_star)

let test_shortest () =
  Alcotest.(check (option word)) "shortest in (ab)*" (Some []) (N.shortest_accepted ab_star);
  Alcotest.(check (option word))
    "shortest aa" (Some [ 'a'; 'a' ])
    (N.shortest_accepted contains_aa);
  Alcotest.(check (option word)) "none" None
    (N.shortest_accepted (mk [ (0, 'a', 1) ] []))

let test_product () =
  (* (ab)* ∩ contains_aa = ∅ *)
  Alcotest.(check bool) "disjoint" true
    (N.is_language_empty (N.intersect ab_star contains_aa));
  (* contains_aa ∩ contains_aa = itself *)
  Alcotest.(check bool) "self product accepts aa" true
    (N.accepts (N.intersect contains_aa contains_aa) [ 'a'; 'a' ])

let test_union () =
  let u = N.union ab_star contains_aa in
  Alcotest.(check bool) "ab in union" true (N.accepts u [ 'a'; 'b' ]);
  Alcotest.(check bool) "aa in union" true (N.accepts u [ 'a'; 'a' ]);
  Alcotest.(check bool) "ba not in union" false (N.accepts u [ 'b'; 'a' ])

let test_determinize () =
  let d = N.determinize contains_aa in
  Alcotest.(check bool) "dfa accepts aa" true (N.accepts d [ 'a'; 'a' ]);
  Alcotest.(check bool) "dfa accepts baa" true (N.accepts d [ 'b'; 'a'; 'a' ]);
  Alcotest.(check bool) "dfa rejects ab" false (N.accepts d [ 'a'; 'b' ])

let test_complement () =
  let c = N.complement ~alphabet:[ 'a'; 'b' ] contains_aa in
  Alcotest.(check bool) "ab in complement" true (N.accepts c [ 'a'; 'b' ]);
  Alcotest.(check bool) "aa not in complement" false (N.accepts c [ 'a'; 'a' ])

let test_equivalent () =
  Alcotest.(check bool) "self-equivalent" true
    (N.equivalent ~alphabet:[ 'a'; 'b' ] contains_aa (N.determinize contains_aa));
  Alcotest.(check bool) "different" false
    (N.equivalent ~alphabet:[ 'a'; 'b' ] contains_aa ab_star)

let test_trim () =
  let a =
    N.create ~init:[ 0 ] ~finals:[ 1; 7 ]
      ~trans:[ (0, 'a', 1); (5, 'b', 7) ]
  in
  let t = N.trim a in
  Alcotest.(check int) "only reachable" 2 (N.size t);
  Alcotest.(check bool) "language kept" true (N.accepts t [ 'a' ])

(* --- properties --- *)

let build_nfa (trans, finals) = N.create ~init:[ 0 ] ~finals ~trans

let prop_determinize_preserves =
  QCheck.Test.make ~name:"determinize preserves acceptance" ~count:300
    QCheck.(
      make
        Gen.(pair Testkit.Generators.nfa_gen Testkit.Generators.word_gen)
        ~print:(fun ((trans, finals), w) ->
          Fmt.str "trans=%a finals=%a word=%a"
            Fmt.(Dump.list (fun ppf (s, c, d) -> Fmt.pf ppf "(%d,%c,%d)" s c d))
            trans
            Fmt.(Dump.list int)
            finals
            Fmt.(Dump.list char)
            w))
    (fun (spec, w) ->
      let a = build_nfa spec in
      N.accepts a w = N.accepts (N.determinize a) w)

let prop_complement_flips =
  QCheck.Test.make ~name:"complement flips acceptance" ~count:300
    QCheck.(make Gen.(pair Testkit.Generators.nfa_gen Testkit.Generators.word_gen))
    (fun (spec, w) ->
      let a = build_nfa spec in
      N.accepts a w <> N.accepts (N.complement ~alphabet:[ 'a'; 'b'; 'c' ] a) w)

let prop_intersect_is_conj =
  QCheck.Test.make ~name:"intersection acceptance is conjunction" ~count:300
    QCheck.(make Gen.(triple Testkit.Generators.nfa_gen Testkit.Generators.nfa_gen Testkit.Generators.word_gen))
    (fun (s1, s2, w) ->
      let a = build_nfa s1 and b = build_nfa s2 in
      N.accepts (N.intersect a b) w = (N.accepts a w && N.accepts b w))

let prop_union_is_disj =
  QCheck.Test.make ~name:"union acceptance is disjunction" ~count:300
    QCheck.(make Gen.(triple Testkit.Generators.nfa_gen Testkit.Generators.nfa_gen Testkit.Generators.word_gen))
    (fun (s1, s2, w) ->
      let a = build_nfa s1 and b = build_nfa s2 in
      N.accepts (N.union a b) w = (N.accepts a w || N.accepts b w))

let prop_shortest_is_accepted =
  QCheck.Test.make ~name:"shortest_accepted is accepted" ~count:300
    QCheck.(make Testkit.Generators.nfa_gen)
    (fun spec ->
      let a = build_nfa spec in
      match N.shortest_accepted a with
      | None -> N.is_language_empty a
      | Some w -> N.accepts a w)

(* --- SFA --- *)

module IntLabel = struct
  type t = int -> bool
  type letter = int

  let sat f x = f x
  let pp ppf _ = Fmt.string ppf "<pred>"
  let pp_letter = Fmt.int
end

module S = Automata.Sfa.Make (IntLabel)

let test_sfa_run () =
  (* 0 --(>5)--> 1 --(even)--> 2(bad) with default self-loops *)
  let a =
    S.create ~init:0 ~finals:[ 2 ]
      ~trans:[ (0, (fun x -> x > 5), 1); (1, (fun x -> x mod 2 = 0), 2) ]
  in
  Alcotest.(check bool) "no violation" false (S.violates a [ 1; 2; 3 ]);
  Alcotest.(check bool) "violation" true (S.violates a [ 9; 4 ]);
  Alcotest.(check bool) "self-loop on unmatched" true (S.violates a [ 1; 9; 3; 4 ]);
  Alcotest.(check (option int)) "position" (Some 3)
    (S.first_violation a [ 1; 9; 3; 4 ]);
  Alcotest.(check (option int)) "no position" None
    (S.first_violation a [ 1; 9; 3 ])

let test_sfa_concrete () =
  let a = S.create ~init:0 ~finals:[ 1 ] ~trans:[ (0, (fun x -> x = 7), 1) ] in
  let trans = S.concrete_transitions a [ 7; 8 ] in
  (* 0 --7--> 1, 0 --8--> 0 (default), 1 --7--> 1, 1 --8--> 1 *)
  Alcotest.(check int) "4 concrete transitions" 4 (List.length trans);
  Alcotest.(check bool) "has 0-7->1" true (List.mem (0, 7, 1) trans);
  Alcotest.(check bool) "has 0-8->0" true (List.mem (0, 8, 0) trans)

let suite =
  [
    Alcotest.test_case "accepts" `Quick test_accepts;
    Alcotest.test_case "empty language" `Quick test_empty_language;
    Alcotest.test_case "shortest accepted" `Quick test_shortest;
    Alcotest.test_case "product" `Quick test_product;
    Alcotest.test_case "union" `Quick test_union;
    Alcotest.test_case "determinize" `Quick test_determinize;
    Alcotest.test_case "complement" `Quick test_complement;
    Alcotest.test_case "equivalence" `Quick test_equivalent;
    Alcotest.test_case "trim" `Quick test_trim;
    Alcotest.test_case "sfa run" `Quick test_sfa_run;
    Alcotest.test_case "sfa concretize" `Quick test_sfa_concrete;
    QCheck_alcotest.to_alcotest prop_determinize_preserves;
    QCheck_alcotest.to_alcotest prop_complement_flips;
    QCheck_alcotest.to_alcotest prop_intersect_is_conj;
    QCheck_alcotest.to_alcotest prop_union_is_disj;
    QCheck_alcotest.to_alcotest prop_shortest_is_accepted;
  ]

(* --- concat / star / reverse / enumerate --- *)

module RX = Automata.Regex.Make (CharAlpha)

let regex_gen =
  QCheck.Gen.(
    sized_size (int_bound 6) @@ fix (fun self n ->
        if n <= 0 then
          oneof [ return RX.eps; map RX.sym (oneofl [ 'a'; 'b' ]) ]
        else
          frequency
            [
              (2, map RX.sym (oneofl [ 'a'; 'b' ]));
              (3, map2 RX.alt (self (n / 2)) (self (n / 2)));
              (3, map2 RX.cat (self (n / 2)) (self (n / 2)));
              (2, map RX.star (self (n / 2)));
            ]))

let prop_concat_agrees_with_regex =
  QCheck.Test.make ~name:"NFA concat = regex cat" ~count:400
    (QCheck.make QCheck.Gen.(triple regex_gen regex_gen Testkit.Generators.word_gen))
    (fun (r1, r2, w) ->
      let w = List.filter (fun c -> c <> 'c') w in
      RX.N.accepts (RX.N.concat (RX.compile r1) (RX.compile r2)) w
      = RX.matches (RX.cat r1 r2) w)

let prop_star_agrees_with_regex =
  QCheck.Test.make ~name:"NFA star = regex star" ~count:400
    (QCheck.make QCheck.Gen.(pair regex_gen Testkit.Generators.word_gen))
    (fun (r, w) ->
      let w = List.filter (fun c -> c <> 'c') w in
      RX.N.accepts (RX.N.star (RX.compile r)) w = RX.matches (RX.star r) w)

let prop_reverse =
  QCheck.Test.make ~name:"reverse accepts mirrored words" ~count:400
    (QCheck.make QCheck.Gen.(pair regex_gen Testkit.Generators.word_gen))
    (fun (r, w) ->
      let w = List.filter (fun c -> c <> 'c') w in
      let n = RX.compile r in
      RX.N.accepts (RX.N.reverse n) (List.rev w) = RX.N.accepts n w)

let prop_enumerate_sound =
  QCheck.Test.make ~name:"enumerated words are accepted, shortest first"
    ~count:200 (QCheck.make regex_gen) (fun r ->
      let n = RX.compile r in
      let words = RX.N.enumerate ~max_length:4 ~limit:30 n in
      List.for_all (RX.N.accepts n) words
      &&
      let lens = List.map List.length words in
      List.sort compare lens = lens)

let test_enumerate_concrete () =
  let words = N.enumerate ~max_length:4 contains_aa in
  Alcotest.(check (list (list char))) "first words"
    [ [ 'a'; 'a' ] ]
    (List.filter (fun w -> List.length w <= 2) words);
  Alcotest.(check bool) "all contain aa" true
    (List.for_all (N.accepts contains_aa) words)

let suite =
  suite
  @ [
      Alcotest.test_case "enumerate" `Quick test_enumerate_concrete;
      QCheck_alcotest.to_alcotest prop_concat_agrees_with_regex;
      QCheck_alcotest.to_alcotest prop_star_agrees_with_regex;
      QCheck_alcotest.to_alcotest prop_reverse;
      QCheck_alcotest.to_alcotest prop_enumerate_sound;
    ]
