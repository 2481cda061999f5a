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

let test_determinize () =
  let d = N.determinize contains_aa in
  Alcotest.(check bool) "dfa accepts aa" true (N.accepts d [ 'a'; 'a' ]);
  Alcotest.(check bool) "dfa accepts baa" true (N.accepts d [ 'b'; 'a'; 'a' ]);
  Alcotest.(check bool) "dfa rejects ab" false (N.accepts d [ 'a'; 'b' ])

let test_complement () =
  let c = N.complement ~alphabet:[ 'a'; 'b' ] contains_aa in
  Alcotest.(check bool) "ab in complement" true (N.accepts c [ 'a'; 'b' ]);
  Alcotest.(check bool) "aa not in complement" false (N.accepts c [ 'a'; 'a' ])

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
    Alcotest.test_case "determinize" `Quick test_determinize;
    Alcotest.test_case "complement" `Quick test_complement;
    Alcotest.test_case "sfa run" `Quick test_sfa_run;
    Alcotest.test_case "sfa concretize" `Quick test_sfa_concrete;
    QCheck_alcotest.to_alcotest prop_determinize_preserves;
    QCheck_alcotest.to_alcotest prop_complement_flips;
    QCheck_alcotest.to_alcotest prop_intersect_is_conj;
    QCheck_alcotest.to_alcotest prop_shortest_is_accepted;
  ]

(* --- the breadth-first kernel --- *)

module W = Automata.Bfs.Make (Int)

(* The reference: each state's distance from the roots, by naive
   fixpoint iteration over the edge list. *)
let distances trans roots =
  let dist = Hashtbl.create 8 in
  List.iter (fun r -> Hashtbl.replace dist r 0) roots;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (a, _, b) ->
        match (Hashtbl.find_opt dist a, Hashtbl.find_opt dist b) with
        | Some d, Some d' when d' <= d + 1 -> ()
        | Some d, _ ->
            Hashtbl.replace dist b (d + 1);
            changed := true
        | None, _ -> ())
      trans
  done;
  dist

(* The states a label path leads to from [roots]. *)
let read trans roots path =
  List.fold_left
    (fun at l ->
      List.filter_map
        (fun (a, l', b) -> if List.mem a at && l = l' then Some b else None)
        trans)
    roots path

let dedup xs =
  List.rev
    (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs)

let prop_kernel =
  QCheck.Test.make ~name:"BFS kernel agrees with a naive fixpoint" ~count:500
    QCheck.(make Gen.(pair Testkit.Generators.nfa_gen (int_bound 7)))
    (fun ((trans, finals), n) ->
      let roots = 0 :: finals in
      let succ s =
        List.filter_map
          (fun (a, l, b) -> if a = s then Some (l, b) else None)
          trans
      in
      let dist = distances trans roots in
      let reach = Hashtbl.length dist in
      (* a full walk, with every path checked as it is visited *)
      let visits = ref [] and edges = ref [] and paths_ok = ref true in
      let stopped, found =
        W.run roots
          ~edge:(fun i l j -> edges := (i, l, j) :: !edges)
          (fun w i s ->
            visits := (i, s) :: !visits;
            let p = W.path w i in
            if
              List.length p <> Hashtbl.find dist s
              || not (List.mem s (read trans roots p))
            then paths_ok := false;
            Automata.Bfs.Expand (succ s))
      in
      let visits = List.rev !visits and edges = List.rev !edges in
      let state i = List.assoc i visits in
      let same_states =
        stopped = None && found = reach
        && List.sort compare (List.map snd visits)
           = List.sort compare (List.of_seq (Hashtbl.to_seq_keys dist))
      in
      (* numbered in visit order, roots first, by non-decreasing
         distance; each number an edge reveals is the next one *)
      let k = List.length (dedup roots) in
      let numbered =
        List.map fst visits = List.init found Fun.id
        && List.filteri (fun i _ -> i < k) (List.map snd visits) = dedup roots
        && (let ds = List.map (fun (_, s) -> Hashtbl.find dist s) visits in
            ds = List.sort compare ds)
        && snd
             (List.fold_left
                (fun (next, ok) (_, _, j) ->
                  if j < next then (next, ok) else (j + 1, ok && j = next))
                (k, true) edges)
      in
      (* every move out of a reachable state is reported once, with the
         numbers its ends were given *)
      let edges_ok =
        List.length edges
        = List.length (List.filter (fun (a, _, _) -> Hashtbl.mem dist a) trans)
        && List.for_all
             (fun (i, l, j) -> List.mem (state i, l, state j) trans)
             edges
      in
      let limited =
        match W.states ~limit:n succ roots with
        | _ -> reach <= n
        | exception Automata.Bfs.State_limit m -> m = n && reach > n
      in
      (* a pruned state expands nothing *)
      let pruned s = s mod 2 = 1 in
      let pruned_visits = ref [] and sources = ref [] in
      let _, pruned_found =
        W.run roots
          ~edge:(fun i _ _ -> sources := i :: !sources)
          (fun _ i s ->
            pruned_visits := (i, s) :: !pruned_visits;
            if pruned s then Automata.Bfs.Prune
            else Automata.Bfs.Expand (succ s))
      in
      let unpruned = List.filter (fun (a, _, _) -> not (pruned a)) trans in
      let prune_ok =
        pruned_found = Hashtbl.length (distances unpruned roots)
        && List.for_all
             (fun i -> not (pruned (List.assoc i !pruned_visits)))
             !sources
      in
      (* the walk ends at the first target it visits, with its value *)
      let target s = s mod 3 = 2 in
      let stop_visits = ref 0 in
      let stop, _ =
        W.run roots (fun _ _ s ->
            incr stop_visits;
            if target s then Automata.Bfs.Stop s
            else Automata.Bfs.Expand (succ s))
      in
      let stop_ok =
        match List.find_opt (fun (_, s) -> target s) visits with
        | None -> stop = None
        | Some (i, s) -> stop = Some s && !stop_visits = i + 1
      in
      same_states && numbered && !paths_ok && edges_ok && limited && prune_ok
      && stop_ok)

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_kernel ]
