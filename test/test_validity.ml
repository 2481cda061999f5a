(* Histories and the validity machinery: the literal definition, the
   incremental monitor, the finite abstraction, and whole-expression
   static validity. *)

open Core

let never_z = List.nth Testkit.Generators.policy_pool 0
let no_y_after_x = List.nth Testkit.Generators.policy_pool 1
let ev name = History.Ev (Usage.Event.make name)
let x = ev "x"
let y = ev "y"
let z = ev "z"

let test_flatten_active () =
  let h = [ History.Op never_z; x; History.Cl never_z; y ] in
  Alcotest.(check int) "flatten drops frames" 2 (List.length (History.flatten h));
  Alcotest.(check int) "nothing active" 0 (List.length (History.active h));
  let h2 = [ History.Op never_z; History.Op no_y_after_x; History.Cl never_z ] in
  Alcotest.(check (list string)) "one active"
    [ Usage.Policy.id no_y_after_x ]
    (List.map Usage.Policy.id (History.active h2))

let test_active_multiset () =
  let h = [ History.Op never_z; History.Op never_z; History.Cl never_z ] in
  Alcotest.(check int) "multiset keeps one" 1 (List.length (History.active h))

let test_balanced () =
  Alcotest.(check bool) "empty balanced" true (History.is_balanced []);
  Alcotest.(check bool) "open only is prefix" true
    (History.is_prefix_of_balanced [ History.Op never_z ]);
  Alcotest.(check bool) "open only not balanced" false
    (History.is_balanced [ History.Op never_z ]);
  Alcotest.(check bool) "close first invalid" false
    (History.is_prefix_of_balanced [ History.Cl never_z ]);
  Alcotest.(check bool) "round trip balanced" true
    (History.is_balanced [ History.Op never_z; x; History.Cl never_z ])

let test_prefixes () =
  Alcotest.(check int) "n+1 prefixes" 4 (List.length (History.prefixes [ x; y; z ]))

let test_valid_basic () =
  Alcotest.(check bool) "empty valid" true (Validity.valid []);
  Alcotest.(check bool) "inactive policy ignored" true
    (Validity.valid [ z ]);
  Alcotest.(check bool) "active policy enforced" false
    (Validity.valid [ History.Op never_z; z ]);
  Alcotest.(check bool) "closed policy not enforced" true
    (Validity.valid [ History.Op never_z; History.Cl never_z; z ])

(* The paper's §3.1 example: φ = no α after γ.
   γ α Lφ β is NOT valid (the past γα already offends φ when φ opens),
   while Lφ γ Mφ α β IS valid. *)
let test_history_dependence () =
  let phi =
    Usage.Policy_lib.instantiate0
      (Usage.Policy_lib.never_after ~first:"g" ~then_:"a")
  in
  let g = ev "g" and a = ev "a" and b = ev "b" in
  let bad = [ g; a; History.Op phi; b ] in
  Alcotest.(check bool) "retroactive violation" false (Validity.valid bad);
  let good = [ History.Op phi; g; History.Cl phi; a; b ] in
  Alcotest.(check bool) "closed in time" true (Validity.valid good)

let test_check_diagnostics () =
  let phi = never_z in
  match Validity.check [ History.Op phi; x; z; y ] with
  | Ok () -> Alcotest.fail "expected a violation"
  | Error v ->
      Alcotest.(check string) "policy" (Usage.Policy.id phi)
        (Usage.Policy.id v.Validity.policy);
      Alcotest.(check int) "prefix length" 3 (List.length v.Validity.prefix)

let test_monitor_close_unmatched () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Validity.Monitor.push Validity.Monitor.empty (History.Cl never_z));
       false
     with Invalid_argument _ -> true)

let test_push_unchecked () =
  let m = Validity.Monitor.push_unchecked Validity.Monitor.empty (History.Op never_z) in
  let m = Validity.Monitor.push_unchecked m z in
  let m = Validity.Monitor.push_unchecked m z in
  Alcotest.(check int) "history logged past violation" 3
    (List.length (Validity.Monitor.history m))

let test_abstract_matches_monitor () =
  let uni = Testkit.Generators.policy_pool in
  let items = [ History.Op never_z; x; History.Cl never_z; History.Op no_y_after_x; y ] in
  let rec run_abs abs = function
    | [] -> true
    | i :: rest -> (
        match Validity.Abstract.push abs i with
        | Ok abs -> run_abs abs rest
        | Error _ -> false)
  in
  Alcotest.(check bool) "abstract agrees with spec"
    (Validity.valid items)
    (run_abs (Validity.Abstract.init uni) items)

let test_abstract_unknown_policy () =
  let abs = Validity.Abstract.init [] in
  Alcotest.(check bool) "raises on unknown" true
    (try
       ignore (Validity.Abstract.push abs (History.Op never_z));
       false
     with Invalid_argument _ -> true)

let test_check_expr () =
  (* φ[ #z ] where φ = never z: invalid *)
  let bad = Hexpr.frame never_z (Hexpr.ev "z") in
  (match Validity.check_expr bad with
  | Ok () -> Alcotest.fail "expected violation"
  | Error v ->
      Alcotest.(check string) "policy" (Usage.Policy.id never_z)
        (Usage.Policy.id v.Validity.policy));
  (* #z . φ[ #x ]: the z precedes the framing but φ is history-dependent *)
  let retro = Hexpr.seq (Hexpr.ev "z") (Hexpr.frame never_z (Hexpr.ev "x")) in
  Alcotest.(check bool) "retroactive in expressions" true
    (Result.is_error (Validity.check_expr retro));
  (* #z alone: fine *)
  Alcotest.(check bool) "no active policy" true
    (Result.is_ok (Validity.check_expr (Hexpr.ev "z")));
  (* only one branch violates: still an error (all histories must be valid) *)
  let one_bad =
    Hexpr.frame never_z
      (Hexpr.branch [ ("a", Hexpr.ev "x"); ("b", Hexpr.ev "z") ])
  in
  Alcotest.(check bool) "branch violation found" true
    (Result.is_error (Validity.check_expr one_bad))

let test_check_expr_open_as_frame () =
  (* open_{r,φ} behaves as Lφ…Mφ for static validity *)
  let bad = Hexpr.open_ ~rid:1 ~policy:never_z (Hexpr.ev "z") in
  Alcotest.(check bool) "session policy enforced" true
    (Result.is_error (Validity.check_expr bad));
  let ok = Hexpr.open_ ~rid:1 (Hexpr.ev "z") in
  Alcotest.(check bool) "no policy, no check" true
    (Result.is_ok (Validity.check_expr ok))

let test_check_expr_recursion () =
  (* μh. a?.#x.h under at_most 2 x: the third iteration violates *)
  let at_most_2x = List.nth Testkit.Generators.policy_pool 2 in
  let loop =
    Hexpr.frame at_most_2x
      (Hexpr.mu "h" (Hexpr.branch [ ("a", Hexpr.seq (Hexpr.ev "x") (Hexpr.var "h")); ("b", Hexpr.nil) ]))
  in
  match Validity.check_expr loop with
  | Ok () -> Alcotest.fail "expected violation in third iteration"
  | Error v ->
      let events = History.flatten v.Validity.prefix in
      Alcotest.(check int) "three x events" 3 (List.length events)

(* properties *)

let prop_check_agrees_with_valid =
  QCheck.Test.make ~name:"incremental check = literal definition" ~count:400
    Testkit.Generators.history_arb (fun h ->
      Validity.valid h = Result.is_ok (Validity.check h))

let prop_abstract_agrees =
  QCheck.Test.make ~name:"abstract monitor = literal definition" ~count:400
    Testkit.Generators.history_arb (fun h ->
      let rec run abs = function
        | [] -> true
        | i :: rest -> (
            match Validity.Abstract.push abs i with
            | Ok abs -> run abs rest
            | Error _ -> false)
      in
      Validity.valid h = run (Validity.Abstract.init Testkit.Generators.policy_pool) h)

let prop_valid_prefix_closed =
  QCheck.Test.make ~name:"validity is prefix-closed" ~count:200
    Testkit.Generators.history_arb (fun h ->
      QCheck.assume (Validity.valid h);
      List.for_all Validity.valid (History.prefixes h))

(* E3 (§2): a hotel H respects a client's policy φ iff φ[H] is
   statically valid — every trace of events H may fire satisfies φ. *)
let test_hotels_against_policies () =
  let respects phi h = Result.is_ok (Validity.check_expr (Hexpr.frame phi h)) in
  List.iter
    (fun (loc, under_phi1, under_phi2) ->
      let h = List.assoc loc Scenarios.Hotel.hotels in
      Alcotest.(check bool)
        (loc ^ " under phi1 (client C1)")
        under_phi1
        (respects Scenarios.Hotel.phi1 h);
      Alcotest.(check bool)
        (loc ^ " under phi2 (client C2)")
        under_phi2
        (respects Scenarios.Hotel.phi2 h))
    [
      ("s1", false, false);
      ("s2", true, true);
      ("s3", true, false);
      ("s4", false, true);
    ]

let suite =
  [
    Alcotest.test_case "flatten and active" `Quick test_flatten_active;
    Alcotest.test_case "active is a multiset" `Quick test_active_multiset;
    Alcotest.test_case "balanced histories" `Quick test_balanced;
    Alcotest.test_case "prefixes" `Quick test_prefixes;
    Alcotest.test_case "validity basics" `Quick test_valid_basic;
    Alcotest.test_case "history dependence (§3.1 example)" `Quick test_history_dependence;
    Alcotest.test_case "violation diagnostics" `Quick test_check_diagnostics;
    Alcotest.test_case "unmatched close" `Quick test_monitor_close_unmatched;
    Alcotest.test_case "unchecked logging" `Quick test_push_unchecked;
    Alcotest.test_case "abstract monitor" `Quick test_abstract_matches_monitor;
    Alcotest.test_case "abstract unknown policy" `Quick test_abstract_unknown_policy;
    Alcotest.test_case "static validity of expressions" `Quick test_check_expr;
    Alcotest.test_case "opens act as framings" `Quick test_check_expr_open_as_frame;
    Alcotest.test_case "static validity through recursion" `Quick test_check_expr_recursion;
    QCheck_alcotest.to_alcotest prop_check_agrees_with_valid;
    QCheck_alcotest.to_alcotest prop_abstract_agrees;
    QCheck_alcotest.to_alcotest prop_valid_prefix_closed;
    Alcotest.test_case "hotels against the clients' policies (E3)" `Quick
      test_hotels_against_policies;
  ]
