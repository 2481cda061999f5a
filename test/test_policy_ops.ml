(* Policy conjunction and rendering. *)

let ev = Usage.Event.make
let i = Usage.Value.int
let s = Usage.Value.str

let never_z = Usage.Policy_lib.instantiate0 (Usage.Policy_lib.never "z")
let at_most_1x = Usage.Policy_lib.instantiate0 (Usage.Policy_lib.at_most ~n:1 "x")

let test_conj_id () =
  let c = Usage.Policy_ops.conj never_z at_most_1x in
  Alcotest.(check string) "identifier" "(never_z() & at_most_1_x())"
    (Usage.Policy.id c)

let test_conj_semantics () =
  let c = Usage.Policy_ops.conj never_z at_most_1x in
  let respects = Usage.Policy.respects c in
  Alcotest.(check bool) "empty ok" true (respects []);
  Alcotest.(check bool) "one x ok" true (respects [ ev "x" ]);
  Alcotest.(check bool) "two x bad (right conjunct)" false
    (respects [ ev "x"; ev "x" ]);
  Alcotest.(check bool) "z bad (left conjunct)" false (respects [ ev "z" ]);
  Alcotest.(check bool) "other events ok" true (respects [ ev "y"; ev "w" ])

let test_conj_same_automaton_different_actuals () =
  (* two instances of φ with different thresholds must conjoin without
     their parameters clashing *)
  let p1 = Usage.Policy_lib.hotel_policy ~blacklist:[ "a" ] ~price:10 ~rating:50 in
  let p2 = Usage.Policy_lib.hotel_policy ~blacklist:[ "b" ] ~price:20 ~rating:90 in
  let c = Usage.Policy_ops.conj p1 p2 in
  let trace name p t =
    [ ev ~arg:(s name) "sgn"; ev ~arg:(i p) "price"; ev ~arg:(i t) "rating" ]
  in
  (* "a" black-listed by p1 only *)
  Alcotest.(check bool) "a blacklisted" false
    (Usage.Policy.respects c (trace "a" 5 100));
  Alcotest.(check bool) "b blacklisted" false
    (Usage.Policy.respects c (trace "b" 5 100));
  (* price 15 exceeds p1's limit (10): needs rating ≥ 50 *)
  Alcotest.(check bool) "price 15 rating 60 ok" true
    (Usage.Policy.respects c (trace "c" 15 60));
  Alcotest.(check bool) "price 15 rating 40 bad for p1" false
    (Usage.Policy.respects c (trace "c" 15 40));
  (* price 25 exceeds both limits: needs rating ≥ 90 *)
  Alcotest.(check bool) "price 25 rating 95 ok" true
    (Usage.Policy.respects c (trace "c" 25 95));
  Alcotest.(check bool) "price 25 rating 60 bad for p2" false
    (Usage.Policy.respects c (trace "c" 25 60))

let test_conj_all () =
  Alcotest.(check bool) "empty" true (Usage.Policy_ops.conj_all [] = None);
  (match Usage.Policy_ops.conj_all [ never_z ] with
  | Some p -> Alcotest.(check string) "singleton" "never_z()" (Usage.Policy.id p)
  | None -> Alcotest.fail "singleton must conjoin");
  (* B7: one conjoined automaton decides what four separate framings
     decide, on a 64-event trace and on the same trace with a u *)
  let policies =
    List.map
      (fun e -> Usage.Policy_lib.instantiate0 (Usage.Policy_lib.never e))
      [ "u"; "v"; "w"; "q" ]
  in
  let conj = Option.get (Usage.Policy_ops.conj_all policies) in
  let trace = List.init 64 (fun i -> ev (Printf.sprintf "e%d" (i mod 7))) in
  List.iter
    (fun (name, tr, expected) ->
      Alcotest.(check bool) (name ^ ": separate checks") expected
        (List.for_all (fun p -> Usage.Policy.respects p tr) policies);
      Alcotest.(check bool) (name ^ ": conjunction agrees") expected
        (Usage.Policy.respects conj tr))
    [ ("64 events", trace, true); ("64 events and a u", trace @ [ ev "u" ], false) ]

let test_event_names () =
  Alcotest.(check (list string)) "names" [ "z" ]
    (Usage.Policy_ops.event_names never_z);
  Alcotest.(check (list string)) "hotel names" [ "price"; "rating"; "sgn" ]
    (Usage.Policy_ops.event_names Scenarios.Hotel.phi1)

let test_dot () =
  let out = Fmt.str "%a" Usage.Policy_ops.pp_dot Scenarios.Hotel.phi1 in
  Alcotest.(check bool) "digraph" true
    (String.length out > 0
    && String.sub out 0 7 = "digraph"
    && String.length (String.trim out) > 50)

let test_conj_in_session () =
  (* a conjoined policy governs a request end to end *)
  let pol = Usage.Policy_ops.conj never_z at_most_1x in
  (* the client awaits an answer, so it cannot close the session before
     the service has performed its events *)
  let client =
    Core.Hexpr.open_ ~rid:1 ~policy:pol
      (Core.Hexpr.select [ ("go", Core.Hexpr.recv "done_") ])
  in
  let service body =
    Core.Hexpr.branch [ ("go", Core.Hexpr.seq body (Core.Hexpr.send "done_")) ]
  in
  let ok_service = service (Core.Hexpr.ev "x") in
  let bad_service =
    service (Core.Hexpr.seq (Core.Hexpr.ev "x") (Core.Hexpr.ev "x"))
  in
  let repo = [ ("ok", ok_service); ("bad", bad_service) ] in
  let check loc =
    match
      Core.Netcheck.check_client repo
        (Core.Plan.of_list [ (1, loc) ])
        ("c", client)
    with
    | Core.Netcheck.Valid _ -> true
    | Core.Netcheck.Invalid _ -> false
  in
  Alcotest.(check bool) "one x fine" true (check "ok");
  Alcotest.(check bool) "two x blocked" false (check "bad")

(* property: conjunction = logical and of the verdicts *)
let prop_conj_is_and =
  QCheck.Test.make ~name:"conj violates iff either violates" ~count:300
    (QCheck.make
       QCheck.Gen.(
         triple Testkit.Generators.policy_gen Testkit.Generators.policy_gen
           (list_size (int_bound 10) Testkit.Generators.event_gen)))
    (fun (p, q, tr) ->
      Usage.Policy.respects (Usage.Policy_ops.conj p q) tr
      = (Usage.Policy.respects p tr && Usage.Policy.respects q tr))

let prop_conj_hotel_instances =
  QCheck.Test.make ~name:"conj of hotel instances is their and" ~count:200
    (QCheck.make
       QCheck.Gen.(
         let hotel_event =
           let* name = oneofl [ "sgn"; "price"; "rating" ] in
           if name = "sgn" then
             let* h = oneofl [ "a"; "b"; "c" ] in
             return (ev ~arg:(s h) name)
           else
             let* v = int_bound 100 in
             return (ev ~arg:(i v) name)
         in
         pair
           (pair (int_bound 50) (int_bound 100))
           (list_size (int_bound 8) hotel_event)))
    (fun (((price, rating), tr)) ->
      let p1 = Usage.Policy_lib.hotel_policy ~blacklist:[ "a" ] ~price ~rating in
      let p2 =
        Usage.Policy_lib.hotel_policy ~blacklist:[ "b" ] ~price:(price + 5)
          ~rating:(rating / 2)
      in
      Usage.Policy.respects (Usage.Policy_ops.conj p1 p2) tr
      = (Usage.Policy.respects p1 tr && Usage.Policy.respects p2 tr))

let suite =
  [
    Alcotest.test_case "conj identifier" `Quick test_conj_id;
    Alcotest.test_case "conj semantics" `Quick test_conj_semantics;
    Alcotest.test_case "conj with clashing parameters" `Quick
      test_conj_same_automaton_different_actuals;
    Alcotest.test_case "conj_all" `Quick test_conj_all;
    Alcotest.test_case "event names" `Quick test_event_names;
    Alcotest.test_case "dot rendering" `Quick test_dot;
    Alcotest.test_case "conjunction in sessions" `Quick test_conj_in_session;
    QCheck_alcotest.to_alcotest prop_conj_is_and;
    QCheck_alcotest.to_alcotest prop_conj_hotel_instances;
  ]

(* --- language reasoning over a ground alphabet --- *)

let hotel_alphabet =
  (* includes a hotel outside both black lists (s2) and a rating (80)
     below phi1's threshold but above phi2's, so neither policy subsumes
     the other *)
  let open Usage in
  [
    Event.make ~arg:(Value.str "s1") "sgn";
    Event.make ~arg:(Value.str "s2") "sgn";
    Event.make ~arg:(Value.str "s3") "sgn";
    Event.make ~arg:(Value.int 40) "price";
    Event.make ~arg:(Value.int 90) "price";
    Event.make ~arg:(Value.int 60) "rating";
    Event.make ~arg:(Value.int 80) "rating";
    Event.make ~arg:(Value.int 100) "rating";
  ]

let x_alphabet = [ ev "x"; ev "y" ]

let test_subsumes () =
  let am1 = Usage.Policy_lib.instantiate0 (Usage.Policy_lib.at_most ~n:1 "x") in
  let am2 = Usage.Policy_lib.instantiate0 (Usage.Policy_lib.at_most ~n:2 "x") in
  (* at-most-1 is stricter: everything violating at-most-2 violates it *)
  Alcotest.(check bool) "stricter subsumes" true
    (Usage.Policy_ops.subsumes ~alphabet:x_alphabet am1 am2);
  Alcotest.(check bool) "looser does not" false
    (Usage.Policy_ops.subsumes ~alphabet:x_alphabet am2 am1);
  Alcotest.(check bool) "reflexive" true
    (Usage.Policy_ops.subsumes ~alphabet:x_alphabet am1 am1)

let test_hotel_policies_incomparable () =
  let p1 = Scenarios.Hotel.phi1 and p2 = Scenarios.Hotel.phi2 in
  Alcotest.(check bool) "phi1 does not subsume phi2" false
    (Usage.Policy_ops.subsumes ~alphabet:hotel_alphabet p1 p2);
  Alcotest.(check bool) "phi2 does not subsume phi1" false
    (Usage.Policy_ops.subsumes ~alphabet:hotel_alphabet p2 p1)

let test_conj_subsumes_both () =
  let p1 = Scenarios.Hotel.phi1 and p2 = Scenarios.Hotel.phi2 in
  let c = Usage.Policy_ops.conj p1 p2 in
  Alcotest.(check bool) "conj subsumes left" true
    (Usage.Policy_ops.subsumes ~alphabet:hotel_alphabet c p1);
  Alcotest.(check bool) "conj subsumes right" true
    (Usage.Policy_ops.subsumes ~alphabet:hotel_alphabet c p2)

let test_vacuous () =
  (* never "z" cannot be violated over an alphabet without z *)
  Alcotest.(check bool) "vacuous" true
    (Usage.Policy_ops.vacuous ~alphabet:x_alphabet never_z);
  Alcotest.(check bool) "not vacuous" false
    (Usage.Policy_ops.vacuous ~alphabet:[ ev "z" ] never_z)

let test_witness () =
  match Usage.Policy_ops.witness ~alphabet:[ ev "x" ] at_most_1x with
  | Some tr -> Alcotest.(check int) "two x suffice" 2 (List.length tr)
  | None -> Alcotest.fail "violable policy must have a witness"

let prop_witness_violates =
  QCheck.Test.make ~name:"witnesses do violate" ~count:200
    (QCheck.make Testkit.Generators.policy_gen) (fun p ->
      let alphabet =
        [ ev "x"; ev "y"; ev "z"; ev ~arg:(i 1) "x" ]
      in
      match Usage.Policy_ops.witness ~alphabet p with
      | None -> true
      | Some tr -> not (Usage.Policy.respects p tr))

let prop_subsumes_agrees_with_traces =
  QCheck.Test.make ~name:"subsumption agrees with trace checking" ~count:150
    (QCheck.make
       QCheck.Gen.(
         triple Testkit.Generators.policy_gen Testkit.Generators.policy_gen
           (list_size (int_bound 8) (oneofl [ "x"; "y"; "z" ]))))
    (fun (p, q, names) ->
      let alphabet = [ ev "x"; ev "y"; ev "z" ] in
      let tr = List.map ev names in
      if Usage.Policy_ops.subsumes ~alphabet p q then
        (* any violation of q is a violation of p *)
        Usage.Policy.respects q tr || not (Usage.Policy.respects p tr)
      else true)

let suite =
  suite
  @ [
      Alcotest.test_case "subsumption" `Quick test_subsumes;
      Alcotest.test_case "incomparable hotel policies" `Quick
        test_hotel_policies_incomparable;
      Alcotest.test_case "conjunction subsumes conjuncts" `Quick
        test_conj_subsumes_both;
      Alcotest.test_case "vacuity" `Quick test_vacuous;
      Alcotest.test_case "witnesses" `Quick test_witness;
      QCheck_alcotest.to_alcotest prop_witness_violates;
      QCheck_alcotest.to_alcotest prop_subsumes_agrees_with_traces;
    ]
