(* Coverage for the smaller API surfaces: actions, plans, histories,
   schedulers — and cross-scenario execution invariants. *)

open Core

let never_z = List.nth Testkit.Generators.policy_pool 0

(* --- Action --- *)

let test_action_co () =
  Alcotest.(check bool) "co in" true (Action.co (Action.In "a") = Some (Action.Out "a"));
  Alcotest.(check bool) "co out" true (Action.co (Action.Out "a") = Some (Action.In "a"));
  Alcotest.(check bool) "co tau" true (Action.co Action.Tau = None);
  Alcotest.(check bool) "co event" true
    (Action.co (Action.Evt (Usage.Event.make "x")) = None)

let test_action_is_comm () =
  Alcotest.(check bool) "in" true (Action.is_comm (Action.In "a"));
  Alcotest.(check bool) "tau" true (Action.is_comm Action.Tau);
  Alcotest.(check bool) "open" true
    (Action.is_comm (Action.Op { Hexpr.rid = 1; policy = None }));
  Alcotest.(check bool) "event" false
    (Action.is_comm (Action.Evt (Usage.Event.make "x")));
  Alcotest.(check bool) "frame" false (Action.is_comm (Action.Frm_open never_z))

(* --- Plan --- *)

let test_plan_ops () =
  let p1 = Plan.of_list [ (1, "a"); (2, "b") ] in
  let p2 = Plan.of_list [ (3, "c") ] in
  let u = Plan.union p1 p2 in
  Alcotest.(check (list int)) "domain" [ 1; 2; 3 ] (Plan.domain u);
  Alcotest.(check (option string)) "find" (Some "b") (Plan.find u 2);
  Alcotest.(check (option string)) "missing" None (Plan.find u 9);
  Alcotest.(check bool) "conflicting union rejected" true
    (try
       ignore (Plan.union p1 (Plan.of_list [ (1, "z") ]));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "idempotent union" true
    (Plan.equal u (Plan.union u u));
  Alcotest.(check string) "rendering" "{1[a], 2[b]}" (Fmt.str "%a" Plan.pp p1)

let test_plan_duplicate () =
  Alcotest.(check bool) "duplicate binding rejected" true
    (try
       ignore (Plan.of_list [ (1, "a"); (1, "b") ]);
       false
     with Invalid_argument _ -> true);
  (* re-binding to the same location is fine *)
  Alcotest.(check bool) "same binding tolerated" true
    (Plan.equal (Plan.of_list [ (1, "a"); (1, "a") ]) (Plan.of_list [ (1, "a") ]))

(* --- History.of_actions --- *)

let test_history_of_actions () =
  let acts =
    [
      Action.In "a";
      Action.Evt (Usage.Event.make "x");
      Action.Frm_open never_z;
      Action.Tau;
      Action.Frm_close never_z;
      Action.Out "b";
    ]
  in
  let h = History.of_actions acts in
  Alcotest.(check int) "loggable only" 3 (List.length h);
  Alcotest.(check bool) "balanced" true (History.is_balanced h)

(* --- Hexpr.Infix --- *)

let test_infix () =
  let open Hexpr.Infix in
  let h = Hexpr.ev "x" @. Hexpr.ev "y" @. Hexpr.nil in
  Alcotest.(check bool) "sequencing operator" true
    (Hexpr.equal h (Hexpr.seq (Hexpr.ev "x") (Hexpr.ev "y")))

(* --- schedulers --- *)

let test_scheduler_stopped () =
  (* an exhausted script stops the run *)
  let cfg =
    Network.initial ~plan:Scenarios.Hotel.plan1 [ ("c1", Scenarios.Hotel.client1) ]
  in
  let t = Simulate.run Scenarios.Hotel.repo cfg (Simulate.script []) in
  Alcotest.(check bool) "stopped" true (t.Simulate.outcome = Simulate.Stopped);
  Alcotest.(check int) "no steps" 0 (List.length t.Simulate.steps)

let test_scheduler_fuel () =
  let cfg =
    Network.initial ~plan:Scenarios.Hotel.plan1 [ ("c1", Scenarios.Hotel.client1) ]
  in
  let t = Simulate.run ~max_steps:2 Scenarios.Hotel.repo cfg Simulate.first in
  Alcotest.(check bool) "out of fuel" true (t.Simulate.outcome = Simulate.Out_of_fuel);
  Alcotest.(check int) "two steps" 2 (List.length t.Simulate.steps)

(* --- cross-scenario execution invariants --- *)

(* Every monitored run of ANY plan (valid or not) in every shipped
   scenario maintains: histories are prefixes of balanced and valid. *)
let scenario_plans =
  let shipped name spec =
    let repo = Syntax.Spec.repo spec
    and client = ("shopper", Fixture.client spec "shopper") in
    (name, repo, client, Planner.enumerate repo ~client)
  in
  [
    ( "hotel",
      Scenarios.Hotel.repo,
      ("c1", Scenarios.Hotel.client1),
      Planner.enumerate Scenarios.Hotel.repo
        ~client:("c1", Scenarios.Hotel.client1) );
    shipped "ecommerce" Fixture.ecommerce;
    shipped "mesh" Fixture.mesh;
  ]

let test_monitored_runs_always_valid () =
  List.iter
    (fun (name, repo, client, plans) ->
      List.iteri
        (fun i plan ->
          if i mod 3 = 0 (* sample the enumeration *) then
            List.iter
              (fun seed ->
                let cfg = Network.initial_vector [ (plan, client) ] in
                let t = Simulate.run ~max_steps:300 repo cfg (Simulate.random ~seed) in
                List.iter
                  (fun c ->
                    let h = Validity.Monitor.history c.Network.monitor in
                    Alcotest.(check bool)
                      (Fmt.str "%s plan %a seed %d prefix-of-balanced" name
                         Plan.pp plan seed)
                      true
                      (History.is_prefix_of_balanced h);
                    Alcotest.(check bool)
                      (Fmt.str "%s plan %a seed %d valid" name Plan.pp plan seed)
                      true (Validity.valid h))
                  t.Simulate.final)
              [ 1; 2; 3 ])
        plans)
    scenario_plans

let suite =
  [
    Alcotest.test_case "action co" `Quick test_action_co;
    Alcotest.test_case "action is_comm" `Quick test_action_is_comm;
    Alcotest.test_case "plan operations" `Quick test_plan_ops;
    Alcotest.test_case "plan duplicates" `Quick test_plan_duplicate;
    Alcotest.test_case "history of actions" `Quick test_history_of_actions;
    Alcotest.test_case "infix sequencing" `Quick test_infix;
    Alcotest.test_case "stopped scheduler" `Quick test_scheduler_stopped;
    Alcotest.test_case "fuel" `Quick test_scheduler_fuel;
    Alcotest.test_case "monitored runs always valid" `Quick
      test_monitored_runs_always_valid;
  ]
