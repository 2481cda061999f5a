(* The network semantics (Definition 2 + its six rules), the simulator,
   and the reproduction of the paper's Fig. 3 computation (E5). *)

open Core

let repo = Scenarios.Hotel.repo
let plan1 = Scenarios.Hotel.plan1

let test_initial () =
  let cfg = Network.initial ~plan:plan1 [ ("c1", Scenarios.Hotel.client1) ] in
  Alcotest.(check int) "one client" 1 (List.length cfg);
  Alcotest.(check bool) "not done" false (Network.config_done cfg)

let test_phi () =
  let h =
    Hexpr.seq (Hexpr.frame_close Scenarios.Hotel.phi1)
      (Hexpr.seq (Hexpr.ev "x") (Hexpr.frame_close Scenarios.Hotel.phi2))
  in
  Alcotest.(check (list string)) "collects pending closes in order"
    [ Usage.Policy.id Scenarios.Hotel.phi1; Usage.Policy.id Scenarios.Hotel.phi2 ]
    (List.map Usage.Policy.id (Network.phi h));
  (* unentered framings are not collected *)
  Alcotest.(check int) "frame not collected" 0
    (List.length (Network.phi (Hexpr.frame Scenarios.Hotel.phi1 (Hexpr.ev "x"))))

let test_open_rule () =
  let cfg = Network.initial ~plan:plan1 [ ("c1", Scenarios.Hotel.client1) ] in
  match Network.steps repo cfg with
  | [ (0, Network.L_open (r, "c1", "br"), cfg') ] ->
      Alcotest.(check int) "request 1" 1 r.Hexpr.rid;
      let c = List.nth cfg' 0 in
      (match c.Network.comp with
      | Network.Session (Network.Leaf ("c1", _), Network.Leaf ("br", _)) -> ()
      | _ -> Alcotest.fail "expected a session c1-br");
      (* Lφ got logged *)
      Alcotest.(check int) "one history item" 1
        (List.length (Validity.Monitor.history c.Network.monitor))
  | _ -> Alcotest.fail "expected exactly the open move"

let test_open_requires_plan () =
  let cfg = Network.initial [ ("c1", Scenarios.Hotel.client1) ] in
  Alcotest.(check int) "no plan, no move" 0 (List.length (Network.steps repo cfg))

let test_open_checks_policy_retroactively () =
  (* a client that has already performed a black-listed signing cannot
     even open a session governed by φ1 *)
  let sneaky =
    Hexpr.seq
      (Hexpr.ev ~arg:(Usage.Value.str "s1") "sgn")
      (Hexpr.open_ ~rid:1 ~policy:Scenarios.Hotel.phi1 (Hexpr.send "req"))
  in
  let cfg = Network.initial ~plan:plan1 [ ("c1", sneaky) ] in
  (* first the event fires *)
  match Network.steps repo cfg with
  | [ (0, Network.L_event _, cfg') ] ->
      (* now the open is blocked by the monitor *)
      Alcotest.(check int) "open blocked" 0 (List.length (Network.steps repo cfg'));
      (match Network.blocked repo cfg' with
      | [ (0, Network.L_open _, v) ] ->
          Alcotest.(check string) "blocking policy"
            (Usage.Policy.id Scenarios.Hotel.phi1)
            (Usage.Policy.id v.Validity.policy)
      | _ -> Alcotest.fail "expected one blocked open")
  | _ -> Alcotest.fail "expected the event first"

let run_until_done sched =
  let cfg = Network.initial ~plan:plan1 [ ("c1", Scenarios.Hotel.client1) ] in
  Simulate.run repo cfg sched

let test_completed_run () =
  let t = run_until_done Simulate.first in
  Alcotest.(check bool) "completed"
    true
    (t.Simulate.outcome = Simulate.Completed);
  Alcotest.(check bool) "all terminated" true (Network.config_done t.Simulate.final)

let test_final_history_balanced () =
  let t = run_until_done Simulate.first in
  match t.Simulate.final with
  | [ c ] ->
      let h = Validity.Monitor.history c.Network.monitor in
      Alcotest.(check bool) "balanced at completion" true (History.is_balanced h);
      Alcotest.(check bool) "valid" true (Validity.valid h)
  | _ -> Alcotest.fail "one client expected"

(* E5: the Fig. 3 interleaving, replayed with a strict script. *)
let test_fig3_script () =
  let is = function
    | `Open r -> (function Network.L_open (q, _, _) -> q.Hexpr.rid = r | _ -> false)
    | `Sync a -> (function Network.L_sync (_, _, b) -> String.equal a b | _ -> false)
    | `Ev n -> (function Network.L_event (_, e) -> String.equal e.Usage.Event.name n | _ -> false)
    | `Close r -> (function Network.L_close (q, _) -> q.Hexpr.rid = r | _ -> false)
  in
  let script =
    [
      is (`Open 1);    (* open_{1,φ1}: session c1-br, Lφ1 *)
      is (`Sync "req");(* the request is accepted *)
      is (`Open 3);    (* nested session br-s3 *)
      is (`Ev "sgn");  (* αsgn(s3) *)
      is (`Ev "price");(* αp(90) *)
      is (`Ev "rating");(* αta(100) *)
      is (`Sync "idc");(* client data forwarded *)
      is (`Sync "una");(* the hotel answers “unavailable” *)
      is (`Close 3);   (* inner session closed *)
      is (`Sync "noav");(* answer forwarded to the client *)
      is (`Close 1);   (* outer session closed, Mφ1 *)
    ]
  in
  let cfg = Network.initial ~plan:plan1 [ ("c1", Scenarios.Hotel.client1) ] in
  let t = Simulate.run repo cfg (Simulate.script script) in
  Alcotest.(check int) "11 steps" 11 (List.length t.Simulate.steps);
  Alcotest.(check bool) "completed" true (t.Simulate.outcome = Simulate.Completed);
  (* final history: Lφ1 sgn(s3) price(90) rating(100) Mφ1 *)
  match t.Simulate.final with
  | [ c ] ->
      let h = Validity.Monitor.history c.Network.monitor in
      let rendered = Fmt.str "%a" History.pp h in
      Alcotest.(check string) "history as in Fig. 3"
        "[phi({s1},45,100) sgn(s3) price(90) rating(100) phi({s1},45,100)]"
        rendered
  | _ -> Alcotest.fail "one client expected"

(* both hotel answers are possible: with "bok" the client pays *)
let test_booking_branch () =
  let script_sync a = (function Network.L_sync (_, _, b) -> String.equal a b | _ -> false) in
  let t =
    Simulate.run repo
      (Network.initial ~plan:plan1 [ ("c1", Scenarios.Hotel.client1) ])
      (Simulate.prefer [ script_sync "bok"; script_sync "cobo"; script_sync "pay" ])
  in
  Alcotest.(check bool) "completed with booking" true
    (t.Simulate.outcome = Simulate.Completed);
  Alcotest.(check bool) "pay synchronised" true
    (List.exists
       (fun (g, _) -> match g with Network.L_sync (_, _, "pay") -> true | _ -> false)
       t.Simulate.steps)

let test_two_clients_interleaved () =
  (* C1 and C2 run side by side under a combined plan (their rids are
     disjoint apart from the broker's request 3, shared here by s4 which
     complies and respects both policies). *)
  let cfg =
    Network.initial_vector
      [
        (Plan.of_list [ (1, "br"); (3, "s3") ], ("c1", Scenarios.Hotel.client1));
        (Plan.of_list [ (2, "br"); (3, "s4") ], ("c2", Scenarios.Hotel.client2));
      ]
  in
  let t = Simulate.run repo cfg (Simulate.random ~seed:42) in
  Alcotest.(check bool) "completed" true (t.Simulate.outcome = Simulate.Completed)

let test_stuck_run () =
  (* plan request 3 to the non-compliant s2 and drive the hotel into del *)
  let t =
    Simulate.run repo
      (Network.initial
         ~plan:(Plan.of_list [ (1, "br"); (3, "s2") ])
         [ ("c1", Scenarios.Hotel.client1) ])
      (Simulate.prefer
         [ (function Network.L_sync (_, _, "del") -> true | _ -> false) ])
  in
  (* the run either deadlocks (if del chosen at the sync point there is no
     match, so the move never appears: the other answers can still be
     taken) — with the preference the run completes via bok/una; to force
     stuckness we check the state space instead in test_netcheck. *)
  Alcotest.(check bool) "run ends" true
    (match t.Simulate.outcome with
    | Simulate.Completed | Simulate.Stuck _ -> true
    | _ -> false)

let test_random_reproducible () =
  let run () =
    let t = run_until_done (Simulate.random ~seed:7) in
    List.map (fun (g, _) -> Fmt.str "%a" Network.pp_glabel g) t.Simulate.steps
  in
  Alcotest.(check (list string)) "same seed, same trace" (run ()) (run ())

let suite =
  [
    Alcotest.test_case "initial configuration" `Quick test_initial;
    Alcotest.test_case "Φ of the Close rule" `Quick test_phi;
    Alcotest.test_case "Open rule" `Quick test_open_rule;
    Alcotest.test_case "open needs a plan" `Quick test_open_requires_plan;
    Alcotest.test_case "open is history-dependent" `Quick test_open_checks_policy_retroactively;
    Alcotest.test_case "completed run" `Quick test_completed_run;
    Alcotest.test_case "final history balanced+valid" `Quick test_final_history_balanced;
    Alcotest.test_case "Fig. 3 replay (E5)" `Quick test_fig3_script;
    Alcotest.test_case "booking branch" `Quick test_booking_branch;
    Alcotest.test_case "two clients in parallel" `Quick test_two_clients_interleaved;
    Alcotest.test_case "non-compliant plan runs" `Quick test_stuck_run;
    Alcotest.test_case "random scheduler reproducible" `Quick test_random_reproducible;
  ]

(* --- §5's headline claim, executable (E9) ---
   After static validation, the runtime monitor can be switched off:
   every unmonitored run under a valid plan still only produces valid
   histories. Under an invalid plan, switching the monitor off is
   observable: some run logs an invalid history. *)

let unmonitored_all_valid plan client seeds =
  List.for_all
    (fun seed ->
      let cfg = Network.initial_vector [ (plan, client) ] in
      let t = Simulate.run ~monitored:false repo cfg (Simulate.random ~seed) in
      List.for_all
        (fun c -> Validity.valid (Validity.Monitor.history c.Network.monitor))
        t.Simulate.final)
    seeds

let seeds = List.init 100 (fun i -> i + 1)

let test_monitor_off_valid_plan () =
  Alcotest.(check bool) "pi1 unmonitored stays valid" true
    (unmonitored_all_valid plan1 ("c1", Scenarios.Hotel.client1) seeds);
  Alcotest.(check bool) "c2+s4 unmonitored stays valid" true
    (unmonitored_all_valid Scenarios.Hotel.plan2_s4
       ("c2", Scenarios.Hotel.client2) seeds)

let test_monitor_off_invalid_plan () =
  (* s1 is black-listed: without the monitor the violation is logged *)
  Alcotest.(check bool) "insecure plan violates when unmonitored" false
    (unmonitored_all_valid
       (Plan.of_list [ (1, "br"); (3, "s1") ])
       ("c1", Scenarios.Hotel.client1)
       seeds);
  (* and unmonitored runs of insecure plans COMPLETE (nothing blocks) *)
  let t =
    Simulate.run ~monitored:false repo
      (Network.initial
         ~plan:(Plan.of_list [ (1, "br"); (3, "s1") ])
         [ ("c1", Scenarios.Hotel.client1) ])
      (Simulate.random ~seed:3)
  in
  Alcotest.(check bool) "completes unmonitored" true
    (t.Simulate.outcome = Simulate.Completed)

let test_monitored_vs_unmonitored_agree_when_valid () =
  (* under a valid plan the two modes generate identical traces *)
  List.iter
    (fun seed ->
      let mk () =
        Network.initial ~plan:plan1 [ ("c1", Scenarios.Hotel.client1) ]
      in
      let tm = Simulate.run repo (mk ()) (Simulate.random ~seed) in
      let tu = Simulate.run ~monitored:false repo (mk ()) (Simulate.random ~seed) in
      let labels t =
        List.map (fun (g, _) -> Fmt.str "%a" Network.pp_glabel g) t.Simulate.steps
      in
      Alcotest.(check (list string))
        (Fmt.str "seed %d" seed)
        (labels tm) (labels tu))
    seeds

let suite =
  suite
  @ [
      Alcotest.test_case "monitor off, valid plan (E9)" `Quick
        test_monitor_off_valid_plan;
      Alcotest.test_case "monitor off, invalid plan (E9)" `Quick
        test_monitor_off_invalid_plan;
      Alcotest.test_case "modes agree under valid plans (E9)" `Quick
        test_monitored_vs_unmonitored_agree_when_valid;
    ]
