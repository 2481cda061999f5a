(* The fault-tolerant runtime (lib/runtime): zero-fault identity with
   the plain simulator, monitored recovery, compliant failover. *)

open Core
module Faults = Runtime.Faults

let repo = Syntax.Spec.repo Fixture.redundant
let client = ("c1", Fixture.(client redundant "c1"))
let plan = Fixture.(plan redundant "pi1")

let outcome = Alcotest.testable Simulate.pp_outcome ( = )

let histories_valid cfg =
  List.for_all
    (fun c -> Validity.valid (Validity.Monitor.history c.Network.monitor))
    cfg

(* -- zero faults: observationally identical to Simulate.run -------- *)

let same_trace (a : Simulate.trace) (b : Simulate.trace) =
  a.outcome = b.outcome
  && List.length a.steps = List.length b.steps
  && List.for_all2
       (fun (g1, _) (g2, _) -> Network.glabel_equal g1 g2)
       a.steps b.steps

let test_zero_fault_identity_hotel () =
  let clients =
    [ (plan, client); (Scenarios.Hotel.plan2_s4, ("c2", Scenarios.Hotel.client2)) ]
  in
  for seed = 1 to 25 do
    let plain =
      Simulate.run repo (Network.initial_vector clients) (Simulate.random ~seed)
    in
    let r = Runtime.Engine.run repo clients (Simulate.random ~seed) in
    Alcotest.(check bool)
      (Printf.sprintf "identical trace, seed %d" seed)
      true
      (same_trace plain r.Runtime.Engine.trace);
    Alcotest.(check int) "no faults injected" 0 r.Runtime.Engine.faults_injected
  done

let prop_zero_fault_identity =
  QCheck.Test.make ~count:50 ~name:"zero faults: engine == plain simulator"
    (QCheck.pair Testkit.Generators.hexpr_arb Testkit.Generators.hexpr_arb)
    (fun (h1, h2) ->
      let clients = [ (Plan.empty, ("l1", h1)); (Plan.empty, ("l2", h2)) ] in
      List.for_all
        (fun seed ->
          let plain =
            Simulate.run ~max_steps:200 []
              (Network.initial_vector clients)
              (Simulate.random ~seed)
          in
          let r =
            Runtime.Engine.run ~max_steps:200 [] clients (Simulate.random ~seed)
          in
          same_trace plain r.Runtime.Engine.trace)
        [ 1; 2; 3 ])

(* -- recovery never bypasses the monitor --------------------------- *)

let chaos_spec =
  [
    Faults.rate 0.04 (Faults.Crash "s3");
    Faults.rate 0.02 (Faults.Crash "s3b");
    Faults.rate 0.05 (Faults.Drop "idc");
    Faults.rate 0.03 (Faults.Delay ("req", 3));
    Faults.rate 0.05 (Faults.Violate "s1");
  ]

let test_faulty_histories_valid () =
  for seed = 1 to 40 do
    let r =
      Runtime.Engine.run ~faults:chaos_spec ~seed repo [ (plan, client) ]
        (Simulate.random ~seed)
    in
    Alcotest.(check bool)
      (Printf.sprintf "final histories valid, seed %d" seed)
      true
      (histories_valid r.Runtime.Engine.trace.Simulate.final);
    List.iter
      (fun (_, cfg) ->
        Alcotest.(check bool) "intermediate histories valid" true
          (histories_valid cfg))
      r.Runtime.Engine.trace.Simulate.steps
  done

(* -- failover only re-binds to Discovery-usable locations ---------- *)

let rebounds r =
  List.filter_map
    (fun (_, ev) ->
      match ev with
      | Runtime.Engine.Recovery (Runtime.Engine.Rebound { rid; to_; _ }) ->
          Some (rid, to_)
      | _ -> None)
    r.Runtime.Engine.events

let test_rebinds_are_usable () =
  let usable = Discovery.usable repo ~body:Scenarios.Hotel.broker_request_body in
  for k = 0 to 12 do
    let r =
      Runtime.Engine.run
        ~faults:[ Faults.at k (Faults.Crash "s3") ]
        repo [ (plan, client) ] Simulate.first
    in
    List.iter
      (fun (rid, to_) ->
        Alcotest.(check int) "request 3 re-bound" 3 rid;
        Alcotest.(check bool)
          (Printf.sprintf "rebind target %s usable (crash at %d)" to_ k)
          true (List.mem to_ usable))
      (rebounds r)
  done

(* -- the acceptance scenario: crash the bound hotel ---------------- *)

let test_failover_completes () =
  let r =
    Runtime.Engine.run
      ~faults:[ Faults.at 4 (Faults.Crash "s3") ]
      repo [ (plan, client) ] Simulate.first
  in
  Alcotest.check outcome "completed despite the crash" Simulate.Completed
    r.Runtime.Engine.trace.Simulate.outcome;
  Alcotest.(check (list (pair int string)))
    "re-bound request 3 to the standby" [ (3, "s3b") ] (rebounds r);
  Alcotest.(check bool) "history still valid" true
    (histories_valid r.Runtime.Engine.trace.Simulate.final);
  Alcotest.(check bool) "at least one retry" true (r.Runtime.Engine.retries >= 1)

let test_no_substitute_degrades () =
  let r =
    Runtime.Engine.run
      ~faults:[ Faults.at 4 (Faults.Crash "s3") ]
      (List.remove_assoc "s3b" repo)
      [ (plan, client) ] Simulate.first
  in
  (match r.Runtime.Engine.trace.Simulate.outcome with
  | Simulate.Degraded { abandoned = [ ("c1", _) ]; _ } -> ()
  | o ->
      Alcotest.failf "expected c1 abandoned in a Degraded outcome, got %a"
        Simulate.pp_outcome o);
  Alcotest.(check bool) "history still valid" true
    (histories_valid r.Runtime.Engine.trace.Simulate.final)

let test_retry_budget_zero_degrades () =
  let supervisor = { Runtime.Supervisor.default with max_retries = 0 } in
  let r =
    Runtime.Engine.run ~supervisor
      ~faults:[ Faults.at 4 (Faults.Crash "s3") ]
      repo [ (plan, client) ] Simulate.first
  in
  match r.Runtime.Engine.trace.Simulate.outcome with
  | Simulate.Degraded _ -> ()
  | o -> Alcotest.failf "expected Degraded with 0 retries, got %a" Simulate.pp_outcome o

(* -- reversible sessions: wedges retract under affectible ---------- *)

(* The loose scenario: the statically-loosened [avail] branch wedges at
   run time (the client pays a fee nobody collects), the [noav] branch
   completes. Branch labels sort alphabetically, so [Simulate.first]
   always drives the service into [avail]. *)
let loose_repo = Fixture.(services loose [ "ls" ])

let loose_clients =
  [ (Fixture.(plan loose "loose"), ("c", Fixture.(client loose "c"))) ]

let test_wedge_strict_is_stuck () =
  let r = Runtime.Engine.run loose_repo loose_clients Simulate.first in
  (match r.Runtime.Engine.trace.Simulate.outcome with
  | Simulate.Stuck _ -> ()
  | o ->
      Alcotest.failf "expected Stuck under strict admission, got %a"
        Simulate.pp_outcome o);
  Alcotest.(check int) "strict never retracts" 0 r.Runtime.Engine.rollbacks

let test_wedge_budget_bounds_retraction () =
  (* every retry wedges again, so the retraction budget is spent to the
     last slot and the client degrades — never a hard [Stuck]. The
     supervisor is loosened so the retraction budget, not the circuit
     breaker, is the binding constraint. *)
  let supervisor =
    { Runtime.Supervisor.default with max_retries = 10; breaker_threshold = 10 }
  in
  let r =
    Runtime.Engine.run ~supervisor ~level:Compliance.Affectible
      loose_repo loose_clients Simulate.first
  in
  (match r.Runtime.Engine.trace.Simulate.outcome with
  | Simulate.Degraded { abandoned = [ ("c", why) ]; _ } ->
      Alcotest.(check bool)
        (Fmt.str "abandoned for the retraction budget (got %S)" why)
        true
        (Astring.String.is_infix ~affix:"retraction budget exhausted" why)
  | o ->
      Alcotest.failf "expected Degraded once the budget is spent, got %a"
        Simulate.pp_outcome o);
  Alcotest.(check int) "default budget fully spent" 3
    r.Runtime.Engine.rollbacks;
  Alcotest.(check bool) "history still valid" true
    (histories_valid r.Runtime.Engine.trace.Simulate.final)

let test_wedge_zero_budget_degrades_immediately () =
  let r =
    Runtime.Engine.run ~level:Compliance.Affectible ~retraction_budget:0
      loose_repo loose_clients Simulate.first
  in
  (match r.Runtime.Engine.trace.Simulate.outcome with
  | Simulate.Degraded _ -> ()
  | o ->
      Alcotest.failf "expected Degraded with budget 0, got %a"
        Simulate.pp_outcome o);
  Alcotest.(check int) "no retraction performed" 0 r.Runtime.Engine.rollbacks

let test_wedge_affectible_never_hard_fails () =
  (* the acceptance sweep: random schedulers, seeded faults on the
     session's channels — under affectible admission a retractable
     session never ends in a hard failure, and some runs complete
     precisely because a wedge was rolled back *)
  let completed_after_rollback = ref 0 and total_rollbacks = ref 0 in
  for seed = 1 to 40 do
    let faults =
      [ Faults.rate 0.05 (Faults.Drop "req"); Faults.rate 0.05 (Faults.Delay ("fee", 2)) ]
    in
    let r =
      Runtime.Engine.run ~level:Compliance.Affectible ~faults ~seed
        loose_repo loose_clients (Simulate.random ~seed)
    in
    total_rollbacks := !total_rollbacks + r.Runtime.Engine.rollbacks;
    (match r.Runtime.Engine.trace.Simulate.outcome with
    | Simulate.Stuck _ ->
        Alcotest.failf "seed %d: hard failure under affectible admission" seed
    | Simulate.Completed ->
        if r.Runtime.Engine.rollbacks > 0 then incr completed_after_rollback
    | Simulate.Degraded _ | Simulate.Out_of_fuel | Simulate.Stopped -> ());
    Alcotest.(check bool)
      (Printf.sprintf "histories valid, seed %d" seed)
      true
      (histories_valid r.Runtime.Engine.trace.Simulate.final)
  done;
  Alcotest.(check bool) "wedges were actually retracted" true
    (!total_rollbacks > 0);
  Alcotest.(check bool) "some runs complete only thanks to a rollback" true
    (!completed_after_rollback > 0)

(* -- fault spec parsing -------------------------------------------- *)

let test_parse_spec () =
  (match Faults.parse "crash:s3@4, drop:idc@p0.5, delay:req:3@2, violate:s1@p0.1" with
  | Ok fs -> Alcotest.(check int) "four faults" 4 (List.length fs)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Faults.parse bad with
      | Ok _ -> Alcotest.failf "accepted bad spec %S" bad
      | Error _ -> ())
    [ "crash:s3"; "boom:s3@4"; "crash:@1"; "crash:s3@p1.5"; "delay:req:0@1" ]

let test_parse_roundtrip () =
  let spec =
    [
      Faults.at 4 (Faults.Crash "s3");
      Faults.rate 0.25 (Faults.Drop "idc");
      Faults.at 0 (Faults.Delay ("req", 3));
    ]
  in
  let printed = Fmt.str "%a" Fmt.(list ~sep:(any ",") Faults.pp_fault) spec in
  match Faults.parse printed with
  | Ok spec' ->
      Alcotest.(check string) "round-trips" printed
        (Fmt.str "%a" Fmt.(list ~sep:(any ",") Faults.pp_fault) spec')
  | Error e -> Alcotest.fail e

(* -- supervisor plumbing ------------------------------------------- *)

let test_breaker () =
  let b = Runtime.Supervisor.breaker () in
  let config = { Runtime.Supervisor.default with breaker_threshold = 2 } in
  Alcotest.(check bool) "closed" false
    (Runtime.Supervisor.tripped b config ~client:"c1" ~loc:"s3");
  Runtime.Supervisor.record_failure b ~client:"c1" ~loc:"s3";
  Runtime.Supervisor.record_failure b ~client:"c1" ~loc:"s3";
  Alcotest.(check bool) "tripped at threshold" true
    (Runtime.Supervisor.tripped b config ~client:"c1" ~loc:"s3");
  Alcotest.(check bool) "per-client" false
    (Runtime.Supervisor.tripped b config ~client:"c2" ~loc:"s3")

let test_determinism () =
  let run () =
    Runtime.Engine.run ~faults:chaos_spec ~seed:7 repo [ (plan, client) ]
      (Simulate.random ~seed:7)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same trace" true
    (same_trace a.Runtime.Engine.trace b.Runtime.Engine.trace);
  Alcotest.(check int) "same fault count" a.Runtime.Engine.faults_injected
    b.Runtime.Engine.faults_injected

(* B5: the degraded-mode outcome mix. The loose scenario wedges whenever
   the scheduler takes [avail]; over the same 100 seeded runs with a 5%
   drop rate on [req], strict admission leaves those runs stuck, while
   affectible admission retracts each wedge to the [open] checkpoint,
   never hard-fails, and completes more runs. *)
let test_loose_outcome_mix () =
  let sweep level =
    let completed = ref 0 and stuck = ref 0 and rollbacks = ref 0 in
    for seed = 1 to 100 do
      let r =
        Runtime.Engine.run ~level
          ~faults:[ Faults.rate 0.05 (Faults.Drop "req") ]
          ~seed loose_repo loose_clients (Simulate.random ~seed)
      in
      rollbacks := !rollbacks + r.Runtime.Engine.rollbacks;
      match r.Runtime.Engine.trace.Simulate.outcome with
      | Simulate.Completed -> incr completed
      | Simulate.Stuck _ -> incr stuck
      | Simulate.Degraded _ | Simulate.Out_of_fuel | Simulate.Stopped -> ()
    done;
    (!completed, !stuck, !rollbacks)
  in
  let strict_completed, _, _ = sweep Compliance.Strict in
  let completed, stuck, rollbacks = sweep Compliance.Affectible in
  Alcotest.(check int) "no hard failure under affectible admission" 0 stuck;
  Alcotest.(check bool) "wedges were retracted" true (rollbacks > 0);
  Alcotest.(check bool)
    (Fmt.str "retraction completes more runs (%d vs %d strict)" completed
       strict_completed)
    true
    (completed > strict_completed)

let suite =
  [
    Alcotest.test_case "zero faults: hotel identity" `Quick
      test_zero_fault_identity_hotel;
    QCheck_alcotest.to_alcotest prop_zero_fault_identity;
    Alcotest.test_case "faulty runs stay valid" `Quick
      test_faulty_histories_valid;
    Alcotest.test_case "rebinds are usable" `Quick test_rebinds_are_usable;
    Alcotest.test_case "crashed hotel fails over to s3b" `Quick
      test_failover_completes;
    Alcotest.test_case "no substitute: degraded, not stuck" `Quick
      test_no_substitute_degrades;
    Alcotest.test_case "retry budget 0 degrades" `Quick
      test_retry_budget_zero_degrades;
    Alcotest.test_case "wedged session: strict is stuck" `Quick
      test_wedge_strict_is_stuck;
    Alcotest.test_case "retraction budget bounds rollbacks, then degrades"
      `Quick test_wedge_budget_bounds_retraction;
    Alcotest.test_case "retraction budget 0 degrades immediately" `Quick
      test_wedge_zero_budget_degrades_immediately;
    Alcotest.test_case "affectible sessions never hard-fail under faults"
      `Quick test_wedge_affectible_never_hard_fails;
    Alcotest.test_case "fault spec parsing" `Quick test_parse_spec;
    Alcotest.test_case "fault spec round-trip" `Quick test_parse_roundtrip;
    Alcotest.test_case "circuit breaker" `Quick test_breaker;
    Alcotest.test_case "seeded runs are reproducible" `Quick test_determinism;
    Alcotest.test_case "loose scenario outcome mix (B5)" `Quick
      test_loose_outcome_mix;
  ]
