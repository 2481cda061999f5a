(* Benchmark and reproduction harness.

   The paper is a theory paper without quantitative tables, so the
   harness has two halves (see DESIGN.md §3 and EXPERIMENTS.md):

   - experiments E1–E8 re-derive every figure and checkable claim of the
     paper and print the obtained result next to the expected one;
   - benches B1–B4 measure the decision procedures on synthetic
     workloads of growing size (the shape — linear/quadratic growth,
     who dominates — is the reproducible part).

   Usage: [main.exe] runs everything; [main.exe e3 b1 …] selects.
   [--quick] shrinks iteration counts for CI smoke runs; [--json FILE]
   writes a machine-readable timing/metrics snapshot per experiment
   (refusing to overwrite an existing baseline unless [--force]);
   [--seed N] shifts every seeded random stream (the default keeps the
   historical per-experiment streams, so runs are byte-reproducible). *)

open Core

let pf = Format.printf

(* CI smoke mode: same experiments, reduced iteration counts. *)
let quick = ref false

let scaled n = if !quick then max 1 (n / 10) else n

(* Every randomised experiment draws from Testkit.Rng, offset so the
   default [--seed] reproduces each experiment's historical stream. *)
let seed = ref Testkit.Rng.default_seed

let rng_at offset =
  Testkit.Rng.make ~seed:(!seed - Testkit.Rng.default_seed + offset) ()

let section name = pf "@.==== %s ====@." name

(* Every MISMATCH is counted: a run that printed one exits 1. *)
let mismatches = ref 0

let check_line ~expected ~got label =
  let ok = String.equal expected got in
  if not ok then incr mismatches;
  pf "  %-58s expected: %-14s got: %-14s %s@." label expected got
    (if ok then "OK" else "MISMATCH")

(* ------------------------------------------------------------------ *)
(* E1 — Fig. 1: the usage automaton φ(bl,p,t) *)

let e1 () =
  section "E1 (Fig. 1): usage automaton phi(bl,p,t)";
  let trace name p t =
    [
      Usage.Event.make ~arg:(Usage.Value.str name) "sgn";
      Usage.Event.make ~arg:(Usage.Value.int p) "price";
      Usage.Event.make ~arg:(Usage.Value.int t) "rating";
    ]
  in
  let cases =
    (* hotel, price, rating, expected under phi1, expected under phi2 *)
    [
      ("s1", 45, 80, false, false);
      ("s2", 70, 100, true, true);
      ("s3", 90, 100, true, false);
      ("s4", 50, 90, false, true);
    ]
  in
  List.iter
    (fun (h, p, t, exp1, exp2) ->
      let got1 = Usage.Policy.respects Scenarios.Hotel.phi1 (trace h p t) in
      let got2 = Usage.Policy.respects Scenarios.Hotel.phi2 (trace h p t) in
      check_line
        ~expected:(string_of_bool exp1)
        ~got:(string_of_bool got1)
        (Printf.sprintf "%s respects phi({s1},45,100)" h);
      check_line
        ~expected:(string_of_bool exp2)
        ~got:(string_of_bool got2)
        (Printf.sprintf "%s respects phi({s1,s3},40,70)" h))
    cases

(* ------------------------------------------------------------------ *)
(* E2 — §2: compliance of the hotels with the broker *)

let e2 () =
  section "E2 (§2): compliance with the broker (Theorem 1)";
  let body = Contract.project Scenarios.Hotel.broker_request_body in
  List.iter
    (fun (loc, expected) ->
      let server = Contract.project (List.assoc loc Scenarios.Hotel.hotels) in
      let got = Product.compliant body server in
      let ref_got = Compliance.compliant body server in
      check_line ~expected:(string_of_bool expected) ~got:(string_of_bool got)
        (Printf.sprintf "Br |- %s (product automaton)" loc);
      check_line ~expected:(string_of_bool expected)
        ~got:(string_of_bool ref_got)
        (Printf.sprintf "Br |- %s (Definition 4)" loc))
    [ ("s1", true); ("s2", false); ("s3", true); ("s4", true) ]

(* ------------------------------------------------------------------ *)
(* E3 — §2: security of the hotels against the clients' policies *)

let e3 () =
  section "E3 (§2): hotels against the clients' policies";
  (* a hotel H respects φ iff φ[H] is statically valid: every trace of
     events H may fire, in order, satisfies φ *)
  let respects phi h =
    Result.is_ok (Validity.check_expr (Hexpr.frame phi h))
  in
  List.iter
    (fun (loc, exp1, exp2) ->
      let h = List.assoc loc Scenarios.Hotel.hotels in
      check_line ~expected:(string_of_bool exp1)
        ~got:(string_of_bool (respects Scenarios.Hotel.phi1 h))
        (Printf.sprintf "%s under phi1 (client C1)" loc);
      check_line ~expected:(string_of_bool exp2)
        ~got:(string_of_bool (respects Scenarios.Hotel.phi2 h))
        (Printf.sprintf "%s under phi2 (client C2)" loc))
    [
      ("s1", false, false);
      ("s2", true, true);
      ("s3", true, false);
      ("s4", false, true);
    ]

(* ------------------------------------------------------------------ *)
(* E4 — §2/§5: valid plans *)

let e4 () =
  section "E4 (§2, §5): plan validity";
  let verdict client plan =
    match Planner.(analyze Scenarios.Hotel.repo ~client plan).verdict with
    | Ok _ -> "valid"
    | Error (Planner.Not_compliant _) -> "not-compliant"
    | Error (Planner.Insecure _) -> "insecure"
    | Error (Planner.Unserved _) -> "unserved"
  | Error (Planner.Outside_fragment _) -> "outside-fragment"
  in
  let c1 = ("c1", Scenarios.Hotel.client1) in
  let c2 = ("c2", Scenarios.Hotel.client2) in
  check_line ~expected:"valid" ~got:(verdict c1 Scenarios.Hotel.plan1)
    "pi1 = {1[br],3[s3]} for C1 (the paper's valid plan)";
  check_line ~expected:"insecure"
    ~got:(verdict c1 (Plan.of_list [ (1, "br"); (3, "s1") ]))
    "{1[br],3[s1]} for C1 (s1 black-listed)";
  check_line ~expected:"not-compliant"
    ~got:(verdict c1 (Plan.of_list [ (1, "br"); (3, "s2") ]))
    "{1[br],3[s2]} for C1 (Del unhandled)";
  check_line ~expected:"insecure"
    ~got:(verdict c1 (Plan.of_list [ (1, "br"); (3, "s4") ]))
    "{1[br],3[s4]} for C1 (price/rating thresholds)";
  check_line ~expected:"not-compliant"
    ~got:(verdict c2 Scenarios.Hotel.plan2_s2)
    "{2[br],3[s2]} for C2 (paper: not valid, Del)";
  check_line ~expected:"insecure" ~got:(verdict c2 Scenarios.Hotel.plan2_s3)
    "{2[br],3[s3]} for C2 (paper: not valid, black list)";
  check_line ~expected:"valid" ~got:(verdict c2 Scenarios.Hotel.plan2_s4)
    "{2[br],3[s4]} for C2";
  let count client =
    List.length (Planner.valid_plans ~all:false Scenarios.Hotel.repo ~client)
  in
  check_line ~expected:"1" ~got:(string_of_int (count c1))
    "number of valid plans for C1";
  check_line ~expected:"1" ~got:(string_of_int (count c2))
    "number of valid plans for C2"

(* ------------------------------------------------------------------ *)
(* E5 — Fig. 3: the computation fragment *)

let e5 () =
  section "E5 (Fig. 3): replaying the computation";
  let is_sync a = function
    | Network.L_sync (_, _, b) -> String.equal a b
    | _ -> false
  in
  let is_open r = function
    | Network.L_open (q, _, _) -> q.Hexpr.rid = r
    | _ -> false
  in
  let is_close r = function
    | Network.L_close (q, _) -> q.Hexpr.rid = r
    | _ -> false
  in
  let is_ev n = function
    | Network.L_event (_, e) -> String.equal e.Usage.Event.name n
    | _ -> false
  in
  let script =
    [
      is_open 1; is_sync "req"; is_open 3; is_ev "sgn"; is_ev "price";
      is_ev "rating"; is_sync "idc"; is_sync "una"; is_close 3;
      is_sync "noav"; is_close 1;
    ]
  in
  let cfg =
    Network.initial ~plan:Scenarios.Hotel.plan1
      [ ("c1", Scenarios.Hotel.client1) ]
  in
  let t = Simulate.run Scenarios.Hotel.repo cfg (Simulate.script script) in
  check_line ~expected:"completed"
    ~got:(Fmt.str "%a" Simulate.pp_outcome t.Simulate.outcome)
    "the scripted Fig. 3 interleaving runs to completion";
  check_line ~expected:"11" ~got:(string_of_int (List.length t.Simulate.steps))
    "number of transitions";
  match t.Simulate.final with
  | [ c ] ->
      check_line
        ~expected:
          "[phi({s1},45,100) sgn(s3) price(90) rating(100) phi({s1},45,100)]"
        ~got:
          (Fmt.str "%a" History.pp (Validity.Monitor.history c.Network.monitor))
        "final history of C1"
  | _ -> pf "  unexpected final configuration@."

(* ------------------------------------------------------------------ *)
(* E6/E7 — Theorems 1 and 2 on random contracts *)

let e6_e7 () =
  section "E6/E7 (Theorems 1, 2): agreement of the decision procedures";
  let st = rng_at 2013 in
  let n = scaled 2000 in
  let agree = ref 0 and compliant_count = ref 0 in
  for _ = 1 to n do
    let c = QCheck.Gen.generate1 ~rand:st Testkit.Generators.contract_gen in
    let s = QCheck.Gen.generate1 ~rand:st Testkit.Generators.contract_gen in
    let d4 = Compliance.compliant c s in
    let d5 = Product.compliant c s in
    if d4 = d5 then incr agree;
    if d5 then incr compliant_count
  done;
  check_line ~expected:(string_of_int n) ~got:(string_of_int !agree)
    (Printf.sprintf "Def.4 = product emptiness on %d random pairs" n);
  pf "  (%d of %d random pairs compliant)@." !compliant_count n

(* ------------------------------------------------------------------ *)
(* E8 — §3.1: BPA model checking vs direct exploration *)

let e8 () =
  section "E8 (§3.1): BPA validity vs direct exploration";
  let st = rng_at 42 in
  let n = scaled 1000 in
  let agree = ref 0 and valid_count = ref 0 in
  for _ = 1 to n do
    let h = QCheck.Gen.generate1 ~rand:st Testkit.Generators.hexpr_gen in
    let direct = Result.is_ok (Validity.check_expr h) in
    let bpa = Result.is_ok (Bpa.Check.valid h) in
    if direct = bpa then incr agree;
    if direct then incr valid_count
  done;
  check_line ~expected:(string_of_int n) ~got:(string_of_int !agree)
    (Printf.sprintf "agreement on %d random expressions" n);
  pf "  (%d of %d random expressions valid)@." !valid_count n;
  let hotel_ok =
    List.for_all
      (fun (_, h) -> Result.is_ok (Bpa.Check.valid h))
      (("c1", Scenarios.Hotel.client1) :: Scenarios.Hotel.repo)
  in
  check_line ~expected:"true" ~got:(string_of_bool hotel_ok)
    "every §2 service is valid in isolation"

(* ------------------------------------------------------------------ *)
(* E9 — §5: switch off the monitor after static validation *)

let e9 () =
  section "E9 (§5): no run-time monitor needed for valid plans";
  let runs = scaled 100 in
  let all_valid ~monitored plan client =
    List.for_all
      (fun seed ->
        let cfg = Network.initial_vector [ (plan, client) ] in
        let t = Simulate.run ~monitored Scenarios.Hotel.repo cfg (Simulate.random ~seed) in
        List.for_all
          (fun c -> Validity.valid (Validity.Monitor.history c.Network.monitor))
          t.Simulate.final)
      (List.init runs (fun i -> i + 1))
  in
  check_line ~expected:"true"
    ~got:(string_of_bool
            (all_valid ~monitored:false Scenarios.Hotel.plan1
               ("c1", Scenarios.Hotel.client1)))
    (Printf.sprintf "%d unmonitored runs of pi1: all histories valid" runs);
  check_line ~expected:"true"
    ~got:(string_of_bool
            (all_valid ~monitored:false Scenarios.Hotel.plan2_s4
               ("c2", Scenarios.Hotel.client2)))
    (Printf.sprintf "%d unmonitored runs of {2[br],3[s4]}: all histories valid" runs);
  check_line ~expected:"false"
    ~got:(string_of_bool
            (all_valid ~monitored:false
               (Plan.of_list [ (1, "br"); (3, "s1") ])
               ("c1", Scenarios.Hotel.client1)))
    "unmonitored runs of the black-listed plan stay valid"

(* ------------------------------------------------------------------ *)
(* Synthetic workload generators for the scaling benches *)

(* A ping-pong protocol of [n] rounds: client sends msg, awaits ack. *)
let rec ping n =
  if n = 0 then Hexpr.nil
  else Hexpr.select [ ("msg", Hexpr.branch [ ("ack", ping (n - 1)) ]) ]

let rec pong n =
  if n = 0 then Hexpr.nil
  else Hexpr.branch [ ("msg", Hexpr.select [ ("ack", pong (n - 1)) ]) ]

(* A wide choice: the client may select any of [n] channels. *)
let wide_client n =
  Hexpr.select (List.init n (fun i -> (Printf.sprintf "c%d" i, Hexpr.nil)))

let wide_server n =
  Hexpr.branch (List.init n (fun i -> (Printf.sprintf "c%d" i, Hexpr.nil)))

(* Repository with [k] hotels (fresh names, all compliant and cheap). *)
let scaled_repo k =
  ("br", Scenarios.Hotel.broker)
  :: List.init k (fun i ->
         ( Printf.sprintf "h%d" i,
           Scenarios.Hotel.hotel
             (Printf.sprintf "h%d" i)
             ~price:(40 + i) ~rating:100 ~extra:[] ))

(* Histories of [n] events under an active counting policy. *)
let history_of_length n =
  History.Op (Usage.Policy_lib.instantiate0 (Usage.Policy_lib.at_most ~n "x"))
  :: List.init n (fun _ -> History.Ev (Usage.Event.make "x"))

let b1_shape () =
  section "B1: product-automaton size vs contract size (shape: linear)";
  pf "  %8s %12s %12s %10s@." "rounds n" "states" "transitions" "compliant";
  List.iter
    (fun n ->
      let c = Contract.project (ping n) and s = Contract.project (pong n) in
      let p = Product.build c s in
      pf "  %8d %12d %12d %10b@." n
        (List.length p.Product.states)
        (List.length p.Product.delta)
        (Product.language_empty p))
    [ 1; 2; 4; 8; 16; 32; 64 ];
  pf "  %8s %12s %12s %10s@." "width n" "states" "transitions" "compliant";
  List.iter
    (fun n ->
      let c = Contract.project (wide_client n)
      and s = Contract.project (wide_server n) in
      let p = Product.build c s in
      pf "  %8d %12d %12d %10b@." n
        (List.length p.Product.states)
        (List.length p.Product.delta)
        (Product.language_empty p))
    [ 1; 2; 4; 8; 16; 32; 64 ]

let b2_shape () =
  section "B2: plan synthesis vs repository size (shape: quadratic plans)";
  pf "  %8s %8s %12s %12s@." "hotels k" "plans" "valid" "sites";
  List.iter
    (fun k ->
      let repo = scaled_repo k in
      let client = ("c1", Scenarios.Hotel.client1) in
      let plans = Planner.enumerate repo ~client in
      let valid = Planner.valid_plans ~all:false repo ~client in
      pf "  %8d %8d %12d %12d@." k (List.length plans) (List.length valid)
        (List.length (Planner.sites repo client)))
    [ 1; 2; 4; 8; 16 ]

let b3_shape () =
  section "B3: validity checking vs history length (shape: linear)";
  pf "  %8s %10s@." "events n" "valid";
  List.iter
    (fun n ->
      let h = history_of_length n in
      pf "  %8d %10b@." n (Result.is_ok (Validity.check h)))
    [ 10; 100; 1000; 10000 ]

let b4_shape () =
  section
    "B4: interleaved state space vs number of clients (shape: exponential)";
  pf "  %8s %10s %12s@." "clients" "states" "transitions";
  List.iter
    (fun k ->
      let clients =
        List.init k (fun i ->
            ( Scenarios.Hotel.plan1,
              (Printf.sprintf "c%d" i, Scenarios.Hotel.client1) ))
      in
      let s = Netcheck.explore_interleaved Scenarios.Hotel.repo clients in
      pf "  %8d %10d %12d@." k s.Netcheck.states s.Netcheck.transitions)
    (if !quick then [ 1; 2 ] else [ 1; 2; 3 ])

(* B5 — recovery overhead and success rate of the fault-tolerant
   runtime: the redundant-hotels scenario under a per-step crash
   probability for the bound hotel, 100 seeded runs per rate. *)
let b5_recovery () =
  section "B5: runtime recovery vs fault rate (redundant hotels)";
  let clients = [ (Scenarios.Redundant.plan, Scenarios.Redundant.client) ] in
  let runs = scaled 100 in
  let measure repo rate =
    let faults =
      if rate = 0.0 then []
      else [ Runtime.Faults.rate rate (Runtime.Faults.Crash "s3") ]
    in
    let completed = ref 0
    and degraded = ref 0
    and steps = ref 0
    and retries = ref 0
    and rebinds = ref 0 in
    for seed = 1 to runs do
      let r =
        Runtime.Engine.run ~faults ~seed repo clients
          (Simulate.random ~seed)
      in
      if Runtime.Engine.completed r then incr completed;
      (match r.Runtime.Engine.trace.Simulate.outcome with
      | Simulate.Degraded _ -> incr degraded
      | _ -> ());
      steps := !steps + List.length r.Runtime.Engine.trace.Simulate.steps;
      retries := !retries + r.Runtime.Engine.retries;
      rebinds := !rebinds + r.Runtime.Engine.rebinds
    done;
    (float_of_int !steps /. float_of_int runs, !completed, !degraded, !retries, !rebinds)
  in
  let table label repo =
    let base_steps, _, _, _, _ = measure repo 0.0 in
    pf "  %s@." label;
    pf "  %-10s %9s %9s %10s %8s %8s %10s@." "fault rate" "success" "degraded"
      "avg steps" "retries" "rebinds" "overhead";
    List.iter
      (fun rate ->
        let avg, completed, degraded, retries, rebinds = measure repo rate in
        pf "  %-10g %8d%% %8d%% %10.1f %8d %8d %+9.1f%%@." rate completed
          degraded avg retries rebinds
          ((avg -. base_steps) /. base_steps *. 100.0))
      [ 0.0; 0.01; 0.1 ]
  in
  table "with the standby s3b (failover available):" Scenarios.Redundant.repo;
  table "without the standby (no compliant substitute):"
    Scenarios.Redundant.repo_no_backup;
  pf "  (every completed run under faults re-planned through compliant@.";
  pf "   substitutes only; degraded runs abandoned the session cleanly.)@.";
  (* Degraded-mode outcome mix: the loose scenario wedges whenever the
     scheduler takes [avail]. Strict admission reports those runs as
     hard failures; affectible admission retracts the wedge back to the
     [open] checkpoint and retries, so no run may end [Stuck]. *)
  let sweep level =
    let completed = ref 0
    and degraded = ref 0
    and stuck = ref 0
    and rollbacks = ref 0 in
    let loose_clients =
      [ (Scenarios.Loose.plan, ("c", Scenarios.Loose.client)) ]
    in
    for seed = 1 to runs do
      let faults = [ Runtime.Faults.rate 0.05 (Runtime.Faults.Drop "req") ] in
      let r =
        Runtime.Engine.run ~level ~faults ~seed Scenarios.Loose.repo
          loose_clients
          (Simulate.random ~seed)
      in
      rollbacks := !rollbacks + r.Runtime.Engine.rollbacks;
      match r.Runtime.Engine.trace.Simulate.outcome with
      | Simulate.Completed -> incr completed
      | Simulate.Degraded _ -> incr degraded
      | Simulate.Stuck _ -> incr stuck
      | Simulate.Out_of_fuel | Simulate.Stopped -> ()
    done;
    (!completed, !degraded, !stuck, !rollbacks)
  in
  pf "  degraded-mode outcome mix (loose scenario, %d seeded runs):@." runs;
  pf "  %-12s %9s %9s %7s %9s@." "level" "completed" "degraded" "stuck"
    "rollbacks";
  let strict_c, strict_d, strict_s, strict_r = sweep Core.Compliance.Strict in
  pf "  %-12s %9d %9d %7d %9d@." "strict" strict_c strict_d strict_s strict_r;
  let aff_c, aff_d, aff_s, aff_r = sweep Core.Compliance.Affectible in
  pf "  %-12s %9d %9d %7d %9d@." "affectible" aff_c aff_d aff_s aff_r;
  check_line ~expected:"0" ~got:(string_of_int aff_s)
    "no hard failure under affectible admission";
  check_line ~expected:"true"
    ~got:(string_of_bool (aff_r > 0))
    (Printf.sprintf "wedges were retracted (%d rollbacks)" aff_r);
  check_line ~expected:"true"
    ~got:(string_of_bool (aff_c > strict_c))
    (Printf.sprintf "retraction completes more runs (%d vs %d strict)" aff_c
       strict_c);
  Obs.Metrics.set "runtime.degraded.strict.stuck" strict_s;
  Obs.Metrics.set "runtime.degraded.affectible.stuck" aff_s;
  Obs.Metrics.set "runtime.degraded.affectible.completed" aff_c;
  Obs.Metrics.set "runtime.degraded.affectible.rollbacks" aff_r

let b5_ablation () =
  section "B5 (ablation): Definition 4 vs product automaton";
  pf "  both procedures decide the same relation (Theorem 1); the product\n";
  pf "  additionally yields counterexamples. Agreement is checked in E6;\n";
  pf "  timings under t-b5.@."

let b6_ablation () =
  section "B6 (ablation): direct exploration vs BPA model checking";
  (* state counts on a frame-heavy expression family *)
  let rec tower k =
    if k = 0 then Hexpr.ev "x"
    else
      Hexpr.frame
        (Usage.Policy_lib.instantiate0 (Usage.Policy_lib.at_most ~n:k "x"))
        (Hexpr.seq (Hexpr.ev "x") (tower (k - 1)))
  in
  List.iter
    (fun k ->
      let h = tower k in
      let direct = Result.is_ok (Validity.check_expr h) in
      let bpa = Result.is_ok (Bpa.Check.valid h) in
      check_line ~expected:"false" ~got:(string_of_bool direct)
        (Printf.sprintf "direct verdict, %d nested framings" k);
      check_line ~expected:"false" ~got:(string_of_bool bpa)
        (Printf.sprintf "bpa verdict,    %d nested framings" k))
    [ 1; 2; 4; 8 ];
  pf "  (the innermost at-most-1 policy retroactively counts every earlier\n";
  pf "   event, so all towers are invalid; both engines agree; timings t-b6)@."

let b7_ablation () =
  section "B7 (ablation): one conjoined policy vs separate framings";
  let never_list = [ "u"; "v"; "w"; "q" ] in
  let policies =
    List.map (fun e -> Usage.Policy_lib.instantiate0 (Usage.Policy_lib.never e)) never_list
  in
  let trace = List.init 64 (fun i -> Usage.Event.make (Printf.sprintf "e%d" (i mod 7))) in
  let conj = Option.get (Usage.Policy_ops.conj_all policies) in
  let separate = List.for_all (fun p -> Usage.Policy.respects p trace) policies in
  let combined = Usage.Policy.respects conj trace in
  check_line ~expected:(string_of_bool separate) ~got:(string_of_bool combined)
    "conjunction agrees with separate checks";
  pf "  conjoined automaton has %d transitions (timings t-b7)@."
    (List.length (Usage.Policy.A.transitions (Usage.Policy.automaton conj)))

(* B8 — the incremental broker under a churn workload: every served
   verdict must be byte-identical to a cold recomputation on the
   repository as it stood when the request was processed, while the
   dependency-tracked index analyzes far fewer plans than the cold
   planner would. *)
let b8_broker () =
  section "B8: broker churn workload vs cold recomputation";
  let profile =
    {
      (Testkit.Workload.default ~clients:Scenarios.Churn.clients
         ~spares:Scenarios.Churn.spares ~noise:Scenarios.Churn.noise)
      with
      Testkit.Workload.seed = !seed;
    }
  in
  let items, counts = Testkit.Workload.generate profile in
  let submissions =
    List.length
      (List.filter
         (function Broker.Script.Submit _ -> true | _ -> false)
         items)
  in
  let churned = counts.Testkit.Workload.publishes + counts.retracts in
  check_line ~expected:"true"
    ~got:(string_of_bool (submissions >= 200 && churned >= 20))
    (Printf.sprintf "workload floors: %d requests, %d publish/retract"
       submissions churned);
  let broker = Broker.create Scenarios.Churn.repo in
  (* The cold oracle, counting its Planner.analyze calls: what a
     from-scratch planner answers on the broker's current repository. *)
  let oracle_analyzed = ref 0 in
  let oracle_serve repo ~client =
    let rec go = function
      | [] -> Broker.Index.No_plan
      | p :: rest ->
          incr oracle_analyzed;
          let r = Planner.analyze repo ~client p in
          if Result.is_ok r.Planner.verdict then Broker.Index.Valid r
          else go rest
    in
    go (Planner.enumerate repo ~client)
  in
  let compared = ref 0 and mismatches = ref 0 in
  (* Check each serve response right after it is processed, while the
     repository still is the one the broker answered on — mutations
     queued behind the serve have not been applied yet. *)
  let handle (r : Broker.response) =
    match (r.Broker.request, r.Broker.outcome) with
    | ( Broker.Serve { client },
        (Broker.Served _ | Broker.Rejected Broker.No_plan) ) -> (
        match List.assoc_opt client (Broker.clients broker) with
        | None -> ()
        | Some body ->
            incr compared;
            let got =
              match r.Broker.outcome with
              | Broker.Served { report; _ } -> Broker.Index.Valid report
              | _ -> Broker.Index.No_plan
            in
            let expect =
              oracle_serve (Broker.repo broker) ~client:(client, body)
            in
            if not (Broker.verdict_equal got expect) then incr mismatches)
    | _ -> ()
  in
  List.iter
    (function
      | Broker.Script.Submit r -> Option.iter handle (Broker.submit broker r)
      | Broker.Script.Tick -> Option.iter handle (Broker.step broker)
      | Broker.Script.Drain ->
          let rec drain () =
            match Broker.step broker with
            | Some r ->
                handle r;
                drain ()
            | None -> ()
          in
          drain ())
    items;
  let st = Broker.stats broker in
  check_line ~expected:"0" ~got:(string_of_int !mismatches)
    (Printf.sprintf "verdict mismatches vs cold oracle (%d serves compared)"
       !compared);
  let ratio =
    float_of_int !oracle_analyzed /. float_of_int (max 1 st.Broker.analyzed)
  in
  check_line ~expected:"true"
    ~got:(string_of_bool (ratio >= 5.0))
    (Printf.sprintf "broker analyzed %d plans, cold %d (%.1fx fewer)"
       st.Broker.analyzed !oracle_analyzed ratio);
  let pct num den = if den = 0 then 0 else 100 * num / den in
  let hit_pct = pct st.Broker.hits (st.Broker.hits + st.Broker.misses) in
  pf "  hit rate %d%% (%d hits / %d misses), invalidations %d, degraded %d@."
    hit_pct st.Broker.hits st.Broker.misses st.Broker.invalidations
    st.Broker.degraded;
  (* Admission under a burst: shrink the queue and submit without
     draining; everything past the capacity must be shed. *)
  let burst =
    Broker.create
      ~admission:
        {
          Broker.queue_capacity = 4;
          plan_budget = 64;
          floor = Core.Compliance.Strict;
        }
      Scenarios.Churn.repo
  in
  List.iter
    (fun (client, body) ->
      ignore (Broker.process burst (Broker.Open { client; body })))
    Scenarios.Churn.clients;
  let shed = ref 0 in
  for _ = 1 to 12 do
    match Broker.submit burst (Broker.Serve { client = "c1" }) with
    | Some { Broker.outcome = Broker.Rejected Broker.Shed; _ } -> incr shed
    | _ -> ()
  done;
  ignore (Broker.drain burst);
  check_line ~expected:"8" ~got:(string_of_int !shed)
    "burst of 12 serves past queue capacity 4: shed";
  let burst_st = Broker.stats burst in
  let shed_pct = pct burst_st.Broker.shed burst_st.Broker.requests in
  pf "  burst shed rate %d%% (%d of %d requests)@." shed_pct
    burst_st.Broker.shed burst_st.Broker.requests;
  (* Same overload with the admission floor loosened to [Affectible]:
     the degradation ladder rescues full-queue serves at the floor and
     drains the queue down the rungs, so the shed rate must be strictly
     below the strict-only baseline. Every rescued verdict still has to
     match the cold oracle at the level it was answered at. *)
  let loosened =
    Broker.create
      ~admission:
        {
          Broker.queue_capacity = 4;
          plan_budget = 64;
          floor = Core.Compliance.Affectible;
        }
      Scenarios.Churn.repo
  in
  List.iter
    (fun (client, body) ->
      ignore (Broker.process loosened (Broker.Open { client; body })))
    Scenarios.Churn.clients;
  let rescued_mismatches = ref 0 in
  for _ = 1 to 12 do
    match Broker.submit loosened (Broker.Serve { client = "c1" }) with
    | Some { Broker.outcome = Broker.Served { report; level; _ }; _ } -> (
        match List.assoc_opt "c1" (Broker.clients loosened) with
        | None -> ()
        | Some body ->
            let expect =
              Broker.Oracle.serve ~level (Broker.repo loosened)
                ~client:("c1", body)
            in
            if not (Broker.verdict_equal (Broker.Index.Valid report) expect)
            then incr rescued_mismatches)
    | _ -> ()
  done;
  ignore (Broker.drain loosened);
  let loose_st = Broker.stats loosened in
  check_line ~expected:"0" ~got:(string_of_int !rescued_mismatches)
    "rescued verdicts match the cold oracle at their level";
  check_line ~expected:"true"
    ~got:(string_of_bool (loose_st.Broker.shed < burst_st.Broker.shed))
    (Printf.sprintf "affectible floor sheds less: %d vs %d strict-only"
       loose_st.Broker.shed burst_st.Broker.shed);
  pf
    "  outcome mix under affectible floor: strict %d, skip %d, affectible \
     %d, rescued %d, shed %d@."
    loose_st.Broker.served_strict loose_st.Broker.served_skip
    loose_st.Broker.served_affectible loose_st.Broker.rescued
    loose_st.Broker.shed;
  (* Summary gauges for the --json baseline (rates are percentages;
     the raw counters sit next to them in the same snapshot). *)
  Obs.Metrics.set "broker.hit_rate.pct" hit_pct;
  Obs.Metrics.set "broker.shed_rate.pct" shed_pct;
  Obs.Metrics.set "broker.degraded.shed" loose_st.Broker.shed;
  Obs.Metrics.set "broker.degraded.rescued" loose_st.Broker.rescued;
  Obs.Metrics.set "broker.degraded.served.strict" loose_st.Broker.served_strict;
  Obs.Metrics.set "broker.degraded.served.skip" loose_st.Broker.served_skip;
  Obs.Metrics.set "broker.degraded.served.affectible"
    loose_st.Broker.served_affectible

(* ------------------------------------------------------------------ *)

let b9_recovery () =
  section "B9: crash recovery time vs journal length (churn workload)";
  (* the real surface-syntax codec, as the CLI wires it: policy
     references in the journaled bodies resolve against the hotel
     automaton *)
  let automata = [ ("phi", Usage.Policy_lib.hotel) ] in
  let hexpr_of_string = Syntax.Parser.hexpr_of_string ~automata in
  let hexpr_to_string = Core.Hexpr.to_string in
  let sizes = if !quick then [ 40; 80 ] else [ 60; 120; 240 ] in
  let total_mismatches = ref 0 in
  List.iter
    (fun n ->
      let profile =
        {
          (Testkit.Workload.default ~clients:Scenarios.Churn.clients
             ~spares:Scenarios.Churn.spares ~noise:Scenarios.Churn.noise)
          with
          Testkit.Workload.seed = !seed;
          requests = n;
        }
      in
      let items, _ = Testkit.Workload.generate profile in
      let reqs =
        List.filter_map
          (function Broker.Script.Submit r -> Some r | _ -> None)
          items
      in
      let jpath = Filename.temp_file "susf-b9" ".journal" in
      let spath = jpath ^ ".snapshot" in
      let w = Broker.Journal.create ~hexpr_to_string jpath in
      let broker = Broker.create Scenarios.Churn.repo in
      let submitted = ref 0 in
      Broker.set_journal broker
        (Some
           (fun ~seq ~level request ->
             Broker.Journal.append w
               {
                 Broker.Journal.seq;
                 submit = !submitted;
                 shed = false;
                 rescued = false;
                 level;
                 request;
               };
             incr submitted));
      (* one snapshot at 3/4 of the run, so snapshot-based recovery
         replays a quarter of the journal *)
      let snap_at = 3 * List.length reqs / 4 in
      List.iteri
        (fun i r ->
          ignore (Broker.process broker r);
          if i + 1 = snap_at then
            Broker.Recovery.write ~hexpr_to_string spath
              (Broker.Recovery.snapshot_of broker ~upto:(i + 1)))
        reqs;
      Broker.Journal.close w;
      (* the comparison serves below must not hit the closed writer *)
      Broker.set_journal broker None;
      let bytes = (Unix.stat jpath).Unix.st_size in
      let time f =
        let t0 = Unix.gettimeofday () in
        let r = f () in
        (r, (Unix.gettimeofday () -. t0) *. 1000.0)
      in
      let recover ?snapshot () =
        match
          Broker.Recovery.recover ~hexpr_of_string ?snapshot ~journal:jpath
            Scenarios.Churn.repo
        with
        | Error msg -> failwith ("b9: recovery failed: " ^ msg)
        | Ok (b, r) -> (b, r)
      in
      let (full_b, full_r), full_ms = time (fun () -> recover ()) in
      let (snap_b, snap_r), snap_ms =
        time (fun () -> recover ~snapshot:spath ())
      in
      (* every client's post-recovery serve must render byte-identically
         on the replayed broker, the snapshot-restored broker, and the
         uninterrupted one (serves evolve the three in lockstep) *)
      let serve b client =
        Fmt.str "%a" Broker.pp_outcome
          (Broker.process b (Broker.Serve { client })).Broker.outcome
      in
      List.iter
        (fun (client, _) ->
          let want = serve broker client in
          if not (String.equal (serve full_b client) want) then
            incr total_mismatches;
          if not (String.equal (serve snap_b client) want) then
            incr total_mismatches)
        (Broker.clients broker);
      pf
        "  %4d events %7d B journal | full replay %6.2f ms | snapshot@%d \
         %6.2f ms (%d replayed, %d rebuilt)@."
        full_r.Broker.Recovery.entries bytes full_ms snap_at snap_ms
        snap_r.Broker.Recovery.replayed snap_r.Broker.Recovery.rebuilt;
      Sys.remove jpath;
      if Sys.file_exists spath then Sys.remove spath)
    sizes;
  check_line ~expected:"0" ~got:(string_of_int !total_mismatches)
    "post-recovery serve mismatches vs the uninterrupted broker"

(* ------------------------------------------------------------------ *)

(* B10 — the sharded broker: sustained events/sec and p99 latency vs
   shard count on the B8 churn workload, driven closed-loop (each ack
   chains the stream's next submission, so up to one request per stream
   is in flight — no driver threads, the worker domains do all the
   work). Every shard journals with a group-commit batch; afterwards
   each journal is replayed against a fresh engine and every
   acknowledged response must come back byte-identical, with every
   replayed verdict matching the cold oracle at its recorded level —
   throughput never buys back correctness. *)
let b10_sharded () =
  section "B10: sharded broker events/sec vs shard count (group commit)";
  let automata = [ ("phi", Usage.Policy_lib.hotel) ] in
  let hexpr_of_string = Syntax.Parser.hexpr_of_string ~automata in
  let hexpr_to_string = Core.Hexpr.to_string in
  (* 16 clients spread the session space across the shards; bodies
     cycle through the churn scenario's three *)
  let clients =
    List.init 16 (fun i ->
        let name, body = List.nth Scenarios.Churn.clients (i mod 3) in
        (Printf.sprintf "%s_x%d" name i, body))
  in
  let profile =
    {
      (Testkit.Workload.default ~clients ~spares:Scenarios.Churn.spares
         ~noise:Scenarios.Churn.noise)
      with
      Testkit.Workload.seed = !seed;
      requests = scaled 3000;
      hot = 0.0;
    }
  in
  let streams, counts = Testkit.Workload.concurrent ~streams:16 profile in
  let total = Array.fold_left (fun a s -> a + List.length s) 0 streams in
  pf "  workload: %d requests on %d streams (%d serves, %d publish/retract)@."
    total (Array.length streams) counts.Testkit.Workload.serves
    (counts.Testkit.Workload.publishes + counts.Testkit.Workload.retracts);
  (* closed loop bounds in-flight work at one per stream, so a queue of
     64 never sheds: the measurement is pure serving throughput *)
  let admission =
    {
      Broker.queue_capacity = 64;
      plan_budget = 64;
      floor = Core.Compliance.Strict;
    }
  in
  let flush_count () =
    match
      List.assoc_opt "broker.journal.group_commit.flushes"
        (Obs.Metrics.snapshot ()).Obs.Metrics.counters
    with
    | Some n -> n
    | None -> 0
  in
  let run_config ?(batch = 16) nshards =
    let paths =
      Array.init nshards (fun _ -> Filename.temp_file "susf-b10" ".journal")
    in
    let flushes0 = flush_count () in
    let pool =
      Broker.Shard.create ~admission
        ~journal:(fun i ->
          Broker.Journal.create ~hexpr_to_string ~batch paths.(i))
        ~shards:nshards Scenarios.Churn.repo
    in
    let acked = Atomic.make 0 in
    let lock = Mutex.create () in
    let collected = ref [] in
    let lats = Array.make (max 1 total) 0.0 in
    let t0 = Unix.gettimeofday () in
    let rec launch = function
      | [] -> ()
      | r :: rest ->
          let sent = Unix.gettimeofday () in
          Broker.Shard.submit pool r ~callback:(fun ~shard resp ->
              let i = Atomic.fetch_and_add acked 1 in
              lats.(i) <- Unix.gettimeofday () -. sent;
              Mutex.lock lock;
              collected := (shard, resp) :: !collected;
              Mutex.unlock lock;
              launch rest)
    in
    Array.iter launch streams;
    while Atomic.get acked < total do
      Unix.sleepf 0.0002
    done;
    let dt = Unix.gettimeofday () -. t0 in
    Broker.Shard.stop pool;
    let rate = float_of_int total /. dt in
    Array.sort compare lats;
    let p99_ms = lats.(max 0 ((total * 99 / 100) - 1)) *. 1000.0 in
    (* replay each shard's journal and hold every ack against it *)
    let replay_mism = ref 0 and oracle_mism = ref 0 in
    let rendered =
      Array.map
        (fun path ->
          let entries =
            match Broker.Journal.read ~hexpr_of_string path with
            | Ok r -> r.Broker.Journal.entries
            | Error e ->
                failwith (Fmt.str "b10: %a" Broker.Journal.pp_error e)
          in
          let fresh = Broker.create ~admission Scenarios.Churn.repo in
          let tbl = Hashtbl.create 64 in
          List.iter
            (fun (e : Broker.Journal.entry) ->
              let resp =
                if e.shed then Broker.replay_shed fresh ~seq:e.seq e.request
                else if e.rescued then
                  Broker.replay_rescue fresh ~seq:e.seq ~level:e.level
                    e.request
                else Broker.replay fresh ~seq:e.seq ~level:e.level e.request
              in
              Hashtbl.replace tbl resp.Broker.seq
                (Fmt.str "%a" Broker.pp_response resp))
            entries;
          List.iter
            (fun (client, level) ->
              match List.assoc_opt client (Broker.clients fresh) with
              | None -> ()
              | Some body -> (
                  let expect =
                    Broker.Oracle.serve ~level (Broker.repo fresh)
                      ~client:(client, body)
                  in
                  match Broker.cached_verdict fresh client with
                  | Some (v, _) when Broker.verdict_equal v expect -> ()
                  | _ -> incr oracle_mism))
            (Broker.served_clients fresh);
          tbl)
        paths
    in
    List.iter
      (fun (shard, (resp : Broker.response)) ->
        match Hashtbl.find_opt rendered.(shard) resp.Broker.seq with
        | Some s when String.equal s (Fmt.str "%a" Broker.pp_response resp)
          ->
            ()
        | _ -> incr replay_mism)
      !collected;
    Array.iter Sys.remove paths;
    let flushes = flush_count () - flushes0 in
    pf
      "  %d shard%s batch %-2d | %8.0f events/s | p99 %6.2f ms | replay \
       mismatches %d, oracle mismatches %d@."
      nshards
      (if nshards = 1 then " " else "s")
      batch rate p99_ms !replay_mism !oracle_mism;
    Obs.Metrics.set
      (Printf.sprintf "b10.shards%d.events_per_sec" nshards)
      (int_of_float rate);
    Obs.Metrics.set
      (Printf.sprintf "b10.shards%d.p99_us" nshards)
      (int_of_float (p99_ms *. 1000.0));
    (rate, !replay_mism + !oracle_mism, flushes)
  in
  let results = List.map (fun n -> (n, run_config n)) [ 1; 2; 4; 8 ] in
  let mism = List.fold_left (fun a (_, (_, m, _)) -> a + m) 0 results in
  check_line ~expected:"0" ~got:(string_of_int mism)
    "shard-merge replay + per-level oracle mismatches, all shard counts";
  let rate_of n =
    match List.assoc_opt n results with Some (r, _, _) -> r | None -> 0.0
  in
  let speedup = rate_of 4 /. rate_of 1 in
  Obs.Metrics.set "b10.speedup_4v1.pct" (int_of_float (speedup *. 100.0));
  let cores = Domain.recommended_domain_count () in
  if cores >= 4 then
    check_line ~expected:"true"
      ~got:(string_of_bool (speedup >= 2.0))
      (Printf.sprintf "4 shards sustain >= 2x the 1-shard rate (%.2fx)"
         speedup)
  else
    (* worker domains time-slice one core: sharding cannot buy
       wall-clock here, so the scaling ratio is recorded but a >= 2x
       gate would only measure the scheduler *)
    pf
      "  4-shard speedup %.2fx on %d core(s) — parallel scaling recorded, \
       not asserted (needs >= 4 cores)@."
      speedup cores;
  (* the group-commit axis is hardware-independent: one shard, same
     closed-loop workload, batch 16 vs the historical flush-per-append
     batch 1 — batching must collapse the flush count *)
  let metered = Obs.Metrics.active () in
  if not metered then Obs.Metrics.install ();
  let _, m1, f1 = run_config ~batch:1 1 in
  let _, m16, f16 = run_config ~batch:16 1 in
  if not metered then Obs.Metrics.uninstall ();
  check_line ~expected:"0" ~got:(string_of_int (m1 + m16))
    "group-commit axis replay + oracle mismatches";
  check_line ~expected:"true"
    ~got:(string_of_bool (f16 * 2 <= f1))
    (Printf.sprintf
       "group commit: batch 16 flushes <= half of batch 1 (%d vs %d)" f16 f1)

(* ------------------------------------------------------------------ *)
(* Timing with bechamel *)

let pp_ns ppf v =
  if v > 1_000_000.0 then Fmt.pf ppf "%8.2f ms" (v /. 1_000_000.0)
  else if v > 1_000.0 then Fmt.pf ppf "%8.2f us" (v /. 1_000.0)
  else Fmt.pf ppf "%8.2f ns" v

let run_timings name tests =
  let open Bechamel in
  let cfg =
    if !quick then Benchmark.cfg ~limit:200 ~quota:(Time.second 0.05) ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ()
  in
  let raw =
    Benchmark.all cfg
      Toolkit.Instance.[ monotonic_clock ]
      (Test.make_grouped ~name tests)
  in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (k, v) ->
      match Bechamel.Analyze.OLS.estimates v with
      | Some [ e ] -> pf "  %-55s %a/run@." k pp_ns e
      | _ -> pf "  %-55s (no estimate)@." k)
    rows

let stage = Bechamel.Staged.stage

let timing_e () =
  section "timings: the paper's scenario";
  let body = Contract.project Scenarios.Hotel.broker_request_body in
  let s2 = Contract.project Scenarios.Hotel.s2 in
  let s3 = Contract.project Scenarios.Hotel.s3 in
  let cfg_fig3 () =
    Network.initial ~plan:Scenarios.Hotel.plan1
      [ ("c1", Scenarios.Hotel.client1) ]
  in
  run_timings "paper"
    [
      Bechamel.Test.make ~name:"E2 compliance Br|-s3 (product)"
        (stage (fun () -> Product.compliant body s3));
      Bechamel.Test.make ~name:"E2 non-compliance Br|-s2 (counterexample)"
        (stage (fun () -> Product.counterexample body s2));
      Bechamel.Test.make ~name:"E3 policy check (phi1 on s4 events)"
        (stage (fun () ->
             Usage.Policy.respects Scenarios.Hotel.phi1
               (Hexpr.events Scenarios.Hotel.s4)));
      Bechamel.Test.make ~name:"E4 netcheck of pi1"
        (stage (fun () ->
             Netcheck.check_client Scenarios.Hotel.repo Scenarios.Hotel.plan1
               ("c1", Scenarios.Hotel.client1)));
      Bechamel.Test.make ~name:"E4 full plan synthesis for C1"
        (stage (fun () ->
             Planner.valid_plans ~all:false Scenarios.Hotel.repo
               ~client:("c1", Scenarios.Hotel.client1)));
      Bechamel.Test.make ~name:"E5 Fig.3 simulation (random schedule)"
        (stage (fun () ->
             Simulate.run Scenarios.Hotel.repo (cfg_fig3 ())
               (Simulate.random ~seed:1)));
      Bechamel.Test.make ~name:"E8 BPA validity of C1"
        (stage (fun () -> Bpa.Check.valid Scenarios.Hotel.client1));
    ]

let timing_b1 () =
  section "timings: B1 compliance vs contract size";
  run_timings "b1"
    (List.map
       (fun n ->
         let c = Contract.project (ping n) and s = Contract.project (pong n) in
         Bechamel.Test.make
           ~name:(Printf.sprintf "ping-pong n=%3d" n)
           (stage (fun () -> Product.compliant c s)))
       [ 2; 8; 32; 128 ]
    @ List.map
        (fun n ->
          let c = Contract.project (wide_client n)
          and s = Contract.project (wide_server n) in
          Bechamel.Test.make
            ~name:(Printf.sprintf "wide n=%3d" n)
            (stage (fun () -> Product.compliant c s)))
        [ 2; 8; 32; 128 ])

let timing_b2 () =
  section "timings: B2 plan synthesis vs repository size";
  run_timings "b2"
    (List.concat_map
       (fun k ->
         let repo = scaled_repo k in
         let client = ("c1", Scenarios.Hotel.client1) in
         [
           Bechamel.Test.make
             ~name:(Printf.sprintf "valid_plans (shared cache) k=%2d" k)
             (stage (fun () -> Planner.valid_plans ~all:false repo ~client));
           Bechamel.Test.make
             ~name:(Printf.sprintf "per-plan analyze (no cache) k=%2d" k)
             (stage (fun () ->
                  Planner.enumerate repo ~client
                  |> List.map (fun plan -> Planner.analyze repo ~client plan)
                  |> List.filter (fun (r : Planner.report) ->
                         Result.is_ok r.Planner.verdict)));
         ])
       [ 1; 2; 4; 8 ])

let timing_b3 () =
  section "timings: B3 validity vs history length";
  run_timings "b3"
    (List.map
       (fun n ->
         let h = history_of_length n in
         Bechamel.Test.make
           ~name:(Printf.sprintf "check n=%5d" n)
           (stage (fun () -> Validity.check h)))
       [ 10; 100; 1000 ])

let timing_b5 () =
  section "timings: B5 Definition 4 vs product automaton";
  run_timings "b5"
    (List.concat_map
       (fun n ->
         let c = Contract.project (ping n) and s = Contract.project (pong n) in
         [
           Bechamel.Test.make
             ~name:(Printf.sprintf "def4 n=%3d" n)
             (stage (fun () -> Compliance.compliant c s));
           Bechamel.Test.make
             ~name:(Printf.sprintf "product n=%3d" n)
             (stage (fun () -> Product.compliant c s));
         ])
       [ 4; 16; 64 ])

let timing_b6 () =
  section "timings: B6 direct vs BPA validity";
  let rec chain k =
    if k = 0 then Hexpr.ev "x"
    else
      Hexpr.frame
        (Usage.Policy_lib.instantiate0 (Usage.Policy_lib.at_most ~n:(2 * k) "x"))
        (Hexpr.seq (Hexpr.ev "x") (chain (k - 1)))
  in
  run_timings "b6"
    (List.concat_map
       (fun k ->
         let h = chain k in
         [
           Bechamel.Test.make
             ~name:(Printf.sprintf "direct k=%2d" k)
             (stage (fun () -> Validity.check_expr h));
           Bechamel.Test.make
             ~name:(Printf.sprintf "bpa    k=%2d" k)
             (stage (fun () -> Bpa.Check.valid h));
         ])
       [ 1; 2; 4 ])

let timing_b7 () =
  section "timings: B7 conjoined vs separate policies";
  let policies =
    List.map
      (fun e -> Usage.Policy_lib.instantiate0 (Usage.Policy_lib.never e))
      [ "u"; "v"; "w"; "q" ]
  in
  let conj = Option.get (Usage.Policy_ops.conj_all policies) in
  let trace =
    List.init 64 (fun i -> Usage.Event.make (Printf.sprintf "e%d" (i mod 7)))
  in
  run_timings "b7"
    [
      Bechamel.Test.make ~name:"separate x4"
        (stage (fun () ->
             List.for_all (fun p -> Usage.Policy.respects p trace) policies));
      Bechamel.Test.make ~name:"conjoined"
        (stage (fun () -> Usage.Policy.respects conj trace));
      Bechamel.Test.make ~name:"conj construction"
        (stage (fun () -> Usage.Policy_ops.conj_all policies));
    ]

let timing_quant () =
  section "timings: quantitative analyses";
  let model = Quant.Model.uniform 1.0 in
  run_timings "quant"
    [
      Bechamel.Test.make ~name:"worst-case cost of S3"
        (stage (fun () -> Quant.Cost.worst_case model Scenarios.Hotel.s3));
      Bechamel.Test.make ~name:"cheapest plan for C1"
        (stage (fun () ->
             Quant.Plan_cost.cheapest Scenarios.Hotel.repo
               ~client:("c1", Scenarios.Hotel.client1)
               model));
      Bechamel.Test.make ~name:"subcontract s2 <= s3"
        (stage (fun () ->
             Subcontract.refines
               (Contract.project Scenarios.Hotel.s2)
               (Contract.project Scenarios.Hotel.s3)));
    ]

let timing_b4 () =
  section "timings: B4 interleaved exploration vs clients";
  run_timings "b4"
    (List.map
       (fun k ->
         let clients =
           List.init k (fun i ->
               ( Scenarios.Hotel.plan1,
                 (Printf.sprintf "c%d" i, Scenarios.Hotel.client1) ))
         in
         Bechamel.Test.make
           ~name:(Printf.sprintf "explore clients=%d" k)
           (stage (fun () ->
                Netcheck.explore_interleaved Scenarios.Hotel.repo clients)))
       (if !quick then [ 1; 2 ] else [ 1; 2; 3 ]))

(* ------------------------------------------------------------------ *)

(* B12 — most-permissive controller synthesis: cost vs party count on
   the supply-chain family, the declining (broken) variant at every
   width, and the agreement-vs-empty outcome mix over a seeded corpus
   of random compositions. *)
let b12_orchestration () =
  section "B12: orchestrator synthesis vs party count (supply chains)";
  let reps = if !quick then 3 else 10 in
  let min_ms f =
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
      if ms < !best then best := ms
    done;
    !best
  in
  pf "  %-8s %8s %8s %12s %9s@." "parties" "product" "states" "transitions"
    "min ms";
  List.iter
    (fun parties ->
      let repo, client = Scenarios.Supply_chain.chain ~parties in
      let ms =
        min_ms (fun () ->
            Orchestration.Orchestrate.synthesize_client repo ~client)
      in
      match Orchestration.Orchestrate.synthesize_client repo ~client with
      | Ok { Orchestration.Orchestrate.coalitions = [ c ]; _ } ->
          let ctrl = c.Orchestration.Orchestrate.controller in
          let product =
            Orchestration.Automaton.size
              ctrl.Orchestration.Controller.automaton
          in
          pf "  %-8d %8d %8d %12d %9.3f@." parties product
            ctrl.Orchestration.Controller.states
            ctrl.Orchestration.Controller.transitions ms;
          (* the chain controller is exactly the 2(k-1)-step conversation *)
          check_line
            ~expected:(string_of_int ((2 * parties) - 1))
            ~got:(string_of_int ctrl.Orchestration.Controller.states)
            (Printf.sprintf "chain of %d: linear controller" parties);
          Obs.Metrics.set
            (Printf.sprintf "orchestration.bench.p%d.controller.states"
               parties)
            ctrl.Orchestration.Controller.states;
          Obs.Metrics.set
            (Printf.sprintf "orchestration.bench.p%d.product.states" parties)
            product;
          Obs.Metrics.set
            (Printf.sprintf "orchestration.bench.p%d.synthesis.us" parties)
            (int_of_float (ms *. 1000.0))
      | Ok _ ->
          check_line ~expected:"one coalition" ~got:"several"
            (Printf.sprintf "chain of %d" parties)
      | Error _ ->
          check_line ~expected:"controller" ~got:"decline"
            (Printf.sprintf "chain of %d synthesizes" parties))
    [ 3; 4; 5; 6 ];
  (* the broken chain (an undeliverable pay? in the final stage) must
     decline with a concrete counterexample trace at every width *)
  List.iter
    (fun parties ->
      let repo, client = Scenarios.Supply_chain.broken ~parties in
      match Orchestration.Orchestrate.synthesize_client repo ~client with
      | Error (Orchestration.Orchestrate.No_controller { counterexample; _ })
        ->
          check_line ~expected:"true"
            ~got:
              (string_of_bool
                 (counterexample.Orchestration.Controller.trace <> []))
            (Printf.sprintf "broken chain of %d declines with a trace" parties)
      | _ ->
          check_line ~expected:"decline" ~got:"other"
            (Printf.sprintf "broken chain of %d" parties))
    [ 3; 4; 5; 6 ];
  (* agreement-vs-empty mix over a seeded corpus of random 3..5-party
     compositions — the raw synthesis surface, no repository involved *)
  let n = scaled 200 in
  let rand = Testkit.Rng.make ~seed:!seed () in
  let gen =
    QCheck.Gen.(
      let* k = int_range 3 5 in
      let small =
        sized_size (int_bound 6) Testkit.Generators.contract_gen_sized
      in
      flatten_l (List.init k (fun _ -> small)))
  in
  let ok = ref 0 and empty = ref 0 in
  let unmatched = ref 0 and deadlock = ref 0 and starved = ref 0 in
  for _ = 1 to n do
    let cs = QCheck.Gen.generate1 ~rand gen in
    let parties =
      List.mapi
        (fun i c ->
          { Orchestration.Automaton.name = Printf.sprintf "p%d" i; contract = c })
        cs
    in
    let a = Orchestration.Automaton.build ~limit:50_000 parties in
    match Orchestration.Controller.synthesize a with
    | Ok _ -> incr ok
    | Error ce -> (
        incr empty;
        match ce.Orchestration.Controller.reason with
        | Orchestration.Controller.Unmatched_offer _ -> incr unmatched
        | Orchestration.Controller.Deadlock -> incr deadlock
        | Orchestration.Controller.Starved -> incr starved)
  done;
  pf
    "  corpus of %d random compositions: agreement %d, empty %d (unmatched \
     %d, deadlock %d, starved %d)@."
    n !ok !empty !unmatched !deadlock !starved;
  check_line ~expected:(string_of_int n)
    ~got:(string_of_int (!ok + !empty))
    "every composition settles";
  Obs.Metrics.set "orchestration.bench.corpus.agreement" !ok;
  Obs.Metrics.set "orchestration.bench.corpus.empty" !empty

let b13_mediation () =
  section "B13: mediator synthesis vs counterexample depth (reversed pipes)";
  let reps = if !quick then 3 else 10 in
  let min_ms f =
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
      if ms < !best then best := ms
    done;
    !best
  in
  (* the reversed-pipeline family: the client emits x1..xn, the service
     consumes them backwards, every name is reserved — the only repair
     is to buffer all n messages and replay them in reverse, so the
     adapter grows linearly with the mismatch depth *)
  pf "  %-8s %8s %8s %10s %9s@." "depth" "states" "steps" "buffered" "min ms";
  List.iter
    (fun n ->
      let client, service = Scenarios.Mismatched.reversed n in
      let config =
        {
          Mediator.Synthesis.capacity = n + 1;
          reserved = Scenarios.Mismatched.reversed_channels n;
        }
      in
      let run () = Mediator.Synthesis.synthesize ~config ~client ~service () in
      let ms = min_ms run in
      match run () with
      | Error ce ->
          check_line ~expected:"mediator" ~got:"decline"
            (Printf.sprintf "reversed %d mediates (%s)" n
               (Fmt.str "%a" Mediator.Synthesis.pp_counterexample ce))
      | Ok m ->
          let buffered =
            List.length
              (List.filter
                 (fun (s : Mediator.Synthesis.step) ->
                   match s.Mediator.Synthesis.repair with
                   | Mediator.Synthesis.Buffered _ -> true
                   | _ -> false)
                 m.Mediator.Synthesis.steps)
          in
          pf "  %-8d %8d %8d %10d %9.3f@." n m.Mediator.Synthesis.states
            (List.length m.Mediator.Synthesis.steps)
            buffered ms;
          (* all n messages cross the buffer, and the mediated triple
             re-verifies strictly *)
          check_line ~expected:(string_of_int n)
            ~got:(string_of_int buffered)
            (Printf.sprintf "reversed %d: every message buffered" n);
          check_line ~expected:"true"
            ~got:
              (string_of_bool
                 (Mediator.Synthesis.verify ~config ~client ~service m))
            (Printf.sprintf "reversed %d re-verifies" n);
          Obs.Metrics.set
            (Printf.sprintf "mediator.bench.n%d.adapter.states" n)
            m.Mediator.Synthesis.states;
          Obs.Metrics.set
            (Printf.sprintf "mediator.bench.n%d.repair.steps" n)
            (List.length m.Mediator.Synthesis.steps);
          Obs.Metrics.set
            (Printf.sprintf "mediator.bench.n%d.synthesis.us" n)
            (int_of_float (ms *. 1000.0)))
    [ 2; 4; 8; 16 ];
  (* repaired-vs-declined mix over a seeded corpus of scrambled
     pipelines; a quarter mute the service's closing done!, leaving the
     client waiting forever — unmediable by any adapter *)
  let n_trials = scaled 200 in
  let rand = Testkit.Rng.make ~seed:!seed () in
  let gen =
    QCheck.Gen.(
      let* n = int_range 2 5 in
      let* order = shuffle_l (List.init n (fun i -> i + 1)) in
      let* mute = map (fun k -> k = 0) (int_bound 3) in
      return (n, order, mute))
  in
  let repaired = ref 0 and declined = ref 0 and muted = ref 0 in
  for _ = 1 to n_trials do
    let n, order, mute = QCheck.Gen.generate1 ~rand gen in
    if mute then incr muted;
    let chan i = Printf.sprintf "x%d" i in
    let client =
      Hexpr.seq_all
        (List.init n (fun i -> Hexpr.send (chan (i + 1)))
        @ [ Hexpr.recv "done" ])
    in
    let service =
      Hexpr.seq_all
        (List.map (fun i -> Hexpr.recv (chan i)) order
        @ if mute then [] else [ Hexpr.send "done" ])
    in
    let config =
      {
        Mediator.Synthesis.capacity = n + 1;
        reserved = Scenarios.Mismatched.reversed_channels n;
      }
    in
    match
      Mediator.Synthesis.synthesize ~config
        ~client:(Contract.project client)
        ~service:(Contract.project service)
        ()
    with
    | Ok _ -> incr repaired
    | Error _ -> incr declined
  done;
  pf "  corpus of %d scrambled pipelines: repaired %d, declined %d (muted %d)@."
    n_trials !repaired !declined !muted;
  (* the mix is exact: mediation heals every live scramble and declines
     every muted one — nothing in between *)
  check_line
    ~expected:(string_of_int (n_trials - !muted))
    ~got:(string_of_int !repaired) "every live scramble repaired";
  check_line ~expected:(string_of_int !muted)
    ~got:(string_of_int !declined) "every muted scramble declined";
  Obs.Metrics.set "mediator.bench.mix.repaired" !repaired;
  Obs.Metrics.set "mediator.bench.mix.declined" !declined

(* ------------------------------------------------------------------ *)

let all : (string * (unit -> unit)) list =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5);
    ("e6", e6_e7); ("e8", e8); ("e9", e9);
    ("b1", b1_shape); ("b2", b2_shape); ("b3", b3_shape); ("b4", b4_shape);
    ("b5", b5_recovery); ("b5-def4", b5_ablation); ("b6", b6_ablation);
    ("b7", b7_ablation); ("b8", b8_broker); ("b9", b9_recovery);
    ("b10", b10_sharded);
    ("b12", b12_orchestration); ("b13", b13_mediation);
    ("t-paper", timing_e); ("t-b1", timing_b1); ("t-b2", timing_b2);
    ("t-b3", timing_b3); ("t-b4", timing_b4); ("t-b5", timing_b5);
    ("t-b6", timing_b6); ("t-b7", timing_b7); ("t-quant", timing_quant);
  ]

let () =
  let args = match Array.to_list Sys.argv with _ :: rest -> rest | [] -> [] in
  let obs = ref false and json = ref None and force = ref false in
  let rec parse names = function
    | [] -> List.rev names
    | "--obs" :: tl ->
        obs := true;
        parse names tl
    | "--quick" :: tl ->
        quick := true;
        parse names tl
    | "--force" :: tl ->
        force := true;
        parse names tl
    | "--json" :: file :: tl ->
        json := Some file;
        parse names tl
    | [ "--json" ] ->
        prerr_endline "bench: --json requires a file argument";
        exit 2
    | "--seed" :: n :: tl -> (
        match int_of_string_opt n with
        | Some s ->
            seed := s;
            parse names tl
        | None ->
            prerr_endline "bench: --seed requires an integer argument";
            exit 2)
    | [ "--seed" ] ->
        prerr_endline "bench: --seed requires an integer argument";
        exit 2
    | a :: tl -> parse (a :: names) tl
  in
  let selected =
    match parse [] args with _ :: _ as names -> names | [] -> List.map fst all
  in
  (* Refuse to clobber a landed baseline before burning any cycles. *)
  (match !json with
  | Some file when Sys.file_exists file && not !force ->
      Printf.eprintf
        "bench: %s already exists; pass --force to overwrite the baseline\n"
        file;
      exit 2
  | _ -> ());
  let snapshots = ref [] in
  List.iter
    (fun name ->
      match List.assoc_opt name all with
      | Some f ->
          (* re-install per experiment: install clears the registry *)
          if !obs || !json <> None then Obs.Metrics.install ();
          let t0 = Unix.gettimeofday () in
          f ();
          let wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
          if !json <> None then
            snapshots := (name, wall_ms, Obs.Metrics.snapshot ()) :: !snapshots;
          if !obs then
            pf "--- %s metrics ---@.%a@." name Obs.Metrics.pp_snapshot
              (Obs.Metrics.snapshot ())
      | None ->
          pf "unknown experiment %s (available: %s)@." name
            (String.concat " " (List.map fst all)))
    selected;
  (match !json with
  | None -> ()
  | Some file ->
      let open Reports.Json in
      let doc =
        Obj
          [
            ("schema", String "susf-bench/1");
            ("mode", String (if !quick then "quick" else "full"));
            ( "experiments",
              List
                (List.rev_map
                   (fun (name, wall_ms, snap) ->
                     Obj
                       [
                         ("name", String name);
                         ("wall_ms", Float wall_ms);
                         ("metrics", Reports.Obs_encode.metrics snap);
                       ])
                   !snapshots) );
          ]
      in
      let oc = open_out file in
      output_string oc (to_string doc);
      output_char oc '\n';
      close_out oc;
      pf "wrote %s (%d experiments)@." file (List.length !snapshots));
  if !mismatches > 0 then begin
    Printf.eprintf "bench: %d MISMATCH line(s)\n" !mismatches;
    exit 1
  end
