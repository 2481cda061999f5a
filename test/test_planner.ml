(* Netcheck (abstract model checking of planned networks) and the §5
   planner: the paper's plan claims (E4). *)

open Core

let repo = Scenarios.Hotel.repo

let valid_verdict = function Netcheck.Valid _ -> true | Netcheck.Invalid _ -> false

let test_netcheck_valid_plan () =
  let v = Netcheck.check_client repo Scenarios.Hotel.plan1 ("c1", Scenarios.Hotel.client1) in
  Alcotest.(check bool) "π1 valid" true (valid_verdict v)

let test_netcheck_c2_s4 () =
  let v = Netcheck.check_client repo Scenarios.Hotel.plan2_s4 ("c2", Scenarios.Hotel.client2) in
  Alcotest.(check bool) "π2 with s4 valid" true (valid_verdict v)

let test_netcheck_blacklisted () =
  match Netcheck.check_client repo Scenarios.Hotel.plan2_s3 ("c2", Scenarios.Hotel.client2) with
  | Netcheck.Valid _ -> Alcotest.fail "s3 is black-listed for c2"
  | Netcheck.Invalid stuck -> (
      match stuck.Netcheck.kind with
      | Netcheck.Security p ->
          Alcotest.(check string) "phi2 blocks"
            (Usage.Policy.id Scenarios.Hotel.phi2)
            (Usage.Policy.id p)
      | k ->
          Alcotest.failf "expected a security stuckness, got %a"
            (fun ppf -> function
              | Netcheck.Security _ -> Fmt.string ppf "security"
              | Netcheck.Communication -> Fmt.string ppf "communication"
              | Netcheck.Unplanned_request r -> Fmt.pf ppf "unplanned %d" r)
            k)

let test_netcheck_noncompliant () =
  match Netcheck.check_client repo Scenarios.Hotel.plan2_s2 ("c2", Scenarios.Hotel.client2) with
  | Netcheck.Valid _ -> Alcotest.fail "s2 is not compliant"
  | Netcheck.Invalid stuck ->
      Alcotest.(check bool) "communication stuckness" true
        (stuck.Netcheck.kind = Netcheck.Communication)

let test_netcheck_unplanned () =
  match Netcheck.check_client repo (Plan.of_list [ (1, "br") ]) ("c1", Scenarios.Hotel.client1) with
  | Netcheck.Valid _ -> Alcotest.fail "request 3 is unplanned"
  | Netcheck.Invalid stuck ->
      Alcotest.(check bool) "unplanned request 3" true
        (stuck.Netcheck.kind = Netcheck.Unplanned_request 3)

let test_netcheck_trace () =
  match Netcheck.check_client repo Scenarios.Hotel.plan2_s3 ("c2", Scenarios.Hotel.client2) with
  | Netcheck.Valid _ -> Alcotest.fail "expected invalid"
  | Netcheck.Invalid stuck ->
      (* shortest path: open_2, sync req, open_3 — then sgn(s3) is blocked *)
      Alcotest.(check int) "trace length" 3 (List.length stuck.Netcheck.trace)

let test_netcheck_multi () =
  (* the plan vector of the paper: request 3 resolved per client *)
  let v =
    Netcheck.check repo
      [
        (Scenarios.Hotel.plan1, ("c1", Scenarios.Hotel.client1));
        (Scenarios.Hotel.plan2_s4, ("c2", Scenarios.Hotel.client2));
      ]
  in
  Alcotest.(check bool) "both clients fine" true (valid_verdict v);
  let bad =
    Netcheck.check repo
      [
        (Scenarios.Hotel.plan1, ("c1", Scenarios.Hotel.client1));
        (Scenarios.Hotel.plan2_s3, ("c2", Scenarios.Hotel.client2));
      ]
  in
  Alcotest.(check bool) "one bad client spoils the network" false
    (valid_verdict bad)

let test_explore_interleaved () =
  let s1 =
    Netcheck.explore_interleaved repo
      [ (Scenarios.Hotel.plan1, ("c1", Scenarios.Hotel.client1)) ]
  in
  let s2 =
    Netcheck.explore_interleaved repo
      [
        (Scenarios.Hotel.plan1, ("c1", Scenarios.Hotel.client1));
        (Scenarios.Hotel.plan2_s4, ("c2", Scenarios.Hotel.client2));
      ]
  in
  Alcotest.(check bool) "interleaving grows the space" true
    (s2.Netcheck.states > s1.Netcheck.states)

(* --- planner --- *)

let test_sites () =
  let sites = Planner.sites repo ("c1", Scenarios.Hotel.client1) in
  Alcotest.(check (list int)) "request sites" [ 1; 3 ]
    (List.sort compare (List.map (fun s -> s.Planner.req.Hexpr.rid) sites))

let test_enumerate () =
  let plans = Planner.enumerate repo ~client:("c1", Scenarios.Hotel.client1) in
  (* request 1: 5 choices; when bound to br, request 3: 5 more → 4 + 5×1 = 9 *)
  Alcotest.(check int) "9 complete plans" 9 (List.length plans)

let find_plan reports plan =
  List.find_opt (fun r -> Plan.equal r.Planner.plan plan) reports

let test_valid_plans_c1 () =
  (* E4: exactly one valid plan for C1, the paper's π1 = {1[br], 3[s3]} *)
  let reports = Planner.valid_plans ~all:false repo ~client:("c1", Scenarios.Hotel.client1) in
  Alcotest.(check int) "unique valid plan" 1 (List.length reports);
  Alcotest.(check bool) "it is π1" true
    (Plan.equal (List.hd reports).Planner.plan Scenarios.Hotel.plan1)

let test_valid_plans_c2 () =
  (* E4: exactly one valid plan for C2: {2[br], 3[s4]} *)
  let reports = Planner.valid_plans ~all:false repo ~client:("c2", Scenarios.Hotel.client2) in
  Alcotest.(check int) "unique valid plan" 1 (List.length reports);
  Alcotest.(check bool) "it is {2[br],3[s4]}" true
    (Plan.equal (List.hd reports).Planner.plan Scenarios.Hotel.plan2_s4)

let test_plan_failures_c2 () =
  let reports = Planner.valid_plans ~all:true repo ~client:("c2", Scenarios.Hotel.client2) in
  let failure plan =
    match find_plan reports plan with
    | Some { Planner.verdict = Error r; _ } -> Some r
    | _ -> None
  in
  (match failure Scenarios.Hotel.plan2_s2 with
  | Some (Planner.Not_compliant { rid = 3; loc = "s2"; _ }) -> ()
  | _ -> Alcotest.fail "s2 should fail by non-compliance");
  match failure Scenarios.Hotel.plan2_s3 with
  | Some (Planner.Insecure _) -> ()
  | _ -> Alcotest.fail "s3 should fail by security"

let test_analyze_unserved () =
  let r =
    Planner.analyze repo ~client:("c1", Scenarios.Hotel.client1)
      (Plan.of_list [ (1, "br") ])
  in
  match r.Planner.verdict with
  | Error (Planner.Unserved 3) -> ()
  | _ -> Alcotest.fail "expected request 3 unserved"

let test_analyze_stats () =
  let r = Planner.analyze repo ~client:("c1", Scenarios.Hotel.client1) Scenarios.Hotel.plan1 in
  match r.Planner.verdict with
  | Ok stats -> Alcotest.(check bool) "explored >0 states" true (stats.Netcheck.states > 0)
  | Error _ -> Alcotest.fail "π1 must be valid"

let suite =
  [
    Alcotest.test_case "netcheck: π1 valid (E4)" `Quick test_netcheck_valid_plan;
    Alcotest.test_case "netcheck: c2+s4 valid (E4)" `Quick test_netcheck_c2_s4;
    Alcotest.test_case "netcheck: black-listed (E4)" `Quick test_netcheck_blacklisted;
    Alcotest.test_case "netcheck: non-compliant (E4)" `Quick test_netcheck_noncompliant;
    Alcotest.test_case "netcheck: unplanned request" `Quick test_netcheck_unplanned;
    Alcotest.test_case "netcheck: shortest witness" `Quick test_netcheck_trace;
    Alcotest.test_case "netcheck: multiple clients" `Quick test_netcheck_multi;
    Alcotest.test_case "interleaved exploration" `Quick test_explore_interleaved;
    Alcotest.test_case "request sites" `Quick test_sites;
    Alcotest.test_case "plan enumeration" `Quick test_enumerate;
    Alcotest.test_case "valid plans for C1 (E4)" `Quick test_valid_plans_c1;
    Alcotest.test_case "valid plans for C2 (E4)" `Quick test_valid_plans_c2;
    Alcotest.test_case "failure reasons for C2 (E4)" `Quick test_plan_failures_c2;
    Alcotest.test_case "unserved request" `Quick test_analyze_unserved;
    Alcotest.test_case "valid plan statistics" `Quick test_analyze_stats;
  ]

(* --- integration: statically valid plans drive clean executions --- *)

let simulate_clean plan client seed =
  let cfg = Network.initial_vector [ (plan, client) ] in
  let t = Simulate.run ~max_steps:400 repo cfg (Simulate.random ~seed) in
  match t.Simulate.outcome with
  | Simulate.Completed ->
      List.for_all
        (fun c ->
          let h = Validity.Monitor.history c.Network.monitor in
          History.is_balanced h && Validity.valid h)
        t.Simulate.final
  | Simulate.Stuck _ | Simulate.Degraded _ | Simulate.Out_of_fuel | Simulate.Stopped -> false

let test_valid_plans_drive_clean_runs () =
  List.iter
    (fun client ->
      let reports = Planner.valid_plans ~all:false repo ~client in
      List.iter
        (fun r ->
          for seed = 1 to 25 do
            Alcotest.(check bool)
              (Fmt.str "plan %a seed %d" Plan.pp r.Planner.plan seed)
              true
              (simulate_clean r.Planner.plan client seed)
          done)
        reports)
    [ ("c1", Scenarios.Hotel.client1); ("c2", Scenarios.Hotel.client2) ]

(* Conversely: plans the planner rejects for security admit no run that
   violates a policy either — the runtime monitor blocks the offending
   event, so the run gets stuck instead. Either way nothing bad is
   observable; the difference is that invalid plans may strand clients. *)
let test_insecure_plans_strand_clients () =
  let some_stuck plan client =
    List.exists
      (fun seed -> not (simulate_clean plan client seed))
      (List.init 25 (fun i -> i + 1))
  in
  Alcotest.(check bool) "C1 with s1 strands" true
    (some_stuck (Plan.of_list [ (1, "br"); (3, "s1") ]) ("c1", Scenarios.Hotel.client1));
  Alcotest.(check bool) "C2 with s3 strands" true
    (some_stuck Scenarios.Hotel.plan2_s3 ("c2", Scenarios.Hotel.client2))

let suite =
  suite
  @ [
      Alcotest.test_case "valid plans drive clean runs" `Quick
        test_valid_plans_drive_clean_runs;
      Alcotest.test_case "insecure plans strand clients" `Quick
        test_insecure_plans_strand_clients;
    ]

(* --- exhaustive failure enumeration --- *)

let test_failures_none () =
  Alcotest.(check int) "valid plan has no failures" 0
    (List.length
       (Netcheck.failures repo Scenarios.Hotel.plan1
          ("c1", Scenarios.Hotel.client1)))

let test_failures_multiple () =
  (* a client with two independent requests, both to an insecure hotel:
     two distinct stuck states *)
  let fs =
    Netcheck.failures repo Scenarios.Hotel.plan2_s3
      ("c2", Scenarios.Hotel.client2)
  in
  Alcotest.(check bool) "at least one failure" true (List.length fs >= 1);
  List.iter
    (fun s ->
      match s.Netcheck.kind with
      | Netcheck.Security _ -> ()
      | _ -> Alcotest.fail "all failures are security failures here")
    fs

let test_failures_limit () =
  let fs =
    Netcheck.failures ~limit:1 repo Scenarios.Hotel.plan2_s3
      ("c2", Scenarios.Hotel.client2)
  in
  Alcotest.(check int) "limit respected" 1 (List.length fs)

(* --- one configuration graph for every reader ---
   check_client, failures and graph walk the same explorer, so at Strict
   they agree: the graph condemns no state exactly when the check is
   valid, with the same counts; otherwise its first condemned state in
   discovery order carries the check's stuck, which is also the first
   failure. *)

let readers_agree repo plan client =
  let g = Netcheck.graph repo plan client in
  let stucks = List.map (Fmt.str "%a" Netcheck.pp_stuck) in
  let first = Array.find_map snd g.Netcheck.nodes |> Option.to_list in
  let failures = Netcheck.failures ~limit:1 repo plan client in
  match Netcheck.check_client repo plan client with
  | Netcheck.Valid s ->
      first = [] && failures = []
      && s.Netcheck.states = Array.length g.Netcheck.nodes
      && s.Netcheck.transitions = List.length g.Netcheck.edges
  | Netcheck.Invalid s ->
      stucks first = stucks [ s ] && stucks failures = stucks [ s ]

let test_readers_agree_on_specs () =
  let specs dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.filter (fun f -> Filename.check_suffix f ".susf")
    |> List.map (Filename.concat dir)
  in
  List.iter
    (fun path ->
      let spec = Syntax.Parser.spec_of_file path in
      let repo = Syntax.Spec.repo spec in
      List.iter
        (fun ((name, _) as client) ->
          List.iter
            (fun plan ->
              Alcotest.(check bool)
                (Fmt.str "%s: %s under %a" path name Plan.pp plan)
                true
                (readers_agree repo plan client))
            (Planner.enumerate repo ~client))
        spec.Syntax.Spec.clients)
    (specs "../examples/data" @ specs "corpus")

let suite =
  suite
  @ [
      Alcotest.test_case "failures: none for valid" `Quick test_failures_none;
      Alcotest.test_case "failures: enumerated" `Quick test_failures_multiple;
      Alcotest.test_case "failures: limited" `Quick test_failures_limit;
      Alcotest.test_case "one graph: readers agree on every spec" `Quick
        test_readers_agree_on_specs;
    ]

(* --- the abstraction's witnesses replay concretely --- *)

let test_witness_replays () =
  (* every stuck witness of an invalid plan can be followed step by step
     in the concrete semantics, ending in a configuration where the
     offending move is visibly blocked or missing *)
  let check_replay plan client =
    match Netcheck.check_client repo plan client with
    | Netcheck.Valid _ -> Alcotest.fail "expected an invalid plan"
    | Netcheck.Invalid stuck ->
        let cfg = Network.initial_vector [ (plan, client) ] in
        let t = Simulate.follow repo cfg stuck.Netcheck.trace in
        Alcotest.(check int)
          "whole witness replays"
          (List.length stuck.Netcheck.trace)
          (List.length t.Simulate.steps);
        (* at the end: the run is not complete, and either nothing is
           enabled or the monitor reports a blocked move *)
        Alcotest.(check bool) "not done" false (Network.config_done t.Simulate.final);
        let enabled = Network.steps repo t.Simulate.final in
        let blocked = Network.blocked repo t.Simulate.final in
        (match stuck.Netcheck.kind with
        | Netcheck.Security _ ->
            Alcotest.(check bool) "a move is blocked by the monitor" true
              (blocked <> [])
        | Netcheck.Communication | Netcheck.Unplanned_request _ ->
            Alcotest.(check bool) "nothing enabled beyond the mismatch" true
              (enabled = [] || blocked = []))
  in
  check_replay (Plan.of_list [ (1, "br"); (3, "s1") ]) ("c1", Scenarios.Hotel.client1);
  check_replay Scenarios.Hotel.plan2_s3 ("c2", Scenarios.Hotel.client2);
  check_replay (Plan.of_list [ (1, "br") ]) ("c1", Scenarios.Hotel.client1)

let suite =
  suite
  @ [ Alcotest.test_case "witnesses replay concretely" `Quick test_witness_replays ]

(* --- randomized end-to-end oracle ---
   For the hotel scenario the whole pipeline has a closed-form answer: a
   plan {1[br], 3[h]} is valid for a client with policy φ(bl,p,t) iff
   the hotel is compliant (all our generated hotels are) and
   h ∉ bl ∧ (price(h) ≤ p ∨ rating(h) ≥ t). Randomising every parameter
   exercises planner + netcheck + monitor against this oracle. *)

let hotel_case =
  let gen =
    QCheck.Gen.(
      let hotel_name = oneofl [ "h0"; "h1"; "h2"; "h3" ] in
      let* blacklist = list_size (int_bound 3) hotel_name in
      let* p = int_range 0 100 in
      let* t = int_range 0 100 in
      let* target = hotel_name in
      let* price = int_range 0 100 in
      let* rating = int_range 0 100 in
      return (blacklist, p, t, target, price, rating))
  in
  QCheck.make
    ~print:(fun (bl, p, t, h, price, rating) ->
      Fmt.str "bl=%a p=%d t=%d hotel=%s price=%d rating=%d"
        Fmt.(Dump.list string)
        bl p t h price rating)
    gen

(* the client, repository and plan of a generated case *)
let hotel_network (blacklist, p, t, target, price, rating) =
  let policy = Usage.Policy_lib.hotel_policy ~blacklist ~price:p ~rating:t in
  let client =
    Hexpr.open_ ~rid:1 ~policy (Scenarios.Hotel.client_request_body policy)
  in
  let repo =
    [
      ("br", Scenarios.Hotel.broker);
      (target, Scenarios.Hotel.hotel target ~price ~rating ~extra:[]);
    ]
  in
  (repo, Plan.of_list [ (1, "br"); (3, target) ], ("c", client))

let prop_hotel_parametric_oracle =
  QCheck.Test.make ~name:"parametric hotel oracle" ~count:300 hotel_case
    (fun ((blacklist, p, t, target, price, rating) as case) ->
      let repo, plan, client = hotel_network case in
      let got = Result.is_ok Planner.(analyze repo ~client plan).verdict in
      let expected =
        (not (List.mem target blacklist)) && (price <= p || rating >= t)
      in
      got = expected)

let prop_hotel_readers_agree =
  QCheck.Test.make ~name:"one graph: readers agree on generated hotels"
    ~count:100 hotel_case (fun case ->
      let repo, plan, client = hotel_network case in
      readers_agree repo plan client)

let suite =
  suite
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_hotel_parametric_oracle; prop_hotel_readers_agree ]

(* --- expressions outside the §4 fragment are reported, not thrown --- *)

let test_outside_fragment () =
  (* a client whose branches communicate on different channels: the
     unguarded choice cannot be projected to a single contract *)
  let client =
    Hexpr.open_ ~rid:1 (Hexpr.choice (Hexpr.send "a") (Hexpr.send "b"))
  in
  let r =
    Planner.analyze repo ~client:("odd", client) (Plan.of_list [ (1, "br") ])
  in
  match r.Planner.verdict with
  | Error (Planner.Outside_fragment { rid = 1; loc = "br"; _ }) -> ()
  | _ -> Alcotest.fail "expected an Outside_fragment verdict";;

let test_outside_fragment_listed () =
  (* valid_plans survives such clients too *)
  let client =
    Hexpr.open_ ~rid:1 (Hexpr.choice (Hexpr.send "a") (Hexpr.send "b"))
  in
  let reports = Planner.valid_plans ~all:true repo ~client:("odd", client) in
  Alcotest.(check bool) "all reported, none valid" true
    (reports <> []
    && List.for_all (fun r -> Result.is_error r.Planner.verdict) reports)

let suite =
  suite
  @ [
      Alcotest.test_case "outside the fragment" `Quick test_outside_fragment;
      Alcotest.test_case "outside the fragment (enumeration)" `Quick
        test_outside_fragment_listed;
    ]

(* --- the paper's plan claims for C1, reason by reason (E4) ---------- *)

let test_plan_failures_c1 () =
  let verdict loc =
    match
      (Planner.analyze repo ~client:("c1", Scenarios.Hotel.client1)
         (Plan.of_list [ (1, "br"); (3, loc) ]))
        .Planner.verdict
    with
    | Ok _ -> "valid"
    | Error (Planner.Not_compliant _) -> "not-compliant"
    | Error (Planner.Insecure _) -> "insecure"
    | Error (Planner.Unserved _) -> "unserved"
    | Error (Planner.Outside_fragment _) -> "outside-fragment"
  in
  Alcotest.(check string) "{1[br],3[s1]}: s1 black-listed" "insecure"
    (verdict "s1");
  Alcotest.(check string) "{1[br],3[s2]}: Del unhandled" "not-compliant"
    (verdict "s2");
  Alcotest.(check string) "{1[br],3[s3]} = pi1" "valid" (verdict "s3");
  Alcotest.(check string) "{1[br],3[s4]}: price/rating thresholds" "insecure"
    (verdict "s4")

(* --- plan synthesis vs repository size (B2) ---------------------------
   With the broker and k compliant, cheap hotels, request 1 binds one of
   k+1 services and, under the broker, request 3 one of k+1 again:
   k + (k+1) = 2k+1 complete plans for C1, valid exactly when they go
   through the broker to a hotel. *)

let test_plans_vs_repository_size () =
  let client = ("c1", Scenarios.Hotel.client1) in
  for k = 1 to 16 do
    let repo =
      ("br", Scenarios.Hotel.broker)
      :: List.init k (fun i ->
             let loc = Fmt.str "h%d" i in
             (loc, Scenarios.Hotel.hotel loc ~price:(40 + i) ~rating:100 ~extra:[]))
    in
    Alcotest.(check (pair int int))
      (Fmt.str "%d hotels: plans, valid plans" k)
      ((2 * k) + 1, k)
      ( List.length (Planner.enumerate repo ~client),
        List.length (Planner.valid_plans ~all:false repo ~client) )
  done

(* --- interleaved state space vs number of clients (B4) ----------------
   k copies of C1 under pi1 interleave freely: 13^k states, and each of
   the k clients contributes its 14 moves from every state of the
   others, k * 14 * 13^(k-1) transitions. *)

let test_interleaved_space () =
  let rec pow b = function 0 -> 1 | e -> b * pow b (e - 1) in
  List.iter
    (fun k ->
      let clients =
        List.init k (fun i ->
            (Scenarios.Hotel.plan1, (Fmt.str "c%d" i, Scenarios.Hotel.client1)))
      in
      let s = Netcheck.explore_interleaved repo clients in
      Alcotest.(check (pair int int))
        (Fmt.str "%d clients: states, transitions" k)
        (pow 13 k, k * 14 * pow 13 (k - 1))
        (s.Netcheck.states, s.Netcheck.transitions))
    [ 1; 2; 3 ]

let suite =
  suite
  @ [
      Alcotest.test_case "failure reasons for C1 (E4)" `Quick
        test_plan_failures_c1;
      Alcotest.test_case "plans vs repository size (B2)" `Quick
        test_plans_vs_repository_size;
      Alcotest.test_case "interleaved state space (B4)" `Quick
        test_interleaved_space;
    ]
