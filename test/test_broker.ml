(* The incremental orchestration broker: the oracle-replay property
   (every served verdict is byte-identical to a cold recomputation on
   the repository as it stood), the zero-invalidation regression for
   plan-irrelevant publishes, admission control, sessions, and the
   script front-end. *)

open Core

let process b r = Broker.process b r

let outcome b r = (process b r).Broker.outcome

let check_served ?cached msg o =
  match o with
  | Broker.Served { cached = got; _ } -> (
      match cached with
      | None -> ()
      | Some c -> Alcotest.(check bool) (msg ^ " (cached?)") c got)
  | o -> Alcotest.failf "%s: expected Served, got %a" msg Broker.pp_outcome o

(* ------------------------------------------------------------------ *)
(* The canned churn scenario *)

let test_canned_script () =
  let b = Broker.create Scenarios.Churn.repo in
  let responses = ref [] in
  Broker.Journal.run (Broker.Journal.feed b)
    ~emit:(fun r -> responses := r :: !responses)
    (List.mapi (fun i item -> (i, item)) Scenarios.Churn.script);
  Alcotest.(check bool) "responses produced" true (!responses <> []);
  (match !responses with
  | { Broker.outcome = Broker.Ran { completed; _ }; _ } :: _ ->
      Alcotest.(check bool) "final run completed" true completed
  | r :: _ ->
      Alcotest.failf "last response not Ran: %a" Broker.pp_response r
  | [] -> Alcotest.fail "no responses");
  let st = Broker.stats b in
  (* c2's plan {2[br], 3[s4]} is unexposed: its one earlier choice at
     site 3 leaves no site open, so the appended s3b cannot precede it
     and c2's last serve hits too *)
  Alcotest.(check int) "hits (both re-serves after noise, c2 after s3b)" 3
    st.Broker.hits;
  Alcotest.(check int) "misses" 3 st.Broker.misses;
  Alcotest.(check int) "shed" 0 st.Broker.shed;
  Alcotest.(check int) "degraded" 0 st.Broker.degraded;
  Alcotest.(check int) "invalidations (c1's retracted s3 only)" 1
    st.Broker.invalidations

(* ------------------------------------------------------------------ *)
(* The oracle-replay property: after an arbitrary interleaving of
   serves, publishes, retracts and session churn, every serve answer
   equals what a from-scratch planner computes on the current
   repository. *)

(* The plans a cold planner analyzes to reach [verdict]: every
   enumerated plan up to the first valid one, or all of them. *)
let cold_cost repo ~client verdict =
  let plans = Planner.enumerate repo ~client in
  match verdict with
  | Broker.Index.No_plan -> List.length plans
  | Broker.Index.Valid r ->
      let rec upto i = function
        | [] -> i
        | p :: rest ->
            if Plan.equal p r.Planner.plan then i + 1 else upto (i + 1) rest
      in
      upto 0 plans

let replay_against_oracle items =
  let b = Broker.create Scenarios.Churn.repo in
  let mismatches = ref 0 and compared = ref 0 and cold = ref 0 in
  let handle (r : Broker.response) =
    match (r.Broker.request, r.Broker.outcome) with
    | ( Broker.Serve { client },
        (Broker.Served _ | Broker.Rejected Broker.No_plan) ) -> (
        match List.assoc_opt client (Broker.clients b) with
        | None -> ()
        | Some body ->
            incr compared;
            let got =
              match r.Broker.outcome with
              | Broker.Served { report; _ } -> Broker.Index.Valid report
              | _ -> Broker.Index.No_plan
            in
            let expect =
              Broker.Oracle.serve (Broker.repo b) ~client:(client, body)
            in
            cold := !cold + cold_cost (Broker.repo b) ~client:(client, body) expect;
            if not (Broker.verdict_equal got expect) then incr mismatches)
    | _ -> ()
  in
  Broker.Journal.run (Broker.Journal.feed b) ~emit:handle
    (List.mapi (fun i item -> (i, item)) items);
  (b, !compared, !mismatches, !cold)

let prop_oracle_replay =
  QCheck.Test.make ~count:6 ~name:"broker serves = cold oracle (workloads)"
    (QCheck.make QCheck.Gen.(int_bound 10_000))
    (fun seed ->
      let profile =
        {
          (Testkit.Workload.default ~clients:Scenarios.Churn.clients
             ~spares:Scenarios.Churn.spares ~noise:Scenarios.Churn.noise)
          with
          Testkit.Workload.seed;
          requests = 60;
        }
      in
      let items, _ = Testkit.Workload.generate profile in
      let _, compared, mismatches, _ = replay_against_oracle items in
      compared > 0 && mismatches = 0)

(* ------------------------------------------------------------------ *)
(* Invalidation precision *)

let noise_service = List.hd Scenarios.Churn.noise

let spare_service = List.hd Scenarios.Churn.spares

let open_c1 b =
  outcome b
    (Broker.Open
       { client = "c1"; body = List.assoc "c1" Scenarios.Churn.clients })

let test_noise_publish_invalidates_nothing () =
  let b = Broker.create Scenarios.Churn.repo in
  ignore (open_c1 b);
  check_served ~cached:false "first serve" (outcome b (Broker.Serve { client = "c1" }));
  let loc, service = noise_service in
  (match outcome b (Broker.Publish { loc; service }) with
  | Broker.Ack -> ()
  | o -> Alcotest.failf "publish: %a" Broker.pp_outcome o);
  let st = Broker.stats b in
  Alcotest.(check int) "zero invalidations for a plan-irrelevant publish" 0
    st.Broker.invalidations;
  Alcotest.(check int) "entry survives" 1 (Broker.index_size b);
  check_served ~cached:true "re-serve hits"
    (outcome b (Broker.Serve { client = "c1" }))

let oracle_equal b client report =
  let body = List.assoc client (Broker.clients b) in
  Broker.verdict_equal (Broker.Index.Valid report)
    (Broker.Oracle.serve (Broker.repo b) ~client:(client, body))

(* The netcheck universe of an entry is every policy of the repository
   plus its client's own, so a service that brings a new policy, or
   takes the last copy of one away, drops every entry — even when no
   site can talk to it. A second copy of a policy changes nothing. *)
let test_universe_change_drops () =
  let b = Broker.create Scenarios.Churn.repo in
  let clients = [ "c1"; "c2" ] in
  List.iter
    (fun client ->
      let body = List.assoc client Scenarios.Churn.clients in
      ignore (outcome b (Broker.Open { client; body }));
      ignore (outcome b (Broker.Serve { client })))
    clients;
  let framed name =
    Hexpr.frame
      (Usage.Policy_lib.instantiate0
         (Usage.Policy_lib.never_after ~first:"log" ~then_:"wipe"))
      (Hexpr.branch
         [
           ( "audit",
             Hexpr.seq (Hexpr.ev ~arg:(Usage.Value.str name) "log")
               (Hexpr.send "ok") );
         ])
  in
  let step msg request ~dropped ~cached =
    let before = (Broker.stats b).Broker.invalidations in
    ignore (outcome b request);
    Alcotest.(check int) (msg ^ ": invalidations") dropped
      ((Broker.stats b).Broker.invalidations - before);
    List.iter
      (fun client ->
        match outcome b (Broker.Serve { client }) with
        | Broker.Served { report; cached = got; _ } ->
            Alcotest.(check bool) (msg ^ ": " ^ client ^ " cached?") cached got;
            Alcotest.(check bool) (msg ^ ": " ^ client ^ " = oracle") true
              (oracle_equal b client report)
        | o -> Alcotest.failf "%s: %s: %a" msg client Broker.pp_outcome o)
      clients
  in
  step "a new policy" ~dropped:2 ~cached:false
    (Broker.Publish { loc = "audit3"; service = framed "audit3" });
  step "a second copy" ~dropped:0 ~cached:true
    (Broker.Publish { loc = "audit4"; service = framed "audit4" });
  step "one copy left" ~dropped:0 ~cached:true
    (Broker.Retract { loc = "audit3" });
  step "the last copy gone" ~dropped:2 ~cached:false
    (Broker.Retract { loc = "audit4" })

(* c1's plan {1[br], 3[s3]} is unexposed: br is the first location, and
   every earlier choice at site 3 leaves no site to bind, so the spare
   hotel, although it talks to site 3, is appended after the plan in
   enumeration order and cannot displace it. *)
let test_relevant_publish_keeps_unexposed () =
  let b = Broker.create Scenarios.Churn.repo in
  ignore (open_c1 b);
  check_served ~cached:false "first serve" (outcome b (Broker.Serve { client = "c1" }));
  let loc, service = spare_service in
  ignore (outcome b (Broker.Publish { loc; service }));
  Alcotest.(check int) "relevant publish keeps the unexposed plan" 0
    (Broker.stats b).Broker.invalidations;
  (match outcome b (Broker.Serve { client = "c1" }) with
  | Broker.Served { report; cached; _ } ->
      Alcotest.(check bool) "re-serve hits" true cached;
      Alcotest.(check bool) "hit = oracle" true (oracle_equal b "c1" report)
  | o -> Alcotest.failf "re-serve: %a" Broker.pp_outcome o);
  (* retract the plan's hotel: the client fails over to the spare, and
     the answer still matches the cold oracle *)
  (match outcome b (Broker.Retract { loc = "s3" }) with
  | Broker.Ack -> ()
  | o -> Alcotest.failf "retract: %a" Broker.pp_outcome o);
  match outcome b (Broker.Serve { client = "c1" }) with
  | Broker.Served { report; _ } ->
      Alcotest.(check bool) "failover verdict = oracle" true
        (oracle_equal b "c1" report)
  | o -> Alcotest.failf "serve after retract: %a" Broker.pp_outcome o

(* A cached No_plan keeps the old rule: a publish some site can talk to
   drops it. No hotel of the repository passes this policy, the spare
   does. *)
let test_relevant_publish_drops_no_plan () =
  let b = Broker.create Scenarios.Churn.repo in
  let policy =
    Usage.Policy_lib.hotel_policy ~blacklist:[ "s1"; "s3" ] ~price:40
      ~rating:100
  in
  let body =
    Hexpr.open_ ~rid:7 ~policy (Scenarios.Hotel.client_request_body policy)
  in
  ignore (outcome b (Broker.Open { client = "picky"; body }));
  (match outcome b (Broker.Serve { client = "picky" }) with
  | Broker.Rejected Broker.No_plan -> ()
  | o -> Alcotest.failf "first serve: %a" Broker.pp_outcome o);
  let loc, service = spare_service in
  ignore (outcome b (Broker.Publish { loc; service }));
  Alcotest.(check int) "relevant publish drops the No_plan entry" 1
    (Broker.stats b).Broker.invalidations;
  match outcome b (Broker.Serve { client = "picky" }) with
  | Broker.Served { report; cached; _ } ->
      Alcotest.(check bool) "re-serve recomputes" false cached;
      Alcotest.(check bool) "verdict = oracle" true
        (oracle_equal b "picky" report)
  | o -> Alcotest.failf "serve after publish: %a" Broker.pp_outcome o

(* ------------------------------------------------------------------ *)
(* Admission control *)

let test_shedding () =
  let b =
    Broker.create
      ~admission:
        {
          Broker.queue_capacity = 2;
          plan_budget = 64;
          floor = Compliance.Strict;
        }
      Scenarios.Churn.repo
  in
  ignore (open_c1 b);
  let shed = ref 0 and queued = ref 0 in
  for _ = 1 to 4 do
    match Broker.submit b (Broker.Serve { client = "c1" }) with
    | Some { Broker.outcome = Broker.Rejected Broker.Shed; _ } -> incr shed
    | Some r -> Alcotest.failf "unexpected response %a" Broker.pp_response r
    | None -> incr queued
  done;
  Alcotest.(check int) "two queued" 2 !queued;
  Alcotest.(check int) "two shed" 2 !shed;
  Alcotest.(check int) "queued ones drain" 2 (List.length (Broker.drain b));
  Alcotest.(check int) "stats.shed" 2 (Broker.stats b).Broker.shed

let test_degradation () =
  let b =
    Broker.create
      ~admission:
        {
          Broker.queue_capacity = 16;
          plan_budget = 1;
          floor = Compliance.Strict;
        }
      Scenarios.Churn.repo
  in
  ignore (open_c1 b);
  (match outcome b (Broker.Serve { client = "c1" }) with
  | Broker.Degraded { analyzed; enumerated; _ } ->
      Alcotest.(check int) "budget spent" 1 analyzed;
      Alcotest.(check bool) "more candidates existed" true (enumerated > 1)
  | o -> Alcotest.failf "expected Degraded, got %a" Broker.pp_outcome o);
  Alcotest.(check int) "nothing cached" 0 (Broker.index_size b);
  (* raising the budget un-degrades the same request *)
  ignore
    (outcome b
       (Broker.Set_policy { queue = None; budget = Some 64; floor = None }));
  check_served ~cached:false "served once the budget allows"
    (outcome b (Broker.Serve { client = "c1" }));
  Alcotest.(check int) "one degradation recorded" 1
    (Broker.stats b).Broker.degraded

(* ------------------------------------------------------------------ *)
(* Set_policy validation: out-of-range deltas are rejected loudly and
   leave the policy untouched — no silent clamping. *)

let test_set_policy_validation () =
  let b = Broker.create Scenarios.Churn.repo in
  let before = Broker.admission b in
  let rejects msg r =
    match outcome b r with
    | Broker.Rejected (Broker.Invalid_policy m) ->
        Alcotest.(check bool)
          (Fmt.str "%s names the bound (got %S)" msg m)
          true
          (Astring.String.is_infix ~affix:">= 1" m)
    | o ->
        Alcotest.failf "%s: expected Invalid_policy, got %a" msg
          Broker.pp_outcome o
  in
  rejects "zero queue"
    (Broker.Set_policy { queue = Some 0; budget = None; floor = None });
  rejects "negative budget"
    (Broker.Set_policy { queue = None; budget = Some (-3); floor = None });
  rejects "both out of range"
    (Broker.Set_policy { queue = Some (-1); budget = Some 0; floor = None });
  let after = Broker.admission b in
  Alcotest.(check (pair int int))
    "policy untouched after rejection"
    (before.Broker.queue_capacity, before.Broker.plan_budget)
    (after.Broker.queue_capacity, after.Broker.plan_budget);
  (match
     outcome b
       (Broker.Set_policy
          {
            queue = Some 7;
            budget = Some 2;
            floor = Some Compliance.Affectible;
          })
   with
  | Broker.Ack -> ()
  | o -> Alcotest.failf "valid delta: %a" Broker.pp_outcome o);
  let a = Broker.admission b in
  Alcotest.(check (pair int int))
    "valid delta applies" (7, 2)
    (a.Broker.queue_capacity, a.Broker.plan_budget);
  Alcotest.(check string)
    "floor applies" "affectible"
    (Compliance.level_to_string a.Broker.floor)

(* ------------------------------------------------------------------ *)
(* The degradation ladder *)

let burst_admission floor =
  { Broker.queue_capacity = 5; plan_budget = 64; floor }

(* submit [n] serves for c1 without draining; return the full-queue
   responses (sheds or rescues) *)
let overload b n =
  let immediate = ref [] in
  for _ = 1 to n do
    match Broker.submit b (Broker.Serve { client = "c1" }) with
    | Some r -> immediate := r :: !immediate
    | None -> ()
  done;
  List.rev !immediate

let served_level msg o =
  match o with
  | Broker.Served { level; _ } -> Compliance.level_to_string level
  | o -> Alcotest.failf "%s: expected Served, got %a" msg Broker.pp_outcome o

let test_ladder_rescue () =
  (* strict floor: the ladder is pinned and a full queue sheds, exactly
     the pre-ladder behaviour *)
  let strict =
    Broker.create
      ~admission:(burst_admission Compliance.Strict)
      Scenarios.Churn.repo
  in
  ignore (open_c1 strict);
  let immediate = overload strict 8 in
  Alcotest.(check int) "strict floor sheds past capacity" 3
    (List.length immediate);
  List.iter
    (fun (r : Broker.response) ->
      match r.Broker.outcome with
      | Broker.Rejected Broker.Shed -> ()
      | o -> Alcotest.failf "expected Shed, got %a" Broker.pp_outcome o)
    immediate;
  List.iter
    (fun (r : Broker.response) ->
      Alcotest.(check string) "queued serves process strictly" "strict"
        (served_level "strict drain" r.Broker.outcome))
    (Broker.drain strict);
  let strict_shed = (Broker.stats strict).Broker.shed in
  Alcotest.(check int) "strict floor: three shed" 3 strict_shed;
  (* affectible floor, same burst: the full-queue serves are rescued —
     answered immediately at the floor — and the queued ones process at
     pressure-dependent rungs on the way down *)
  let b =
    Broker.create
      ~admission:(burst_admission Compliance.Affectible)
      Scenarios.Churn.repo
  in
  ignore (open_c1 b);
  let body = List.assoc "c1" (Broker.clients b) in
  let immediate = overload b 8 in
  Alcotest.(check int) "same burst, three rescued" 3 (List.length immediate);
  List.iter
    (fun (r : Broker.response) ->
      match r.Broker.outcome with
      | Broker.Served { report; level; cached } ->
          Alcotest.(check string) "rescued at the floor" "affectible"
            (Compliance.level_to_string level);
          Alcotest.(check bool) "rescues are uncached" false cached;
          Alcotest.(check bool) "rescue = cold oracle at the floor" true
            (Broker.verdict_equal (Broker.Index.Valid report)
               (Broker.Oracle.serve ~level:Compliance.Affectible
                  (Broker.repo b) ~client:("c1", body)))
      | o -> Alcotest.failf "expected a rescue, got %a" Broker.pp_outcome o)
    immediate;
  (* drain: depth 4 → affectible, depth 3 → the skip middle rung,
     depth ≤ 2 → strict again *)
  Alcotest.(check (list string))
    "ladder rungs on the way down"
    [ "affectible"; "skip:1"; "strict"; "strict"; "strict" ]
    (List.map
       (fun (r : Broker.response) ->
         served_level "ladder drain" r.Broker.outcome)
       (Broker.drain b));
  let st = Broker.stats b in
  Alcotest.(check int) "nothing shed under the loosened floor" 0
    st.Broker.shed;
  Alcotest.(check int) "rescues counted" 3 st.Broker.rescued;
  Alcotest.(check bool) "shed rate strictly below the strict-only run"
    true
    (st.Broker.shed < strict_shed);
  Alcotest.(check int) "level mix: strict serves" 3 st.Broker.served_strict;
  Alcotest.(check int) "level mix: skip serves" 1 st.Broker.served_skip;
  Alcotest.(check int) "level mix: affectible serves (incl. rescues)" 4
    st.Broker.served_affectible

(* ------------------------------------------------------------------ *)
(* Loosened levels change answers; the index is level-aware *)

let loose_binding msg (r : Core.Planner.report) =
  match List.assoc_opt Scenarios.Loose.rid (Core.Plan.bindings r.Core.Planner.plan) with
  | Some loc -> loc
  | None -> Alcotest.failf "%s: request %d unbound" msg Scenarios.Loose.rid

let test_loose_oracle_levels () =
  let client = ("c", Scenarios.Loose.client) in
  (match Broker.Oracle.serve Scenarios.Loose.repo ~client with
  | Broker.Index.No_plan -> ()
  | Broker.Index.Valid _ ->
      Alcotest.fail "strict admits the loose supplier");
  let valid_at repo level expect =
    match Broker.Oracle.serve ~level repo ~client with
    | Broker.Index.Valid r ->
        Alcotest.(check string)
          (Fmt.str "binding at %s" (Compliance.level_to_string level))
          expect
          (loose_binding "oracle" r)
    | Broker.Index.No_plan ->
        Alcotest.failf "no plan at %s" (Compliance.level_to_string level)
  in
  valid_at Scenarios.Loose.repo (Compliance.Skip_k 1) "ls";
  valid_at Scenarios.Loose.repo Compliance.Affectible "ls";
  (* skip-0 is strict by another name: still no plan *)
  (match Broker.Oracle.serve ~level:(Compliance.Skip_k 0) Scenarios.Loose.repo ~client with
  | Broker.Index.No_plan -> ()
  | Broker.Index.Valid _ -> Alcotest.fail "skip:0 admits what strict rejects");
  (* with a sound supplier behind the loose one, strict skips to it
     while the loosened levels stop at the first (loose) candidate *)
  valid_at Scenarios.Loose.repo_with_sound Compliance.Strict "ss";
  valid_at Scenarios.Loose.repo_with_sound (Compliance.Skip_k 1) "ls";
  valid_at Scenarios.Loose.repo_with_sound Compliance.Affectible "ls"

let test_level_aware_cache () =
  let b =
    Broker.create
      ~admission:(burst_admission (Compliance.Skip_k 1))
      Scenarios.Loose.repo_with_sound
  in
  (match
     outcome b (Broker.Open { client = "c"; body = Scenarios.Loose.client })
   with
  | Broker.Ack -> ()
  | o -> Alcotest.failf "open: %a" Broker.pp_outcome o);
  let bindings = ref [] in
  let record (r : Broker.response) =
    match r.Broker.outcome with
    | Broker.Served { report; level; cached } ->
        bindings :=
          ( Compliance.level_to_string level,
            loose_binding "serve" report,
            cached )
          :: !bindings
    | o -> Alcotest.failf "expected Served, got %a" Broker.pp_outcome o
  in
  let immediate = ref [] in
  for _ = 1 to 6 do
    match Broker.submit b (Broker.Serve { client = "c" }) with
    | Some r -> immediate := r :: !immediate
    | None -> ()
  done;
  List.iter record (List.rev !immediate);
  List.iter record (Broker.drain b);
  (* the rescue and the high-pressure serves answer [ls] at skip:1;
     once pressure subsides the same client re-settles strictly on
     [ss] — and each level change is a miss, each repeat a hit *)
  Alcotest.(check (list (triple string string bool)))
    "per-level answers and cache behaviour"
    [
      ("skip:1", "ls", false) (* rescue: uncached *);
      ("skip:1", "ls", false) (* first queued serve: miss, cached *);
      ("skip:1", "ls", true) (* same level: hit *);
      ("strict", "ss", false) (* level change: miss, re-settled *);
      ("strict", "ss", true);
      ("strict", "ss", true);
    ]
    (List.rev !bindings);
  let st = Broker.stats b in
  Alcotest.(check (pair int int)) "misses per level change, hits on repeats"
    (3, 3)
    (st.Broker.misses, st.Broker.hits)

(* ------------------------------------------------------------------ *)
(* Sessions *)

let test_sessions () =
  let b = Broker.create Scenarios.Churn.repo in
  (match outcome b (Broker.Serve { client = "ghost" }) with
  | Broker.Rejected (Broker.Unknown_client _) -> ()
  | o -> Alcotest.failf "serve unknown: %a" Broker.pp_outcome o);
  (match outcome b (Broker.Run { client = "ghost"; seed = 1 }) with
  | Broker.Rejected (Broker.Unknown_client _) -> ()
  | o -> Alcotest.failf "run unknown: %a" Broker.pp_outcome o);
  ignore (open_c1 b);
  (* run before a successful serve is refused *)
  (match outcome b (Broker.Run { client = "c1"; seed = 1 }) with
  | Broker.Rejected (Broker.Not_served _) -> ()
  | o -> Alcotest.failf "run before serve: %a" Broker.pp_outcome o);
  check_served "serve" (outcome b (Broker.Serve { client = "c1" }));
  (match outcome b (Broker.Run { client = "c1"; seed = 1 }) with
  | Broker.Ran { completed; _ } ->
      Alcotest.(check bool) "run completed" true completed
  | o -> Alcotest.failf "run: %a" Broker.pp_outcome o);
  (* close evicts; serving again is refused *)
  ignore (outcome b (Broker.Close { client = "c1" }));
  Alcotest.(check int) "entry evicted on close" 0 (Broker.index_size b);
  (match outcome b (Broker.Serve { client = "c1" }) with
  | Broker.Rejected (Broker.Unknown_client _) -> ()
  | o -> Alcotest.failf "serve after close: %a" Broker.pp_outcome o);
  (* registration order, which snapshots record: a re-open keeps its
     place, a close and open moves the client to the end *)
  let open_ client =
    ignore
      (outcome b
         (Broker.Open { client; body = List.assoc client Scenarios.Churn.clients }))
  in
  let order () = List.map fst (Broker.clients b) in
  List.iter open_ [ "c1"; "c2"; "c3" ];
  open_ "c1";
  Alcotest.(check (list string)) "re-open keeps its place" [ "c1"; "c2"; "c3" ]
    (order ());
  ignore (outcome b (Broker.Close { client = "c1" }));
  open_ "c1";
  Alcotest.(check (list string)) "close and open moves to the end"
    [ "c2"; "c3"; "c1" ] (order ())

let test_repository_guards () =
  let b = Broker.create Scenarios.Churn.repo in
  let _, service = spare_service in
  (match outcome b (Broker.Publish { loc = "s3"; service }) with
  | Broker.Rejected (Broker.Duplicate_location _) -> ()
  | o -> Alcotest.failf "duplicate publish: %a" Broker.pp_outcome o);
  (match outcome b (Broker.Retract { loc = "nowhere" }) with
  | Broker.Rejected (Broker.Unknown_location _) -> ()
  | o -> Alcotest.failf "retract unknown: %a" Broker.pp_outcome o);
  match outcome b (Broker.Update { loc = "nowhere"; service }) with
  | Broker.Rejected (Broker.Unknown_location _) -> ()
  | o -> Alcotest.failf "update unknown: %a" Broker.pp_outcome o

(* ------------------------------------------------------------------ *)
(* The script front-end *)

let hexpr_of_string src =
  if String.equal src "BAD" then failwith "unparsable" else Hexpr.ev src

let test_script_parse () =
  let text =
    "# a comment line\n\
     \n\
     open c1 = x\n\
     serve c1\n\
     orchestrate c1\n\
     publish s9 = y\n\
     update s9 = z\n\
     retract s9\n\
     run c1 seed 7\n\
     policy queue 8 budget 3\n\
     policy floor skip:2\n\
     policy queue 4 budget 2 floor affectible\n\
     policy floor strict\n\
     tick\n\
     drain\n\
     close c1\n"
  in
  match Broker.Script.parse ~hexpr_of_string text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok items -> Alcotest.(check int) "all lines parsed" 14 (List.length items)

let test_script_errors () =
  let fails text expected_line =
    match Broker.Script.parse ~hexpr_of_string text with
    | Ok _ -> Alcotest.failf "expected a parse error for %S" text
    | Error e ->
        Alcotest.(check bool)
          (Fmt.str "%S reports line %d (got %S)" text expected_line e)
          true
          (Astring.String.is_prefix
             ~affix:(Printf.sprintf "line %d:" expected_line)
             e)
  in
  fails "serve c1\nfrobnicate x\n" 2;
  fails "open c1 = BAD\n" 1;
  fails "serve\n" 1;
  fails "policy quux 3\n" 1;
  (* out-of-range policy values fail at parse time, with a position —
     not silently clamped, not deferred to a mid-replay rejection *)
  fails "policy queue 0\n" 1;
  fails "tick\npolicy budget -2\n" 2;
  fails "policy floor bogus\n" 1;
  fails "# comment\n\nrun c1 seed x\n" 3

let test_script_error_tokens () =
  let error_of ?file text =
    match Broker.Script.parse ?file ~hexpr_of_string text with
    | Ok _ -> Alcotest.failf "expected a parse error for %S" text
    | Error e -> e
  in
  let mentions text token =
    Alcotest.(check bool)
      (Fmt.str "%S names the offending token %S" text token)
      true
      (Astring.String.is_infix ~affix:token (error_of text))
  in
  (* the offending token, not just a position *)
  mentions "frobnicate x\n" "frobnicate";
  mentions "policy quux 3\n" "quux";
  mentions "policy queue\n" "queue needs a value";
  mentions "policy queue many\n" "many";
  mentions "policy queue 0\n" ">= 1";
  mentions "policy budget -2\n" ">= 1";
  mentions "policy floor\n" "floor needs a value";
  mentions "policy floor bogus\n" "bogus";
  mentions "run c1 seed x\n" "\"x\"";
  mentions "open c1 = BAD\n" "unparsable";
  mentions "serve a b\n" "serve NAME";
  mentions "publish s9\n" "publish NAME = HEXPR";
  (* ~file switches the position prefix to FILE:LINE: *)
  Alcotest.(check bool)
    "file-qualified position" true
    (Astring.String.is_prefix ~affix:"w.script:2:"
       (error_of ~file:"w.script" "serve c1\nfrobnicate x\n"))

(* ------------------------------------------------------------------ *)
(* The orchestrate admission path *)

(* serve-first: a client with a 1:1 plan is Served, and the synthesis
   tier is never consulted — pinned on the metric, not just the
   outcome shape *)
let test_orchestrate_serve_first () =
  Obs.Metrics.install ();
  Fun.protect ~finally:Obs.Metrics.uninstall @@ fun () ->
  let b = Broker.create Scenarios.Hotel.repo in
  (match
     outcome b (Broker.Open { client = "c1"; body = Scenarios.Hotel.client1 })
   with
  | Broker.Ack -> ()
  | o -> Alcotest.failf "open: %a" Broker.pp_outcome o);
  check_served "orchestrate with a 1:1 plan"
    (outcome b (Broker.Orchestrate { client = "c1" }));
  let snap = Obs.Metrics.snapshot () in
  let counter name =
    Option.value ~default:0 (List.assoc_opt name snap.Obs.Metrics.counters)
  in
  Alcotest.(check int) "synthesis never ran" 0
    (counter "orchestration.synthesis.runs");
  Alcotest.(check bool) "the orchestrate request is counted" true
    (counter "broker.orchestrate.requests" > 0)

let test_orchestrate_synthesizes () =
  let repo, (name, body) = Scenarios.Supply_chain.chain ~parties:4 in
  let b = Broker.create repo in
  ignore (outcome b (Broker.Open { client = name; body }));
  (* plain serve finds nothing 1:1… *)
  (match outcome b (Broker.Serve { client = name }) with
  | Broker.Rejected Broker.No_plan -> ()
  | o -> Alcotest.failf "serve: %a" Broker.pp_outcome o);
  (* …orchestrate settles the same session by synthesis *)
  let index_before = Broker.index_size b in
  (match outcome b (Broker.Orchestrate { client = name }) with
  | Broker.Orchestrated { coalitions; states; transitions } ->
      Alcotest.(check (list (pair int (list string))))
        "the coalition spans the whole chain"
        [ (70, [ "sc1"; "sc2"; "sc3" ]) ]
        coalitions;
      Alcotest.(check int) "controller states" 7 states;
      Alcotest.(check int) "controller transitions" 6 transitions
  | o -> Alcotest.failf "orchestrate: %a" Broker.pp_outcome o);
  let st = Broker.stats b in
  Alcotest.(check int) "orchestration counts as a serve" 1 st.Broker.served;
  (* synthesis is recomputed per request, never cached in the index *)
  Alcotest.(check int) "orchestrate caches nothing" index_before
    (Broker.index_size b)

let test_orchestrate_declines () =
  let b = Broker.create Scenarios.Marketplace.repo_no_escrow in
  ignore
    (outcome b
       (Broker.Open
          { client = "buyer"; body = snd Scenarios.Marketplace.buyer }));
  (match outcome b (Broker.Orchestrate { client = "buyer" }) with
  | Broker.Rejected (Broker.No_orchestration msg) ->
      Alcotest.(check bool)
        "the decline names the undeliverable channel" true
        (Astring.String.is_infix ~affix:"pay" msg)
  | o -> Alcotest.failf "orchestrate: %a" Broker.pp_outcome o);
  match outcome b (Broker.Orchestrate { client = "ghost" }) with
  | Broker.Rejected (Broker.Unknown_client _) -> ()
  | o -> Alcotest.failf "unknown client: %a" Broker.pp_outcome o

(* the journal codec round-trips the new verb *)
let test_orchestrate_script_codec () =
  let line =
    Broker.Script.request_line ~hexpr_to_string:Hexpr.to_string
      (Broker.Orchestrate { client = "c1" })
  in
  Alcotest.(check string) "rendered" "orchestrate c1" line;
  match Broker.Script.request_of_line ~hexpr_of_string line with
  | Ok (Broker.Orchestrate { client }) ->
      Alcotest.(check string) "parsed back" "c1" client
  | Ok r -> Alcotest.failf "parsed to %a" Broker.pp_request r
  | Error e -> Alcotest.failf "parse failed: %s" e

(* ------------------------------------------------------------------ *)
(* The mediate admission path: the full repair ladder behind one verb *)

(* serve-first: a client with a 1:1 plan is Served and neither
   synthesis tier runs — pinned on the metrics *)
let test_mediate_serve_first () =
  Obs.Metrics.install ();
  Fun.protect ~finally:Obs.Metrics.uninstall @@ fun () ->
  let b = Broker.create Scenarios.Hotel.repo in
  (match
     outcome b (Broker.Open { client = "c1"; body = Scenarios.Hotel.client1 })
   with
  | Broker.Ack -> ()
  | o -> Alcotest.failf "open: %a" Broker.pp_outcome o);
  check_served "mediate with a 1:1 plan"
    (outcome b (Broker.Mediate { client = "c1" }));
  let snap = Obs.Metrics.snapshot () in
  let counter name =
    Option.value ~default:0 (List.assoc_opt name snap.Obs.Metrics.counters)
  in
  Alcotest.(check int) "mediator synthesis never ran" 0
    (counter "mediator.synthesis.runs");
  Alcotest.(check bool) "the mediate request is counted" true
    (counter "broker.mediate.requests" > 0)

let test_mediate_heals () =
  let b = Broker.create Scenarios.Mismatched.repo in
  ignore
    (outcome b
       (Broker.Open
          { client = "shopper"; body = Scenarios.Mismatched.buffer_client }));
  (* plain serve finds nothing 1:1… *)
  (match outcome b (Broker.Serve { client = "shopper" }) with
  | Broker.Rejected Broker.No_plan -> ()
  | o -> Alcotest.failf "serve: %a" Broker.pp_outcome o);
  (* …mediate heals the same session with a synthesized adapter *)
  let index_before = Broker.index_size b in
  (match outcome b (Broker.Mediate { client = "shopper" }) with
  | Broker.Mediated { healed; direct; states; steps } ->
      Alcotest.(check (list (triple int string string)))
        "healed via the buffer adapter"
        [
          ( Scenarios.Mismatched.buffer_rid,
            "m_buffer",
            Fmt.str "m_buffer~med%d" Scenarios.Mismatched.buffer_rid );
        ]
        healed;
      Alcotest.(check (list (pair int string))) "nothing bound directly" []
        direct;
      Alcotest.(check bool) "adapter has states" true (states > 0);
      Alcotest.(check bool) "repair steps recorded" true (steps > 0)
  | o -> Alcotest.failf "mediate: %a" Broker.pp_outcome o);
  let st = Broker.stats b in
  Alcotest.(check int) "mediation counts as a serve" 1 st.Broker.served;
  (* repairs are recomputed per request, never cached in the index *)
  Alcotest.(check int) "mediate caches nothing" index_before
    (Broker.index_size b)

let test_mediate_declines () =
  let b = Broker.create Scenarios.Mismatched.witness_repo in
  ignore
    (outcome b
       (Broker.Open
          { client = "stuck"; body = Scenarios.Mismatched.witness_client }));
  (match outcome b (Broker.Mediate { client = "stuck" }) with
  | Broker.Rejected (Broker.No_mediation msg) ->
      Alcotest.(check bool) "the decline carries the mediation trace" true
        (Astring.String.is_infix ~affix:"unmediable" msg)
  | o -> Alcotest.failf "mediate: %a" Broker.pp_outcome o);
  match outcome b (Broker.Mediate { client = "ghost" }) with
  | Broker.Rejected (Broker.Unknown_client _) -> ()
  | o -> Alcotest.failf "unknown client: %a" Broker.pp_outcome o

(* the journal codec round-trips the new verb *)
let test_mediate_script_codec () =
  let line =
    Broker.Script.request_line ~hexpr_to_string:Hexpr.to_string
      (Broker.Mediate { client = "c1" })
  in
  Alcotest.(check string) "rendered" "mediate c1" line;
  match Broker.Script.request_of_line ~hexpr_of_string line with
  | Ok (Broker.Mediate { client }) ->
      Alcotest.(check string) "parsed back" "c1" client
  | Ok r -> Alcotest.failf "parsed to %a" Broker.pp_request r
  | Error e -> Alcotest.failf "parse failed: %s" e

(* ------------------------------------------------------------------ *)
(* B8: the churn workload at full size, and a burst past the queue *)

(* The default seeded workload (240 requests): it must meet its churn
   floors, every serve must match the cold oracle, and the dependency-
   tracked index must analyze at least 5x fewer plans than the cold
   planner would. *)
let test_churn_workload () =
  let items, counts =
    Testkit.Workload.generate
      (Testkit.Workload.default ~clients:Scenarios.Churn.clients
         ~spares:Scenarios.Churn.spares ~noise:Scenarios.Churn.noise)
  in
  let submissions =
    List.length
      (List.filter (function Broker.Script.Submit _ -> true | _ -> false) items)
  in
  let churned = counts.Testkit.Workload.publishes + counts.retracts in
  Alcotest.(check bool)
    (Fmt.str "workload floors: %d requests, %d publish/retract" submissions
       churned)
    true
    (submissions >= 200 && churned >= 20);
  let b, compared, mismatches, cold = replay_against_oracle items in
  Alcotest.(check int)
    (Fmt.str "verdict mismatches vs cold oracle (%d serves compared)" compared)
    0 mismatches;
  let analyzed = (Broker.stats b).Broker.analyzed in
  Alcotest.(check bool)
    (Fmt.str "broker analyzed %d plans, cold %d: at least 5x fewer" analyzed
       cold)
    true
    (cold >= 5 * max 1 analyzed)

(* Every churn client open, then 12 serves without draining at queue
   capacity 4: a strict floor sheds the 8 past capacity; an affectible
   floor rescues them instead, each matching the cold oracle at the
   level it was answered at. *)
let test_burst_admission () =
  let burst floor =
    let b =
      Broker.create
        ~admission:{ Broker.queue_capacity = 4; plan_budget = 64; floor }
        Scenarios.Churn.repo
    in
    List.iter
      (fun (client, body) -> ignore (process b (Broker.Open { client; body })))
      Scenarios.Churn.clients;
    (b, overload b 12)
  in
  let strict, immediate = burst Compliance.Strict in
  ignore (Broker.drain strict);
  Alcotest.(check int) "burst of 12 serves past queue capacity 4: shed" 8
    (List.length
       (List.filter
          (fun (r : Broker.response) ->
            match r.Broker.outcome with
            | Broker.Rejected Broker.Shed -> true
            | _ -> false)
          immediate));
  let loose, immediate = burst Compliance.Affectible in
  let body = List.assoc "c1" (Broker.clients loose) in
  List.iter
    (fun (r : Broker.response) ->
      match r.Broker.outcome with
      | Broker.Served { report; level; _ } ->
          Alcotest.(check bool)
            "rescued verdict matches the cold oracle at its level" true
            (Broker.verdict_equal (Broker.Index.Valid report)
               (Broker.Oracle.serve ~level (Broker.repo loose)
                  ~client:("c1", body)))
      | _ -> ())
    immediate;
  ignore (Broker.drain loose);
  let shed b = (Broker.stats b).Broker.shed in
  Alcotest.(check bool)
    (Fmt.str "affectible floor sheds less: %d vs %d strict-only" (shed loose)
       (shed strict))
    true
    (shed loose < shed strict)

(* ------------------------------------------------------------------ *)
(* Population-scale bookkeeping *)

(* 2,000 hotel clients over 200 policy classes, each with a plan. Every
   plan binds br, the first location, at its own site, and every earlier
   choice at site 3 leaves no site open, so none is exposed: a hotel
   publish every site can talk to drops nothing, and every re-serve
   hits. A retract drops exactly the clients bound to the location. *)
let test_population_counts () =
  let b = Broker.create Scenarios.Churn.repo in
  let n = 2_000 in
  let name i = Fmt.str "p%d" i in
  for i = 0 to n - 1 do
    let k = i mod 200 in
    let policy =
      Usage.Policy_lib.hotel_policy
        ~blacklist:(if k mod 2 = 0 then [ "s1" ] else [])
        ~price:(30 + (k / 2 mod 10 * 5))
        ~rating:(55 + (k / 20 * 5))
    in
    let body =
      Hexpr.open_ ~rid:(100 + i) ~policy
        (Scenarios.Hotel.client_request_body policy)
    in
    ignore (outcome b (Broker.Open { client = name i; body }));
    check_served ~cached:false (name i) (outcome b (Broker.Serve { client = name i }))
  done;
  let invalidations () = (Broker.stats b).Broker.invalidations in
  let loc, service = spare_service in
  ignore (outcome b (Broker.Publish { loc; service }));
  Alcotest.(check int) "relevant hotel publish invalidates nothing" 0
    (invalidations ());
  let hits_before = (Broker.stats b).Broker.hits in
  for i = 0 to n - 1 do
    ignore (outcome b (Broker.Serve { client = name i }))
  done;
  Alcotest.(check int) "every re-serve hits" n
    ((Broker.stats b).Broker.hits - hits_before);
  let bound loc =
    List.filter
      (fun i ->
        match Broker.cached_verdict b (name i) with
        | Some (Broker.Index.Valid r, _) ->
            List.exists (fun (_, l) -> l = loc) (Plan.bindings r.Planner.plan)
        | _ -> false)
      (List.init n Fun.id)
    |> List.length
  in
  let s3_bound = bound "s3" in
  Alcotest.(check bool) "some plans bind s3" true (s3_bound > 0);
  ignore (outcome b (Broker.Retract { loc = "s3" }));
  Alcotest.(check int) "retract drops exactly the clients bound to s3"
    s3_bound (invalidations ());
  Alcotest.(check int) "the rest stay cached" (n - s3_bound)
    (Broker.index_size b)

(* ------------------------------------------------------------------ *)
(* The position-aware publish rule, generated *)

(* Worlds where exposure varies: clients with two or three own sites
   framed by a cross-site never_after policy, and services that fire
   its events, some of which open a nested site. A nested site talks on
   an n-channel, which only site-free services listen on, so no service
   can be bound to serve its own nested site. Every nested site has rid
   10, which keeps the enumeration small: once one service has opened
   it, the others' copies are bound already. *)
let naft =
  Usage.Policy_lib.instantiate0
    (Usage.Policy_lib.never_after ~first:"x" ~then_:"y")

let chan_gen = QCheck.Gen.oneofl [ "m0"; "m1"; "m2" ]
let nested_chan_gen = QCheck.Gen.oneofl [ "n0"; "n1" ]

let service_gen ~nested =
  let open QCheck.Gen in
  let* ev = oneofl [ None; Some "x"; Some "y" ] in
  let* body =
    frequency
      [
        (2, map Hexpr.recv chan_gen);
        (1, map Hexpr.recv nested_chan_gen);
        ( (if nested then 1 else 0),
          map2
            (fun ch ch' ->
              Hexpr.seq (Hexpr.recv ch) (Hexpr.open_ ~rid:10 (Hexpr.send ch')))
            chan_gen nested_chan_gen );
      ]
  in
  return (match ev with None -> body | Some e -> Hexpr.seq (Hexpr.ev e) body)

let client_gen =
  let open QCheck.Gen in
  let* chans = list_size (frequency [ (3, return 2); (1, return 3) ]) chan_gen in
  return
    (Hexpr.frame naft
       (Hexpr.seq_all
          (List.mapi (fun i ch -> Hexpr.open_ ~rid:(i + 1) (Hexpr.send ch)) chans)))

type mutation =
  | Publish_next
  | Retract_nth of int
  | Update_nth of int * Hexpr.t

let world_gen =
  let open QCheck.Gen in
  (* published services are site-free: they come last in enumeration
     order, where a nested site would only widen it *)
  let* repo = list_size (int_range 3 4) (service_gen ~nested:true) in
  let* pool = list_repeat 3 (service_gen ~nested:false) in
  let* clients = list_repeat 2 client_gen in
  let* mutations =
    list_size (int_range 3 6)
      (frequency
         [
           (3, return Publish_next);
           (1, map (fun i -> Retract_nth i) (int_bound 5));
           ( 1,
             map2
               (fun i h -> Update_nth (i, h))
               (int_bound 5) (service_gen ~nested:true) );
         ])
  in
  return
    (List.mapi (fun i h -> (Fmt.str "s%d" i, h)) repo, pool, clients, mutations)

(* The definition the exposure test decides: with [s] published at a
   fresh location, does some plan through it come before [p]? *)
let brute_exposed repo ~client p s =
  let l = "probe" in
  let plans = Planner.enumerate (repo @ [ (l, s) ]) ~client in
  let rec rank i = function
    | [] -> Alcotest.failf "%a is not enumerated" Plan.pp p
    | q :: rest -> if Plan.equal q p then i else rank (i + 1) rest
  in
  let before = rank 0 plans in
  List.exists
    (fun q -> List.exists (fun (_, l') -> l' = l) (Plan.bindings q))
    (List.filteri (fun j _ -> j < before) plans)

(* Over every world: served plans that were unexposed, exposed, and that
   bind the location published just before (a displacement, when the
   client had a plan already). *)
let unexposed_served = ref 0
and exposed_served = ref 0
and displaced = ref 0

let prop_publish_rule =
  QCheck.Test.make ~count:60
    ~name:"publish rule: serves = oracle, exposure = brute force"
    (QCheck.make world_gen)
    (fun (repo, pool, clients, mutations) ->
      let b =
        Broker.create
          ~admission:
            {
              Broker.queue_capacity = 16;
              plan_budget = 100_000;
              floor = Compliance.Strict;
            }
          repo
      in
      let clients = List.mapi (fun i body -> (Fmt.str "c%d" i, body)) clients in
      List.iter
        (fun (client, body) -> ignore (process b (Broker.Open { client; body })))
        clients;
      let pool = ref (List.mapi (fun i h -> (Fmt.str "p%d" i, h)) pool) in
      let nth_loc i =
        let locs = List.map fst (Broker.repo b) in
        if locs = [] then None else Some (List.nth locs (i mod List.length locs))
      in
      let site_free = Hexpr.recv "m0"
      and with_site =
        Hexpr.seq (Hexpr.recv "m0") (Hexpr.open_ ~rid:99 (Hexpr.send "n0"))
      in
      (* serve every client: each answer must equal the cold oracle, and
         each plan's exposure must equal the brute-force definition *)
      let serve_all ~published =
        List.for_all
          (fun (name, body) ->
            let repo = Broker.repo b in
            let oracle = Broker.Oracle.serve repo ~client:(name, body) in
            match (process b (Broker.Serve { client = name })).Broker.outcome with
            | Broker.Served { report; cached; _ } ->
                let plan = report.Planner.plan in
                let exposed = Planner.exposed repo ~client:(name, body) plan in
                incr (if exposed then exposed_served else unexposed_served);
                if
                  (not cached)
                  && List.exists
                       (fun (_, l) -> Some l = published)
                       (Plan.bindings plan)
                then incr displaced;
                Broker.verdict_equal (Broker.Index.Valid report) oracle
                && List.for_all
                     (fun s ->
                       exposed = brute_exposed repo ~client:(name, body) plan s)
                     [ site_free; with_site ]
            | Broker.Rejected Broker.No_plan ->
                Broker.verdict_equal Broker.Index.No_plan oracle
            | o -> QCheck.Test.fail_reportf "serve: %a" Broker.pp_outcome o)
          clients
      in
      serve_all ~published:None
      && List.for_all
           (fun m ->
             let published =
               match m with
               | Publish_next -> (
                   match !pool with
                   | [] -> None
                   | (loc, service) :: rest ->
                       pool := rest;
                       ignore (process b (Broker.Publish { loc; service }));
                       Some loc)
               | Retract_nth i ->
                   Option.iter
                     (fun loc -> ignore (process b (Broker.Retract { loc })))
                     (nth_loc i);
                   None
               | Update_nth (i, service) ->
                   Option.iter
                     (fun loc ->
                       ignore (process b (Broker.Update { loc; service })))
                     (nth_loc i);
                   None
             in
             serve_all ~published)
           mutations)

let test_publish_rule () =
  QCheck.Test.check_exn prop_publish_rule;
  Alcotest.(check bool)
    (Fmt.str "%d unexposed and %d exposed plans served, %d displaced"
       !unexposed_served !exposed_served !displaced)
    true
    (!unexposed_served > 0 && !exposed_served > 0 && !displaced > 0)

let suite =
  [
    Alcotest.test_case "canned churn scenario" `Quick test_canned_script;
    QCheck_alcotest.to_alcotest prop_oracle_replay;
    Alcotest.test_case "2,000 clients: publish keeps, retract drops bound"
      `Quick test_population_counts;
    Alcotest.test_case "publish rule: serves = oracle, exposure = brute force"
      `Quick test_publish_rule;
    Alcotest.test_case "a policy universe change drops every entry" `Quick
      test_universe_change_drops;
    Alcotest.test_case "noise publish invalidates nothing" `Quick
      test_noise_publish_invalidates_nothing;
    Alcotest.test_case "relevant publish keeps unexposed plan" `Quick
      test_relevant_publish_keeps_unexposed;
    Alcotest.test_case "relevant publish drops No_plan" `Quick
      test_relevant_publish_drops_no_plan;
    Alcotest.test_case "queue sheds past capacity" `Quick test_shedding;
    Alcotest.test_case "plan budget degrades, policy raises it" `Quick
      test_degradation;
    Alcotest.test_case "out-of-range policy deltas rejected, not clamped"
      `Quick test_set_policy_validation;
    Alcotest.test_case "ladder rescues full-queue serves at the floor" `Quick
      test_ladder_rescue;
    Alcotest.test_case "oracle answers per level on the loose scenario"
      `Quick test_loose_oracle_levels;
    Alcotest.test_case "index is level-aware" `Quick test_level_aware_cache;
    Alcotest.test_case "session lifecycle" `Quick test_sessions;
    Alcotest.test_case "repository guards" `Quick test_repository_guards;
    Alcotest.test_case "script parses every verb" `Quick test_script_parse;
    Alcotest.test_case "script errors carry line numbers" `Quick
      test_script_errors;
    Alcotest.test_case "script errors name the offending token" `Quick
      test_script_error_tokens;
    Alcotest.test_case "orchestrate serves 1:1 plans without synthesis" `Quick
      test_orchestrate_serve_first;
    Alcotest.test_case "orchestrate synthesizes when serve finds no plan"
      `Quick test_orchestrate_synthesizes;
    Alcotest.test_case "orchestrate declines with a diagnostic" `Quick
      test_orchestrate_declines;
    Alcotest.test_case "orchestrate round-trips the script codec" `Quick
      test_orchestrate_script_codec;
    Alcotest.test_case "mediate serves 1:1 plans without synthesis" `Quick
      test_mediate_serve_first;
    Alcotest.test_case "mediate heals when serve finds no plan" `Quick
      test_mediate_heals;
    Alcotest.test_case "mediate declines unmediable pairs with a trace" `Quick
      test_mediate_declines;
    Alcotest.test_case "mediate round-trips the script codec" `Quick
      test_mediate_script_codec;
    Alcotest.test_case "churn workload vs cold recomputation (B8)" `Quick
      test_churn_workload;
    Alcotest.test_case "burst admission: strict sheds, affectible rescues (B8)"
      `Quick test_burst_admission;
  ]
