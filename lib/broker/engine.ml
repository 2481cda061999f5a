open Core

type admission = {
  queue_capacity : int;
  plan_budget : int;
  floor : Compliance.level;
}

let default_admission =
  { queue_capacity = 16; plan_budget = 64; floor = Compliance.Strict }

type policy_delta = {
  queue : int option;
  budget : int option;
  floor : Compliance.level option;
}

type request =
  | Open of { client : string; body : Hexpr.t }
  | Close of { client : string }
  | Serve of { client : string }
  | Run of { client : string; seed : int }
  | Publish of { loc : string; service : Hexpr.t }
  | Retract of { loc : string }
  | Update of { loc : string; service : Hexpr.t }
  | Set_policy of policy_delta
  | Orchestrate of { client : string }
  | Mediate of { client : string }

type reject =
  | Shed
  | No_plan
  | Not_served of string
  | Unknown_client of string
  | Unknown_location of string
  | Duplicate_location of string
  | Invalid_policy of string
  | No_orchestration of string
      (* rendered decline diagnostic (counterexample trace included) *)
  | No_mediation of string
      (* the whole repair ladder declined; renders both the coalition
         and the mediation decline, counterexample traces included *)

type outcome =
  | Served of {
      report : Planner.report;
      cached : bool;
      level : Compliance.level;
    }
  | Degraded of { analyzed : int; enumerated : int; level : Compliance.level }
  | Rejected of reject
  | Ran of { completed : bool; steps : int }
  | Ack
  | Orchestrated of {
      coalitions : (int * string list) list;  (* rid -> members *)
      states : int;  (* controller states, summed over coalitions *)
      transitions : int;
    }
  | Mediated of {
      healed : (int * string * string) list;
          (* rid, repaired service, adapter location *)
      direct : (int * string) list;  (* sites that bound without repair *)
      states : int;  (* mediated configurations, summed over adapters *)
      steps : int;  (* repair steps, summed *)
    }

type response = { seq : int; request : request; outcome : outcome }

type stats = {
  mutable requests : int;
  mutable served : int;
  mutable hits : int;
  mutable misses : int;
  mutable shed : int;
  mutable degraded : int;
  mutable rejected : int;
  mutable invalidations : int;
  mutable analyzed : int;
  mutable queue_peak : int;
  mutable rescued : int;
  mutable served_strict : int;
  mutable served_skip : int;
  mutable served_affectible : int;
}

type session = { body : Hexpr.t; own_policies : string list }

type t = {
  mutable repo : Network.repo;
  mutable repo_policies : string list;  (* sorted policy ids *)
  mutable sessions : (string * session) list;  (* registration order *)
  index : Index.t;
  compliance : Product.survey Repr.Key.Pair_tbl.t;
      (* the long-lived compliance cache shared across every analysis
         this broker runs, keyed on contract-id pairs as in
         [Planner.analyze]; one survey answers every admission level *)
  mutable adm : admission;
  queue : request Queue.t;
  mutable seq : int;
  mutable journal :
    (seq:int -> level:Compliance.level -> request -> unit) option;
      (* write-ahead hook: called with the sequence number and admission
         level a request is about to be answered with/at, before [apply]
         runs *)
  st : stats;
}

let policy_ids h =
  Hexpr.policies h |> List.map Usage.Policy.id |> List.sort_uniq String.compare

let repo_policy_ids repo =
  List.concat_map (fun (_, h) -> policy_ids h) repo
  |> List.sort_uniq String.compare

(* ---- the degradation ladder ------------------------------------------- *)

(* The admission level a request is processed at, as a function of
   queue pressure. The ladder has (at most) three rungs — Strict, a
   skip-k middle rung, Affectible — and never descends below the
   operator-set floor: with the default [floor = Strict] the broker
   behaves exactly as before (always strict, shed at capacity). With a
   weaker floor, depth up to half the capacity still serves strict,
   depth up to three quarters serves at the middle rung, and beyond
   that at the floor itself; a submission arriving at a *full* queue is
   rescued at the floor level instead of shed ([submit]). *)
let ladder t =
  match t.adm.floor with
  | Compliance.Strict -> Compliance.Strict
  | floor ->
      let d = Queue.length t.queue and c = t.adm.queue_capacity in
      if 2 * d <= c then Compliance.Strict
      else if 4 * d <= 3 * c then
        (match floor with
        | Compliance.Skip_k _ | Compliance.Strict -> floor
        | Compliance.Affectible -> Compliance.Skip_k 1)
      else floor

(* rung of the 3-step ladder, for the [broker.admission.level] gauge:
   0 strict, 1 degraded (skip-k), 2 affectible *)
let level_rung = function
  | Compliance.Strict -> 0
  | Compliance.Skip_k _ -> 1
  | Compliance.Affectible -> 2

let refresh_gauges t =
  Obs.Metrics.set "broker.queue.depth" (Queue.length t.queue);
  Obs.Metrics.set "broker.admission.level" (level_rung (ladder t))

let create ?(admission = default_admission) repo =
  let locs = List.map fst repo in
  if List.length (List.sort_uniq String.compare locs) <> List.length locs then
    invalid_arg "Broker.create: duplicate repository locations";
  let t =
    {
      repo;
      repo_policies = repo_policy_ids repo;
      sessions = [];
      index = Index.create ();
      compliance = Repr.Key.Pair_tbl.create 64;
      adm = admission;
      queue = Queue.create ();
      seq = 0;
      journal = None;
      st =
        {
          requests = 0;
          served = 0;
          hits = 0;
          misses = 0;
          shed = 0;
          degraded = 0;
          rejected = 0;
          invalidations = 0;
          analyzed = 0;
          queue_peak = 0;
          rescued = 0;
          served_strict = 0;
          served_skip = 0;
          served_affectible = 0;
        };
    }
  in
  refresh_gauges t;
  t

let repo t = t.repo
let admission t = t.adm
let stats t = t.st
let index_size t = Index.size t.index
let clients t = List.map (fun (name, s) -> (name, s.body)) t.sessions
let seq t = t.seq
let set_journal t hook = t.journal <- hook

let served_clients t =
  Index.fold t.index (fun acc e -> (e.Index.client, e.Index.level) :: acc) []
  |> List.sort compare

let cached_verdict t name =
  Option.map
    (fun (e : Index.entry) -> (e.Index.verdict, e.Index.level))
    (Index.find t.index name)

(* ---- universe bookkeeping -------------------------------------------- *)

(* The netcheck universe of a cached verdict is every policy of the
   repository plus the client's own ([Netcheck.default_universe]); a
   mutation that changes it can change abstract validity, so entries are
   keyed on it and compared against the would-be universe after each
   mutation. *)
let universe_of t (s : session) =
  List.sort_uniq String.compare (t.repo_policies @ s.own_policies)

(* ---- compliance (shared cache, Planner.analyze keying) --------------- *)

let survey_pair t cb cs =
  let k = (Contract.id cb, Contract.id cs) in
  match Repr.Key.Pair_tbl.find_opt t.compliance k with
  | Some r -> r
  | None ->
      let r = Product.survey cb cs in
      Repr.Key.Pair_tbl.replace t.compliance k r;
      r

let compliant t ~level cb cs = Product.admits level (survey_pair t cb cs)

(* ---- invalidation ---------------------------------------------------- *)

let invalidate_client t name =
  if Index.drop t.index name then begin
    t.st.invalidations <- t.st.invalidations + 1;
    Obs.Metrics.incr "broker.invalidations"
  end

(* Is the service [h] published at a fresh location *relevant* to this
   client — i.e. could any plan binding it be valid? A valid plan must
   bind it compliantly at some request site, so "no site's body is
   compliant with its projection" proves the cached first-valid plan (or
   No_plan) survives the publish. Sites are taken against [repo] (the
   repository *without* the new service: its own sites only become
   reachable once it is bound at a pre-existing one). *)
let publish_relevant t repo h ~level (name, (s : session)) =
  match Contract.project h with
  | exception Contract.Unprojectable _ -> true
  | cs ->
      Planner.sites repo (name, s.body)
      |> List.exists (fun (site : Planner.site) ->
             match Contract.project site.Planner.body with
             | exception Contract.Unprojectable _ -> true
             | cb -> compliant t ~level cb cs)

(* Apply the invalidation contract for a mutation: entries bound to a
   touched location, entries whose policy universe changed, and — when a
   service appears ([Publish]/[Update]) — entries it is relevant to.
   [old_repo] is the repository the relevance sites are computed
   against; callers must not have swapped [t.repo] yet. *)
let invalidate_for_mutation t ~old_repo ~new_repo_policies ~touched_locs
    ~published =
  List.iter
    (fun loc ->
      List.iter (invalidate_client t) (Index.clients_of_loc t.index loc))
    touched_locs;
  let survivors = Index.fold t.index (fun acc e -> e.Index.client :: acc) [] in
  List.iter
    (fun name ->
      match List.assoc_opt name t.sessions with
      | None -> invalidate_client t name
      | Some s ->
          let universe =
            List.sort_uniq String.compare (new_repo_policies @ s.own_policies)
          in
          let entry = Index.find t.index name in
          let stale =
            match entry with
            | None -> false
            | Some e ->
                universe <> e.Index.policies
                ||
                match published with
                | None -> false
                | Some h ->
                    (* relevance is judged at the entry's own level: a
                       service only admissible below it cannot change
                       the entry's first-valid plan *)
                    publish_relevant t old_repo h ~level:e.Index.level (name, s)
          in
          if stale then invalidate_client t name)
    survivors

(* Retire the interned footprint of a withdrawn service: its projection
   (if any) leaves the repository, so drop the memo entries keyed on it
   — the global ones via [Repr.Cache.invalidate], the broker's own
   compliance pairs by hand. Sound regardless of sharing (memo tables
   cache pure functions); at worst a structurally identical service
   elsewhere recomputes. *)
let retire_contract t h =
  match Contract.project h with
  | exception Contract.Unprojectable _ -> ()
  | c ->
      let id = Contract.id c in
      Repr.Cache.invalidate id;
      let doomed =
        Repr.Key.Pair_tbl.fold
          (fun ((a, b) as k) _ acc ->
            if a = id || b = id then k :: acc else acc)
          t.compliance []
      in
      List.iter (Repr.Key.Pair_tbl.remove t.compliance) doomed

(* ---- serving --------------------------------------------------------- *)

let entry_of_verdict t name (s : session) ~level verdict =
  let locs, contracts =
    match verdict with
    | Index.No_plan -> ([], [])
    | Index.Valid (r : Planner.report) ->
        let locs =
          Plan.bindings r.Planner.plan
          |> List.map snd
          |> List.sort_uniq String.compare
        in
        let contracts =
          List.filter_map
            (fun l ->
              match List.assoc_opt l t.repo with
              | None -> None
              | Some h -> (
                  match Contract.project h with
                  | exception Contract.Unprojectable _ -> None
                  | c -> Some c))
            locs
        in
        (locs, contracts)
  in
  let contracts =
    match Contract.project s.body with
    | exception Contract.Unprojectable _ -> contracts
    | c -> c :: contracts
  in
  {
    Index.client = name;
    verdict;
    level;
    locs;
    contracts;
    policies = universe_of t s;
  }

(* The budgeted first-valid search at one admission level. [store]
   decides whether a settled verdict is cached: the queued serve path
   caches, the full-queue rescue path answers without caching (a rescue
   is an overload answer, not a settled verdict — and keeping it out of
   the index keeps recovery replay a pure function of the applied
   prefix). *)
let budgeted_serve t name (s : session) ~level ~store =
  let client = (name, s.body) in
  let plans = Planner.enumerate t.repo ~client in
  let enumerated = List.length plans in
  let budget = t.adm.plan_budget in
  let rec go analyzed = function
    | [] -> `Done (Index.No_plan, analyzed)
    | p :: rest ->
        if analyzed >= budget then `Budget analyzed
        else begin
          t.st.analyzed <- t.st.analyzed + 1;
          let r = Planner.analyze ~cache:t.compliance ~level t.repo ~client p in
          if Result.is_ok r.Planner.verdict then
            `Done (Index.Valid r, analyzed + 1)
          else go (analyzed + 1) rest
        end
  in
  match go 0 plans with
  | `Budget analyzed ->
      t.st.degraded <- t.st.degraded + 1;
      Obs.Metrics.incr "broker.degraded";
      Degraded { analyzed; enumerated; level }
  | `Done (verdict, _) -> (
      if store then Index.store t.index (entry_of_verdict t name s ~level verdict);
      match verdict with
      | Index.Valid r -> Served { report = r; cached = false; level }
      | Index.No_plan -> Rejected No_plan)

let serve_at t ~level ~store name =
  match List.assoc_opt name t.sessions with
  | None -> Rejected (Unknown_client name)
  | Some s -> (
      match Index.find t.index name with
      | Some e when Compliance.equal_level e.Index.level level -> (
          t.st.hits <- t.st.hits + 1;
          Obs.Metrics.incr "broker.cache.hit";
          match e.Index.verdict with
          | Index.Valid r -> Served { report = r; cached = true; level }
          | Index.No_plan -> Rejected No_plan)
      | Some _ | None ->
          (* an entry at another level is a miss: per-level oracle
             equality forbids answering level L from an entry settled
             at L' — enumeration order can admit an earlier plan at the
             weaker level *)
          t.st.misses <- t.st.misses + 1;
          Obs.Metrics.incr "broker.cache.miss";
          budgeted_serve t name s ~level ~store)

let serve t ~level name = serve_at t ~level ~store:true name

(* ---- request processing ---------------------------------------------- *)

let apply t ~level = function
  | Open { client; body } ->
      invalidate_client t client;
      let s = { body; own_policies = policy_ids body } in
      t.sessions <-
        (if List.mem_assoc client t.sessions then
           List.map
             (fun (n, old) -> if n = client then (n, s) else (n, old))
             t.sessions
         else t.sessions @ [ (client, s) ]);
      Ack
  | Close { client } ->
      if not (List.mem_assoc client t.sessions) then
        Rejected (Unknown_client client)
      else begin
        invalidate_client t client;
        t.sessions <- List.remove_assoc client t.sessions;
        Ack
      end
  | Serve { client } -> serve t ~level client
  | Run { client; seed } -> (
      match List.assoc_opt client t.sessions with
      | None -> Rejected (Unknown_client client)
      | Some s -> (
          match Index.find t.index client with
          | None | Some { Index.verdict = Index.No_plan; _ } ->
              Rejected (Not_served client)
          | Some { Index.verdict = Index.Valid r; _ } ->
              let report =
                Runtime.Engine.run ~seed ~fresh_caches:false t.repo
                  [ (r.Planner.plan, (client, s.body)) ]
                  (Simulate.random ~seed)
              in
              Ran
                {
                  completed = Runtime.Engine.completed report;
                  steps =
                    List.length report.Runtime.Engine.trace.Simulate.steps;
                }))
  | Publish { loc; service } ->
      if List.mem_assoc loc t.repo then Rejected (Duplicate_location loc)
      else begin
        let new_repo_policies =
          List.sort_uniq String.compare (t.repo_policies @ policy_ids service)
        in
        invalidate_for_mutation t ~old_repo:t.repo ~new_repo_policies
          ~touched_locs:[] ~published:(Some service);
        t.repo <- t.repo @ [ (loc, service) ];
        t.repo_policies <- new_repo_policies;
        Ack
      end
  | Retract { loc } -> (
      match List.assoc_opt loc t.repo with
      | None -> Rejected (Unknown_location loc)
      | Some old ->
          let remaining = List.filter (fun (l, _) -> l <> loc) t.repo in
          let new_repo_policies = repo_policy_ids remaining in
          invalidate_for_mutation t ~old_repo:t.repo ~new_repo_policies
            ~touched_locs:[ loc ] ~published:None;
          t.repo <- remaining;
          t.repo_policies <- new_repo_policies;
          retire_contract t old;
          Ack)
  | Update { loc; service } -> (
      match List.assoc_opt loc t.repo with
      | None -> Rejected (Unknown_location loc)
      | Some old ->
          let replaced =
            List.map
              (fun (l, h) -> if l = loc then (l, service) else (l, h))
              t.repo
          in
          let new_repo_policies = repo_policy_ids replaced in
          invalidate_for_mutation t ~old_repo:t.repo ~new_repo_policies
            ~touched_locs:[ loc ] ~published:(Some service);
          t.repo <- replaced;
          t.repo_policies <- new_repo_policies;
          if not (Hexpr.equal old service) then retire_contract t old;
          Ack)
  | Orchestrate { client } -> (
      (* the admission path of the orchestration tier: serve-first (the
         cached 1:1 answer keeps its oracle and invalidation contract),
         synthesis only on No_plan. Synthesis answers are deterministic
         and recomputed per request — never cached in the index, so the
         invalidation and recovery contracts are untouched. *)
      Obs.Metrics.incr "broker.orchestrate.requests";
      match List.assoc_opt client t.sessions with
      | None -> Rejected (Unknown_client client)
      | Some s -> (
          match serve t ~level client with
          | Rejected No_plan -> (
              match
                Orchestration.Orchestrate.synthesize_client t.repo
                  ~client:(client, s.body)
              with
              | Ok o ->
                  let coalitions =
                    List.map
                      (fun (c : Orchestration.Orchestrate.coalition) ->
                        (c.rid, c.members))
                      o.Orchestration.Orchestrate.coalitions
                  in
                  let states, transitions =
                    List.fold_left
                      (fun (st, tr) (c : Orchestration.Orchestrate.coalition) ->
                        ( st + c.controller.Orchestration.Controller.states,
                          tr + c.controller.Orchestration.Controller.transitions
                        ))
                      (0, 0) o.Orchestration.Orchestrate.coalitions
                  in
                  Orchestrated { coalitions; states; transitions }
              | Error d ->
                  Rejected
                    (No_orchestration
                       (Fmt.str "%a" Orchestration.Orchestrate.pp_declined d)))
          | o -> o))
  | Mediate { client } -> (
      (* the full repair ladder as an admission path: serve-first
         (cached, oracle-equal), coalition synthesis second, adapter
         synthesis last — only then a decline, carrying both traces.
         The synthesis rungs are deterministic and recomputed per
         request, never cached in the index, so the invalidation and
         recovery contracts are untouched. *)
      Obs.Metrics.incr "broker.mediate.requests";
      match List.assoc_opt client t.sessions with
      | None -> Rejected (Unknown_client client)
      | Some s -> (
          match serve t ~level client with
          | Rejected No_plan -> (
              match
                Orchestration.Orchestrate.synthesize_client t.repo
                  ~client:(client, s.body)
              with
              | Ok o ->
                  let coalitions =
                    List.map
                      (fun (c : Orchestration.Orchestrate.coalition) ->
                        (c.rid, c.members))
                      o.Orchestration.Orchestrate.coalitions
                  in
                  let states, transitions =
                    List.fold_left
                      (fun (st, tr) (c : Orchestration.Orchestrate.coalition) ->
                        ( st + c.controller.Orchestration.Controller.states,
                          tr + c.controller.Orchestration.Controller.transitions
                        ))
                      (0, 0) o.Orchestration.Orchestrate.coalitions
                  in
                  Orchestrated { coalitions; states; transitions }
              | Error coalition -> (
                  match
                    Mediator.Repair.heal t.repo ~client:(client, s.body)
                  with
                  | Ok m ->
                      Obs.Metrics.incr "broker.mediate.repaired";
                      let healed =
                        List.map
                          (fun (h : Mediator.Repair.healed) ->
                            (h.rid, h.service, h.adapter_loc))
                          m.Mediator.Repair.healed
                      in
                      let states, steps =
                        List.fold_left
                          (fun (a, b) (h : Mediator.Repair.healed) ->
                            ( a + h.mediator.Mediator.Synthesis.states,
                              b
                              + List.length h.mediator.Mediator.Synthesis.steps
                            ))
                          (0, 0) m.Mediator.Repair.healed
                      in
                      Mediated
                        { healed; direct = m.Mediator.Repair.direct; states;
                          steps }
                  | Error d ->
                      Obs.Metrics.incr "broker.mediate.declined";
                      Rejected
                        (No_mediation
                           (Fmt.str "%a; %a"
                              Orchestration.Orchestrate.pp_declined coalition
                              Mediator.Repair.pp_declined d))))
          | o -> o))
  | Set_policy { queue; budget; floor } ->
      (* out-of-range deltas are rejected whole, not clamped: a silent
         clamp-to-1 turns an operator typo ("queue 0") into a
         near-total shed storm *)
      let bad =
        List.filter_map
          (fun (name, v) ->
            match v with
            | Some v when v < 1 -> Some (Fmt.str "%s %d" name v)
            | _ -> None)
          [ ("queue", queue); ("budget", budget) ]
      in
      if bad <> [] then
        Rejected
          (Invalid_policy
             (Fmt.str "%s (must be >= 1)" (String.concat ", " bad)))
      else begin
        t.adm <-
          {
            queue_capacity = Option.value queue ~default:t.adm.queue_capacity;
            plan_budget = Option.value budget ~default:t.adm.plan_budget;
            floor = Option.value floor ~default:t.adm.floor;
          };
        refresh_gauges t;
        Ack
      end

let request_kind = function
  | Open _ -> "open"
  | Close _ -> "close"
  | Serve _ -> "serve"
  | Run _ -> "run"
  | Publish _ -> "publish"
  | Retract _ -> "retract"
  | Update _ -> "update"
  | Set_policy _ -> "set_policy"
  | Orchestrate _ -> "orchestrate"
  | Mediate _ -> "mediate"

let outcome_kind = function
  | Served _ -> "served"
  | Degraded _ -> "degraded"
  | Orchestrated _ -> "orchestrated"
  | Mediated _ -> "mediated"
  | Rejected Shed -> "shed"
  | Rejected _ -> "rejected"
  | Ran _ -> "ran"
  | Ack -> "ack"

let respond t request outcome =
  let seq = t.seq in
  t.seq <- seq + 1;
  t.st.requests <- t.st.requests + 1;
  Obs.Metrics.incr "broker.requests";
  (match outcome with
  | Served { level; _ } -> (
      t.st.served <- t.st.served + 1;
      match level with
      | Compliance.Strict -> t.st.served_strict <- t.st.served_strict + 1
      | Compliance.Skip_k _ -> t.st.served_skip <- t.st.served_skip + 1
      | Compliance.Affectible ->
          t.st.served_affectible <- t.st.served_affectible + 1)
  | Rejected Shed -> ()
  | Rejected _ -> t.st.rejected <- t.st.rejected + 1
  | Orchestrated _ | Mediated _ -> t.st.served <- t.st.served + 1
  | Degraded _ | Ran _ | Ack -> ());
  { seq; request; outcome }

let set_depth t =
  let d = Queue.length t.queue in
  t.st.queue_peak <- max t.st.queue_peak d;
  Obs.Metrics.set_max "broker.queue.peak" d;
  refresh_gauges t

(* Answer a full-queue [Serve] immediately at the floor level instead
   of shedding it. The answer is uncached ([serve_at ~store:false]):
   see [budgeted_serve]. Deterministic and hence replayable — the
   broker state at the rescue point is a function of the applied
   prefix, which recovery reconstructs in order. *)
let rescue_serve t client =
  t.st.rescued <- t.st.rescued + 1;
  Obs.Metrics.incr "broker.rescued";
  serve_at t ~level:t.adm.floor ~store:false client

let submit t request =
  if Queue.length t.queue >= t.adm.queue_capacity then
    match (t.adm.floor, request) with
    | (Compliance.Skip_k _ | Compliance.Affectible), Serve { client } ->
        Some (respond t request (rescue_serve t client))
    | _ ->
        t.st.shed <- t.st.shed + 1;
        Obs.Metrics.incr "broker.shed";
        Some (respond t request (Rejected Shed))
  else begin
    Queue.add request t.queue;
    set_depth t;
    None
  end

let process_event t ~journaled ?level request =
  Obs.Trace.with_span "broker.request" @@ fun () ->
  (* the processing level is read off the ladder at dequeue time — or
     forced by the caller during replay, where the queue is empty and
     the ladder would misreport the original pressure *)
  let level = match level with Some l -> l | None -> ladder t in
  if Obs.Trace.active () then begin
    Obs.Trace.add_attr "kind" (Obs.Trace.Str (request_kind request));
    Obs.Trace.add_attr "level"
      (Obs.Trace.Str (Compliance.level_to_string level))
  end;
  (* write-ahead: the event reaches the journal (or the hook raises —
     e.g. an injected crash) before any state changes, so the journal
     never lags the applied state *)
  (if journaled then
     match t.journal with
     | Some log -> log ~seq:t.seq ~level request
     | None -> ());
  let outcome = apply t ~level request in
  if Obs.Trace.active () then
    Obs.Trace.add_attr "outcome" (Obs.Trace.Str (outcome_kind outcome));
  respond t request outcome

let process t request = process_event t ~journaled:true request

let replay t ~seq ~level request =
  t.seq <- seq;
  process_event t ~journaled:false ~level request

let replay_shed t ~seq request =
  t.seq <- seq;
  t.st.shed <- t.st.shed + 1;
  Obs.Metrics.incr "broker.shed";
  respond t request (Rejected Shed)

let replay_rescue t ~seq ~level request =
  t.seq <- seq;
  match request with
  | Serve { client } ->
      t.st.rescued <- t.st.rescued + 1;
      Obs.Metrics.incr "broker.rescued";
      respond t request (serve_at t ~level ~store:false client)
  | _ -> invalid_arg "Broker.replay_rescue: only Serve requests are rescued"

let step t =
  match Queue.take_opt t.queue with
  | None -> None
  | Some request ->
      set_depth t;
      Some (process t request)

let drain t =
  let rec go acc =
    match step t with None -> List.rev acc | Some r -> go (r :: acc)
  in
  go []

(* ---- snapshot restore ------------------------------------------------- *)

(* Rebuild a snapshot-recorded index entry with no plan budget and no
   stats traffic. The uninterrupted broker only caches *settled*
   verdicts (a budget exhaustion caches nothing), and by the oracle
   property a settled verdict is the first valid enumerated plan on the
   current repository — which is exactly what this recomputes, so the
   rebuilt entry is byte-identical to the lost one. *)
let rebuild_entry t name (s : session) ~level =
  let client = (name, s.body) in
  let rec go = function
    | [] -> Index.No_plan
    | p :: rest ->
        let r = Planner.analyze ~cache:t.compliance ~level t.repo ~client p in
        if Result.is_ok r.Planner.verdict then Index.Valid r else go rest
  in
  let verdict = go (Planner.enumerate t.repo ~client) in
  Index.store t.index (entry_of_verdict t name s ~level verdict)

let restore ?admission ~sessions ~served ~seq repo =
  let t = create ?admission repo in
  List.iter
    (fun (client, body) ->
      ignore (apply t ~level:Compliance.Strict (Open { client; body })))
    sessions;
  List.iter
    (fun (name, level) ->
      match List.assoc_opt name t.sessions with
      | None ->
          invalid_arg
            (Fmt.str "Broker.restore: served client %s has no session" name)
      | Some s -> rebuild_entry t name s ~level)
    served;
  t.seq <- seq;
  refresh_gauges t;
  t

(* ---- shard routing ---------------------------------------------------- *)

(* FNV-1a/32 ([Repr.Fnv]) over the routing key. Deliberately not
   [Hashtbl.hash]: the routing rule is part of the serving contract
   (per-shard journals are replayed against the same rule after a
   crash), so it must be stable across OCaml versions and future
   builds. *)
let route ~shards key =
  if shards < 1 then invalid_arg "Broker.route: shards must be >= 1";
  Repr.Fnv.hash32 key mod shards

type target = Shard of int | Broadcast

(* Session-scoped requests route to their client's shard — every
   location/contract-id key maps to exactly one shard. Repository
   mutations and policy changes are broadcast: every shard holds a full
   replica of the repository (services are hash-consed, so replicas
   share structure), which is what keeps each shard's serve answers
   equal to the unsharded oracle. *)
let target ~shards = function
  | Open { client; _ } | Close { client } | Serve { client }
  | Run { client; _ }
  | Orchestrate { client }
  | Mediate { client } ->
      Shard (route ~shards client)
  | Publish _ | Retract _ | Update _ | Set_policy _ -> Broadcast

(* ---- oracle ---------------------------------------------------------- *)

module Oracle = struct
  let serve ?(level = Compliance.Strict) repo ~client =
    let rec go = function
      | [] -> Index.No_plan
      | p :: rest ->
          let r = Planner.analyze ~level repo ~client p in
          if Result.is_ok r.Planner.verdict then Index.Valid r else go rest
    in
    go (Planner.enumerate repo ~client)
end

let verdict_equal a b =
  match (a, b) with
  | Index.No_plan, Index.No_plan -> true
  | Index.Valid ra, Index.Valid rb ->
      String.equal
        (Fmt.str "%a" Planner.pp_report ra)
        (Fmt.str "%a" Planner.pp_report rb)
  | _ -> false

(* ---- printers -------------------------------------------------------- *)

let pp_request ppf = function
  | Open { client; _ } -> Fmt.pf ppf "open %s" client
  | Close { client } -> Fmt.pf ppf "close %s" client
  | Serve { client } -> Fmt.pf ppf "serve %s" client
  | Orchestrate { client } -> Fmt.pf ppf "orchestrate %s" client
  | Mediate { client } -> Fmt.pf ppf "mediate %s" client
  | Run { client; seed } -> Fmt.pf ppf "run %s seed %d" client seed
  | Publish { loc; _ } -> Fmt.pf ppf "publish %s" loc
  | Retract { loc } -> Fmt.pf ppf "retract %s" loc
  | Update { loc; _ } -> Fmt.pf ppf "update %s" loc
  | Set_policy { queue; budget; floor } ->
      Fmt.pf ppf "policy%a%a%a"
        (Fmt.option (fun ppf -> Fmt.pf ppf " queue %d"))
        queue
        (Fmt.option (fun ppf -> Fmt.pf ppf " budget %d"))
        budget
        (Fmt.option (fun ppf l ->
             Fmt.pf ppf " floor %s" (Compliance.level_to_string l)))
        floor

let pp_reject ppf = function
  | Shed -> Fmt.string ppf "shed (queue full)"
  | No_plan -> Fmt.string ppf "no valid plan"
  | No_orchestration msg -> Fmt.pf ppf "no orchestrator: %s" msg
  | No_mediation msg -> Fmt.pf ppf "no mediation: %s" msg
  | Not_served c -> Fmt.pf ppf "%s has no served plan" c
  | Unknown_client c -> Fmt.pf ppf "unknown client %s" c
  | Unknown_location l -> Fmt.pf ppf "unknown location %s" l
  | Duplicate_location l -> Fmt.pf ppf "location %s already published" l
  | Invalid_policy msg -> Fmt.pf ppf "invalid policy: %s" msg

(* render the level only when it is not strict, so the output of a
   strict-floor broker stays byte-identical to earlier releases *)
let pp_level_tag ppf = function
  | Compliance.Strict -> ()
  | l -> Fmt.pf ppf "[%s]" (Compliance.level_to_string l)

let pp_outcome ppf = function
  | Served { report; cached; level } ->
      Fmt.pf ppf "%s%a %a"
        (if cached then "HIT" else "MISS")
        pp_level_tag level Planner.pp_report report
  | Degraded { analyzed; enumerated; level } ->
      Fmt.pf ppf "DEGRADED%a after %d/%d plans" pp_level_tag level analyzed
        enumerated
  | Orchestrated { coalitions; states; transitions } ->
      Fmt.pf ppf "ORCHESTRATED %a (%d states, %d transitions)"
        Fmt.(
          list ~sep:(any ", ") (fun ppf (rid, members) ->
              Fmt.pf ppf "%d -> {%a}" rid
                (list ~sep:(any ", ") string)
                members))
        coalitions states transitions
  | Mediated { healed; direct; states; steps } ->
      Fmt.pf ppf "MEDIATED %a (%d states, %d repair steps)"
        Fmt.(
          list ~sep:(any ", ") (fun ppf part ->
              match part with
              | rid, service, `Via adapter ->
                  Fmt.pf ppf "%d -> %s via %s" rid service adapter
              | rid, service, `Direct -> Fmt.pf ppf "%d -> %s" rid service))
        (List.map (fun (rid, s, a) -> (rid, s, `Via a)) healed
        @ List.map (fun (rid, s) -> (rid, s, `Direct)) direct)
        states steps
  | Rejected r -> Fmt.pf ppf "REJECTED: %a" pp_reject r
  | Ran { completed; steps } ->
      Fmt.pf ppf "RAN %d steps (%s)" steps
        (if completed then "completed" else "incomplete")
  | Ack -> Fmt.string ppf "OK"

let pp_response ppf (r : response) =
  Fmt.pf ppf "[%d] %a: %a" r.seq pp_request r.request pp_outcome r.outcome

let pp_stats ppf s =
  Fmt.pf ppf
    "requests %d, served %d (hits %d, misses %d; strict %d, skip %d, \
     affectible %d), shed %d, rescued %d, degraded %d, rejected %d, \
     invalidations %d, analyzed %d, queue peak %d"
    s.requests s.served s.hits s.misses s.served_strict s.served_skip
    s.served_affectible s.shed s.rescued s.degraded s.rejected s.invalidations
    s.analyzed s.queue_peak
