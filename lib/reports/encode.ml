let plan p =
  Json.Obj
    (List.map
       (fun (r, l) -> (string_of_int r, Json.String l))
       (Core.Plan.bindings p))

let hexpr h = Json.String (Core.Hexpr.to_string h)

let stuck (s : Core.Netcheck.stuck) =
  let kind, detail =
    match s.Core.Netcheck.kind with
    | Core.Netcheck.Security p -> ("security", Json.String (Usage.Policy.id p))
    | Core.Netcheck.Communication -> ("communication", Json.Null)
    | Core.Netcheck.Unplanned_request r -> ("unplanned-request", Json.Int r)
  in
  Json.Obj
    [
      ("client", Json.String s.Core.Netcheck.client);
      ("kind", Json.String kind);
      ("detail", detail);
      ( "component",
        Json.String (Fmt.str "%a" Core.Network.pp_component s.Core.Netcheck.component) );
      ( "trace",
        Json.List
          (List.map
             (fun g -> Json.String (Fmt.str "%a" Core.Network.pp_glabel g))
             s.Core.Netcheck.trace) );
    ]

let counterexample (ce : Core.Product.counterexample) =
  Json.Obj
    [
      ( "synchronisations",
        Json.List (List.map (fun a -> Json.String a) ce.Core.Product.synchronisations) );
      ("client", Json.String (Core.Contract.to_string (fst ce.Core.Product.stuck)));
      ("server", Json.String (Core.Contract.to_string (snd ce.Core.Product.stuck)));
      ( "cause",
        Json.String (Fmt.str "%a" Core.Product.pp_stuck_reason ce.Core.Product.reason) );
    ]

let planner_report (r : Core.Planner.report) =
  let verdict, detail =
    match r.Core.Planner.verdict with
    | Ok stats ->
        ( "valid",
          Json.Obj
            [
              ("states", Json.Int stats.Core.Netcheck.states);
              ("transitions", Json.Int stats.Core.Netcheck.transitions);
            ] )
    | Error (Core.Planner.Unserved rid) -> ("unserved", Json.Int rid)
    | Error (Core.Planner.Not_compliant { rid; loc; counterexample = ce }) ->
        ( "not-compliant",
          Json.Obj
            [
              ("request", Json.Int rid);
              ("service", Json.String loc);
              ("counterexample", counterexample ce);
            ] )
    | Error (Core.Planner.Insecure s) -> ("insecure", stuck s)
    | Error (Core.Planner.Outside_fragment { rid; loc; reason }) ->
        ( "outside-fragment",
          Json.Obj
            [
              ("request", Json.Int rid);
              ("service", Json.String loc);
              ("reason", Json.String reason);
            ] )
  in
  Json.Obj
    [
      ("plan", plan r.Core.Planner.plan);
      ("verdict", Json.String verdict);
      ("detail", detail);
    ]

let sim_stats (s : Core.Simulate.stats) =
  Json.Obj
    [
      ("runs", Json.Int s.Core.Simulate.runs);
      ("completed", Json.Int s.Core.Simulate.completed);
      ("stuck", Json.Int s.Core.Simulate.stuck);
      ("out_of_fuel", Json.Int s.Core.Simulate.out_of_fuel);
      ("avg_steps", Json.Float s.Core.Simulate.avg_steps);
      ("avg_events", Json.Float s.Core.Simulate.avg_events);
      ("valid_histories", Json.Int s.Core.Simulate.outcomes_valid);
    ]

let priced (p : Quant.Plan_cost.priced) =
  Json.Obj
    [
      ("plan", plan p.Quant.Plan_cost.plan);
      ( "cost",
        match p.Quant.Plan_cost.cost with
        | Some c -> Json.Float c
        | None -> Json.Null );
    ]

let sim_outcome : Core.Simulate.outcome -> Json.t = function
  | Core.Simulate.Completed -> Json.Obj [ ("kind", Json.String "completed") ]
  | Core.Simulate.Stuck ls ->
      Json.Obj
        [
          ("kind", Json.String "stuck");
          ("unfinished", Json.List (List.map (fun l -> Json.String l) ls));
        ]
  | Core.Simulate.Degraded { completed; abandoned } ->
      Json.Obj
        [
          ("kind", Json.String "degraded");
          ("completed", Json.List (List.map (fun l -> Json.String l) completed));
          ( "abandoned",
            Json.List
              (List.map
                 (fun (l, why) ->
                   Json.Obj
                     [ ("client", Json.String l); ("reason", Json.String why) ])
                 abandoned) );
        ]
  | Core.Simulate.Out_of_fuel -> Json.Obj [ ("kind", Json.String "out-of-fuel") ]
  | Core.Simulate.Stopped -> Json.Obj [ ("kind", Json.String "stopped") ]

let runtime_event : Runtime.Engine.event -> Json.t =
  let obj kind fields = Json.Obj (("kind", Json.String kind) :: fields) in
  function
  | Runtime.Engine.Fault (Runtime.Engine.Crashed l) ->
      obj "crash" [ ("loc", Json.String l) ]
  | Runtime.Engine.Fault (Runtime.Engine.Dropped c) ->
      obj "drop" [ ("channel", Json.String c) ]
  | Runtime.Engine.Fault (Runtime.Engine.Delayed (c, d)) ->
      obj "delay" [ ("channel", Json.String c); ("steps", Json.Int d) ]
  | Runtime.Engine.Fault (Runtime.Engine.Violation_blocked (l, p)) ->
      obj "violation-blocked"
        [
          ("loc", Json.String l);
          ( "policy",
            match p with Some p -> Json.String p | None -> Json.Null );
        ]
  | Runtime.Engine.Recovery (Runtime.Engine.Aborted { rid; client; loc; reason }) ->
      obj "abort"
        [
          ("request", Json.Int rid);
          ("client", Json.String client);
          ("loc", Json.String loc);
          ("reason", Json.String reason);
        ]
  | Runtime.Engine.Recovery (Runtime.Engine.Rebound { rid; client; from_; to_ }) ->
      obj "rebind"
        [
          ("request", Json.Int rid);
          ("client", Json.String client);
          ("from", Json.String from_);
          ("to", Json.String to_);
        ]
  | Runtime.Engine.Recovery
      (Runtime.Engine.Retrying { rid; client; loc; attempt; resume_at }) ->
      obj "retry"
        [
          ("request", Json.Int rid);
          ("client", Json.String client);
          ("loc", Json.String loc);
          ("attempt", Json.Int attempt);
          ("resume_at", Json.Int resume_at);
        ]
  | Runtime.Engine.Recovery (Runtime.Engine.Gave_up { rid; client; reason }) ->
      obj "give-up"
        [
          ("request", Json.Int rid);
          ("client", Json.String client);
          ("reason", Json.String reason);
        ]
  | Runtime.Engine.Recovery
      (Runtime.Engine.Rolled_back { rid; client; loc; depth }) ->
      obj "rollback"
        [
          ("request", Json.Int rid);
          ("client", Json.String client);
          ("loc", Json.String loc);
          ("depth", Json.Int depth);
        ]

let runtime_report (r : Runtime.Engine.report) =
  Json.Obj
    [
      ("outcome", sim_outcome r.Runtime.Engine.trace.Core.Simulate.outcome);
      ("steps", Json.Int (List.length r.Runtime.Engine.trace.Core.Simulate.steps));
      ("faults_injected", Json.Int r.Runtime.Engine.faults_injected);
      ("retries", Json.Int r.Runtime.Engine.retries);
      ("rebinds", Json.Int r.Runtime.Engine.rebinds);
      ("rollbacks", Json.Int r.Runtime.Engine.rollbacks);
      ( "events",
        Json.List
          (List.map
             (fun (step, ev) ->
               match runtime_event ev with
               | Json.Obj fields -> Json.Obj (("step", Json.Int step) :: fields)
               | j -> j)
             r.Runtime.Engine.events) );
    ]

let violation (v : Core.Validity.violation) =
  Json.Obj
    [
      ("policy", Json.String (Usage.Policy.id v.Core.Validity.policy));
      ( "prefix",
        Json.String (Fmt.str "%a" Core.History.pp v.Core.Validity.prefix) );
    ]

(* ---- decline traces (the orchestration and mediation tiers) ---------- *)

let orchestration_counterexample
    (ce : Orchestration.Controller.counterexample) =
  let move (m : Orchestration.Automaton.move) =
    Json.Obj
      [
        ("sender", Json.Int m.sender);
        ("receiver", Json.Int m.receiver);
        ("channel", Json.String m.channel);
      ]
  in
  let reason =
    match ce.Orchestration.Controller.reason with
    | Orchestration.Controller.Deadlock ->
        Json.Obj [ ("kind", Json.String "deadlock") ]
    | Orchestration.Controller.Starved ->
        Json.Obj [ ("kind", Json.String "starved") ]
    | Orchestration.Controller.Unmatched_offer { party; channel } ->
        Json.Obj
          [
            ("kind", Json.String "unmatched-offer");
            ("party", Json.Int party);
            ("channel", Json.String channel);
          ]
  in
  Json.Obj
    [
      ( "trace",
        Json.List (List.map move ce.Orchestration.Controller.trace) );
      ("stuck", Json.Int ce.Orchestration.Controller.stuck);
      ("reason", reason);
    ]

let orchestration_declined (d : Orchestration.Orchestrate.declined) =
  let obj kind fields = Json.Obj (("kind", Json.String kind) :: fields) in
  match d with
  | Orchestration.Orchestrate.No_candidates { rid } ->
      obj "no-candidates" [ ("request", Json.Int rid) ]
  | Orchestration.Orchestrate.Outside_fragment { rid; reason } ->
      obj "outside-fragment"
        [ ("request", Json.Int rid); ("reason", Json.String reason) ]
  | Orchestration.Orchestrate.Unvouched { rid; reason } ->
      obj "unvouched"
        [ ("request", Json.Int rid); ("reason", Json.String reason) ]
  | Orchestration.Orchestrate.Unfit_client { reason } ->
      obj "unfit-client" [ ("reason", Json.String reason) ]
  | Orchestration.Orchestrate.No_controller { rid; explored; counterexample = ce }
    ->
      obj "no-controller"
        [
          ("request", Json.Int rid);
          ("explored", Json.Int explored);
          ("counterexample", orchestration_counterexample ce);
        ]

let mediation_counterexample (ce : Mediator.Synthesis.counterexample) =
  let strings = List.map (fun s -> Json.String s) in
  let reason =
    match ce.Mediator.Synthesis.reason with
    | Mediator.Synthesis.Undeliverable { waiting } ->
        Json.Obj
          [
            ("kind", Json.String "undeliverable");
            ("waiting", Json.List (strings waiting));
          ]
    | Mediator.Synthesis.Overflow { channel } ->
        Json.Obj
          [ ("kind", Json.String "overflow"); ("channel", Json.String channel) ]
    | Mediator.Synthesis.Unmergeable { channels } ->
        Json.Obj
          [
            ("kind", Json.String "unmergeable");
            ("channels", Json.List (strings channels));
          ]
  in
  Json.Obj
    [
      ("trace", Json.List (strings ce.Mediator.Synthesis.trace));
      ( "client",
        Json.String (Core.Contract.to_string ce.Mediator.Synthesis.client) );
      ( "service",
        Json.String (Core.Contract.to_string ce.Mediator.Synthesis.service) );
      ( "client_buffer",
        Json.List (strings ce.Mediator.Synthesis.client_buffer) );
      ( "service_buffer",
        Json.List (strings ce.Mediator.Synthesis.service_buffer) );
      ("reason", reason);
    ]

let mediation_declined (d : Mediator.Repair.declined) =
  let obj kind fields = Json.Obj (("kind", Json.String kind) :: fields) in
  match d with
  | Mediator.Repair.No_candidates { rid } ->
      obj "no-candidates" [ ("request", Json.Int rid) ]
  | Mediator.Repair.Outside_fragment { rid; reason } ->
      obj "outside-fragment"
        [ ("request", Json.Int rid); ("reason", Json.String reason) ]
  | Mediator.Repair.Unmediable { rid; service; counterexample = ce } ->
      obj "unmediable"
        [
          ("request", Json.Int rid);
          ("service", Json.String service);
          ("counterexample", mediation_counterexample ce);
        ]
  | Mediator.Repair.Not_reverified { rid; service; reason } ->
      obj "not-reverified"
        [
          ("request", Json.Int rid);
          ("service", Json.String service);
          ("reason", Json.String reason);
        ]
  | Mediator.Repair.Unvouched { rid; reason } ->
      obj "unvouched"
        [ ("request", Json.Int rid); ("reason", Json.String reason) ]

let broker_outcome : Broker.outcome -> Json.t =
  let obj kind fields = Json.Obj (("kind", Json.String kind) :: fields) in
  function
  | Broker.Served { report; cached; level; _ } ->
      obj "served"
        [
          ("cached", Json.Bool cached);
          ("level", Json.String (Core.Compliance.level_to_string level));
          ("report", planner_report report);
        ]
  | Broker.Degraded { analyzed; enumerated; level } ->
      obj "degraded"
        [
          ("analyzed", Json.Int analyzed);
          ("enumerated", Json.Int enumerated);
          ("level", Json.String (Core.Compliance.level_to_string level));
        ]
  | Broker.Rejected reject ->
      obj "rejected"
        [
          ( "reason",
            Json.String
              (match reject with
              | Broker.Shed -> "shed"
              | Broker.No_plan -> "no-plan"
              | Broker.Not_served _ -> "not-served"
              | Broker.Unknown_client _ -> "unknown-client"
              | Broker.Unknown_location _ -> "unknown-location"
              | Broker.Duplicate_location _ -> "duplicate-location"
              | Broker.Invalid_policy _ -> "invalid-policy"
              | Broker.No_orchestration _ -> "no-orchestration"
              | Broker.No_mediation _ -> "no-mediation") );
          (* the rendered diagnostic — for the synthesis rungs it
             carries the decline counterexample traces *)
          ("detail", Json.String (Fmt.str "%a" Broker.pp_reject reject));
        ]
  | Broker.Ran { completed; steps } ->
      obj "ran" [ ("completed", Json.Bool completed); ("steps", Json.Int steps) ]
  | Broker.Ack -> obj "ack" []
  | Broker.Orchestrated { coalitions; states; transitions } ->
      obj "orchestrated"
        [
          ( "coalitions",
            Json.List
              (List.map
                 (fun (rid, members) ->
                   Json.Obj
                     [
                       ("rid", Json.Int rid);
                       ( "members",
                         Json.List
                           (List.map (fun m -> Json.String m) members) );
                     ])
                 coalitions) );
          ("states", Json.Int states);
          ("transitions", Json.Int transitions);
        ]
  | Broker.Mediated { healed; direct; states; steps } ->
      obj "mediated"
        [
          ( "healed",
            Json.List
              (List.map
                 (fun (rid, service, adapter) ->
                   Json.Obj
                     [
                       ("rid", Json.Int rid);
                       ("service", Json.String service);
                       ("adapter", Json.String adapter);
                     ])
                 healed) );
          ( "direct",
            Json.List
              (List.map
                 (fun (rid, loc) ->
                   Json.Obj
                     [ ("rid", Json.Int rid); ("service", Json.String loc) ])
                 direct) );
          ("states", Json.Int states);
          ("steps", Json.Int steps);
        ]

let broker_response (r : Broker.response) =
  Json.Obj
    [
      ("seq", Json.Int r.Broker.seq);
      ("request", Json.String (Fmt.str "%a" Broker.pp_request r.Broker.request));
      ("outcome", broker_outcome r.Broker.outcome);
    ]

let broker_stats (s : Broker.stats) =
  Json.Obj
    [
      ("requests", Json.Int s.Broker.requests);
      ("served", Json.Int s.Broker.served);
      ("hits", Json.Int s.Broker.hits);
      ("misses", Json.Int s.Broker.misses);
      ("shed", Json.Int s.Broker.shed);
      ("rescued", Json.Int s.Broker.rescued);
      ("served_strict", Json.Int s.Broker.served_strict);
      ("served_skip", Json.Int s.Broker.served_skip);
      ("served_affectible", Json.Int s.Broker.served_affectible);
      ("degraded", Json.Int s.Broker.degraded);
      ("rejected", Json.Int s.Broker.rejected);
      ("invalidations", Json.Int s.Broker.invalidations);
      ("analyzed", Json.Int s.Broker.analyzed);
      ("queue_peak", Json.Int s.Broker.queue_peak);
    ]
