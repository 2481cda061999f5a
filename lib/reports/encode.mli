(** JSON encodings of the library's analysis results, for the CLI's
    [--json] output and any external tooling. *)

val plan : Core.Plan.t -> Json.t
val hexpr : Core.Hexpr.t -> Json.t

val planner_report : Core.Planner.report -> Json.t
(** [{"plan": …, "verdict": "valid"|…, "detail": …}] *)

val sim_stats : Core.Simulate.stats -> Json.t

val sim_outcome : Core.Simulate.outcome -> Json.t
(** [{"kind": "completed"|"stuck"|"degraded"|…, …}] *)

val runtime_event : Runtime.Engine.event -> Json.t

val runtime_report : Runtime.Engine.report -> Json.t
(** The recovery report of a fault-injected run: outcome, step count,
    faults injected, retries, rebinds, and the step-indexed journal. *)

val priced : Quant.Plan_cost.priced -> Json.t
val violation : Core.Validity.violation -> Json.t

val orchestration_counterexample :
  Orchestration.Controller.counterexample -> Json.t
(** The coalition-synthesis decline trace: the match moves driven from
    the initial product state, the stuck state index, and the reason
    ([deadlock] or [unmatched-offer]). *)

val orchestration_declined : Orchestration.Orchestrate.declined -> Json.t

val mediation_counterexample : Mediator.Synthesis.counterexample -> Json.t
(** The mediation decline: the repair trace walked before sticking, the
    residual contracts, both buffers, and the reason ([undeliverable],
    [overflow] or [unmergeable]). *)

val mediation_declined : Mediator.Repair.declined -> Json.t

val broker_outcome : Broker.outcome -> Json.t
val broker_response : Broker.response -> Json.t
(** [{"seq": …, "request": "serve c1", "outcome": {"kind": …}}] *)

val broker_stats : Broker.stats -> Json.t
(** Hit/miss/shed/invalidation counters of one broker, mirroring the
    [broker.*] metric names. *)
