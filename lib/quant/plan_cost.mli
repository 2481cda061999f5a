(** Cost-aware orchestration: the worst-case billing of a client under a
    plan, and plan selection by price.

    The analysis weighs the edges of {!Core.Netcheck.graph}, the finite
    abstract configuration graph (component × policy cursors) that
    [check] explores, so only executions permitted by the security
    monitor are billed. *)

val worst_case :
  Core.Network.repo ->
  Core.Plan.t ->
  string * Core.Hexpr.t ->
  Model.t ->
  float option
(** Supremum of the accumulated event cost over all runs of the planned
    client; [None] when unbounded (a billable loop). *)

type priced = {
  plan : Core.Plan.t;
  cost : float option;  (** [None] = unbounded *)
}

val cheapest :
  Core.Network.repo ->
  client:string * Core.Hexpr.t ->
  Model.t ->
  priced option
(** Among the {e valid} plans (per {!Core.Planner.valid_plans}), one
    with the least worst-case cost — bounded costs preferred over
    unbounded; [None] when no valid plan exists. *)

val pp_priced : priced Fmt.t
