(** The coalition rung of the repair ladder: when no 1:1 plan serves a
    client, look for a {e coalition} of repository services that jointly
    serve each request under a synthesized most-permissive controller.

    The rung is strictly a fallback: [Mediator.Repair] climbs the ladder
    and enters {!synthesize_client} only once the paper's §5 planner has
    found no valid 1:1 plan ([orchestration.synthesis.runs] stays
    untouched otherwise; the test suite pins this ordering). Coalitions
    are enumerated per request site, smallest first, up to five members.

    Coalition members must be {e eligible}: they respect the policy the
    client imposes on the request (checked on their history expressions
    via {!Core.Validity.check_expr}, the same filter {!Core.Discovery}
    applies), they project into the §4 contract fragment, and they are
    session-flat (no [open] sites of their own — projection would erase
    a member's nested sessions, which only the 1:1 planner accounts
    for). *)

type coalition = {
  rid : int;
  members : string list;  (** repository locations, in repo order *)
  controller : Controller.t;
}

type orchestrated = { client : string; coalitions : coalition list }
(** One coalition per request site of the client (nested sites
    included), in site order. *)

type declined =
  | No_candidates of { rid : int }
      (** the eligibility filters left no services to compose *)
  | No_controller of {
      rid : int;
      explored : int;  (** coalitions tried for this site *)
      counterexample : Controller.counterexample;
          (** from the largest coalition tried — the hardest-to-refute
              composition *)
    }
  | Outside_fragment of { rid : int; reason : string }
      (** the request body itself does not project *)
  | Unvouched of { rid : int; reason : string }
      (** policies watch events across parties for every eligible
          member of this site, so the rung cannot vouch for the
          composition's security *)
  | Unfit_client of { reason : string }
      (** the client's own conduct, which no coalition or adapter
          mends: it has no request site, is not valid on its own, or
          communicates outside every session *)

val candidates : Core.Network.repo -> Core.Planner.site -> Core.Network.repo
(** The eligible members for one request site, in repository order: the
    services that respect the site's imposed policy, project into the
    §4 fragment and are session-flat (see above). The mediation tier
    draws its candidates from the same filter. *)

val watched : Core.Hexpr.t list -> string list
(** The event names watched by the policies of these expressions,
    framings and request policies alike; sorted, duplicate-free. The
    coalition rung keeps parties apart on them, and the mediation rung
    never renames them. *)

val synthesize_client :
  Core.Network.repo ->
  client:string * Core.Hexpr.t ->
  (orchestrated, declined) result
(** The coalition rung alone (no 1:1 attempt): enumerate coalitions of
    eligible services for every request site of the client, smallest and
    in repository order first, and synthesize a controller for each.
    Deterministic.

    A controller decides communication only, so the rung vouches for
    security and progress conservatively: it declines ([Unfit_client])
    a client with no request site, one that is not valid on its own
    ({!Core.Validity.check_expr}), and one that communicates outside
    every session; and it leaves out a candidate when a policy of the
    client or of any candidate, the candidate itself included, watches
    an event the candidate performs, or the candidate's own policies
    watch an event the client or any candidate performs ([Unvouched]
    when that leaves none). The shared {!candidates} filter is not
    narrowed: the mediation rung re-verifies strictly instead. *)

val pp_coalition : coalition Fmt.t
val pp_declined : declined Fmt.t
