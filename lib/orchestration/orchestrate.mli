(** The orchestration tier of the planner: when no 1:1 plan serves a
    client, look for a {e coalition} of repository services that jointly
    serve each request under a synthesized most-permissive controller.

    The tier is strictly a fallback: {!analyze} first runs the paper's §5
    planner and answers [Planned] — without ever entering synthesis —
    whenever a valid 1:1 plan exists ([orchestration.synthesis.runs]
    stays untouched; the test suite pins this ordering). Only then are
    coalitions enumerated, smallest first, per request site.

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

type verdict =
  | Planned of Core.Planner.report  (** a valid 1:1 plan; synthesis never ran *)
  | Orchestrated of orchestrated
  | Declined of declined

val candidates : Core.Network.repo -> Core.Planner.site -> Core.Network.repo
(** The eligible members for one request site, in repository order: the
    services that respect the site's imposed policy, project into the
    §4 fragment and are session-flat (see above). The mediation tier
    draws its candidates from the same filter. *)

val default_max_parties : int
(** 6 — the client plus up to five coalition members. *)

val synthesize_client :
  ?max_parties:int ->
  Core.Network.repo ->
  client:string * Core.Hexpr.t ->
  (orchestrated, declined) result
(** The synthesis tier alone (no 1:1 attempt): enumerate coalitions of
    eligible services for every request site of the client, smallest and
    in repository order first, and synthesize a controller for each.
    Deterministic. *)

val analyze :
  ?max_parties:int ->
  Core.Network.repo ->
  client:string * Core.Hexpr.t ->
  verdict
(** 1:1 plans first, orchestrator synthesis as the fallback. Runs under
    an [orchestration.analyze] span. *)

val pp_coalition : coalition Fmt.t
val pp_declined : declined Fmt.t
val pp_verdict : verdict Fmt.t
