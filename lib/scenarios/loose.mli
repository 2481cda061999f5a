(** The degradation-ladder scenario: a client/service pair that is {e
    not} strictly compliant, yet has exactly one reachable stuck state
    and a successful branch — so the product survey admits it at
    [Skip_k 1] and [Affectible] but not at [Strict].

    {v
    Client = open_9 Req.(Avail.Fee! + NoAv)
    Loose  = Req.(Avail.Pay? (+) NoAv)      — avail wedges: fee! vs pay?
    Sound  = Req.(Avail.Fee? (+) NoAv)      — strictly compliant
    v}

    At run time the scheduler may take the [avail] branch and wedge the
    session mid-way — the branch the loosened static check knowingly
    admitted. Under [Runtime.Engine.run ~level:Affectible] the wedge is
    retracted back to the [open] checkpoint and retried until the
    scheduler picks [noav]; under the default strict runtime it is what
    the engine reports as stuck. This is the scenario the reversible-
    session tests and the B5 degraded-mode outcome mix are built on. *)

val client_body : Core.Hexpr.t
(** [Req.(Avail.Fee! + NoAv)] — the body of the client's request. *)

val rid : int
(** The client's request id, [9]. *)

val client : Core.Hexpr.t
(** [open_9 client_body]. *)

val loose_service : Core.Hexpr.t
(** Admissible at [Skip_k 1] / [Affectible] only. *)

val sound_service : Core.Hexpr.t
(** Admissible at every level. *)

val repo : Core.Network.repo
(** Just the loose supplier, at location ["ls"] — no valid plan exists
    strictly; one does at [Skip_k 1] and weaker. *)

val repo_with_sound : Core.Network.repo
(** Loose at ["ls"] {e then} sound at ["ss"]: the strict first-valid
    plan binds ["ss"], the loosened one binds ["ls"] (enumeration
    order) — serving levels genuinely change the answer, which is what
    the per-level oracle and cache tests exercise. *)

val plan : Core.Plan.t
(** [{9[ls]}] — the plan the reversible-session runtime tests run. *)
