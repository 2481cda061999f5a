(** The broker-churn scenario: the paper's hotel repository serving
    three clients while the service registry moves under them.

    Extends {!Hotel} with a third client (request 5 under [φ₂]), two
    backup hotels to publish/retract ({!spares}), and two {e noise}
    services ({!noise}) that no request site can talk to — publishing
    those must cause {e zero} index invalidations, the regression the
    broker tests pin down. *)

val repo : Core.Network.repo
(** {!Hotel.repo}: the broker and the four hotels. *)

val clients : (string * Core.Hexpr.t) list
(** [c1] (φ₁), [c2] (φ₂) from the paper, plus [c3] (request 5, φ₂). *)

val spares : (string * Core.Hexpr.t) list
(** [s3b] (60, 100) and [s4b] (35, 80): plan-relevant backup hotels. *)

val noise : (string * Core.Hexpr.t) list
(** [audit1]/[audit2]: services listening on a channel no site uses —
    irrelevant to every plan. *)

val script : Broker.Script.item list
(** A canned deterministic workload: open/serve, an irrelevant publish
    (all re-serves hit), a relevant publish plus retract of [s3] (the
    next serve of [c1] fails over to [s3b]), one supervised run. *)
