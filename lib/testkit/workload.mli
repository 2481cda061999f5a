(** Seeded workload generator for the orchestration broker.

    Produces a {!Broker.Script} item stream mixing the churn shapes a
    long-lived broker sees: session open/close churn, service
    publish/retract churn (split into a {e relevant} pool whose
    services can join plans and a {e noise} pool that should cause zero
    invalidations), and hot-key-skewed serves. Generation draws only
    from a {!Rng} state built from [profile.seed], so equal profiles
    give byte-identical streams — the broker tests replay them against
    the cold oracle. *)

open Core

type profile = {
  seed : int;
  requests : int;  (** submissions after the opening prologue *)
  batch : int;  (** a [Drain] every [batch] submissions *)
  churn : float;  (** fraction of submissions that mutate *)
  relevant : float;  (** fraction of service churn hitting [spares] *)
  session_churn : float;  (** fraction of churn that opens/closes *)
  hot : float;  (** fraction of serves hitting the first client *)
  clients : (string * Hexpr.t) list;  (** opened in the prologue *)
  spares : (string * Hexpr.t) list;  (** plan-relevant publish pool *)
  noise : (string * Hexpr.t) list;  (** plan-irrelevant publish pool *)
}

val default :
  clients:(string * Hexpr.t) list ->
  spares:(string * Hexpr.t) list ->
  noise:(string * Hexpr.t) list ->
  profile
(** 240 requests, drains every 8, 20% churn (25% of it relevant, 15%
    session), 70% hot-key skew, seed {!Rng.default_seed}. *)

type counts = { serves : int; publishes : int; retracts : int; sessions : int }

val generate : profile -> Broker.Script.item list * counts
(** The item stream (prologue + submissions + final drain) and what it
    contains — tests assert the counts meet their floors instead of
    trusting the probabilities. *)
