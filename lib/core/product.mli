(** The product automaton [H₁ ⊗ H₂] of two contracts (paper Definition
    5) and the model-checking decision procedure of Theorem 1:

    [H₁ ⊢ H₂ ⟺ L(H₁ ⊗ H₂) = ∅].

    Final states of the product are exactly the {e stuck} configurations;
    because the finality predicate inspects a single state (conditions
    (i) and (ii)), compliance is an invariant — hence a safety — property
    (Theorem 2, Corollary 1). *)

type state = Contract.t * Contract.t

type stuck_reason =
  | Client_waits_forever
      (** ¬(i): the client is not terminated and nobody can output *)
  | Unmatched_output of string
      (** ¬(ii): an internally chosen output on this channel has no
          matching input on the other side *)

type t = {
  initial : state;
  states : state list;
  delta : (state * string * state) list;
      (** τ-transitions; the channel that synchronised is kept for
          diagnostics. *)
  finals : (state * stuck_reason) list;
}

val final_reason : state -> stuck_reason option
(** The state-local finality predicate of Definition 5: [Some r] iff the
    pair belongs to [F]. This is the invariant [Φ] of Theorem 2. *)

val build : Contract.t -> Contract.t -> t
(** Reachable fragment of [H₁ ⊗ H₂]; per Definition 5, final states have
    no outgoing transitions. Its final states are exactly the survey's
    stuck configurations: [List.length (build c1 c2).finals =
    (survey c1 c2).stuck_states]. *)

val language_empty : t -> bool

type counterexample = {
  synchronisations : string list;
      (** channels synchronised on the way to the stuck state *)
  stuck : state;
  reason : stuck_reason;
}

(** {1 The level survey} *)

type survey = {
  stuck_states : int;
      (** distinct reachable stuck configurations (0 ⟺ strictly
          compliant, Theorem 1) *)
  successful : bool;
      (** some maximal execution avoids every stuck configuration: a
          client-terminated state is reachable, or the product has a
          live loop. [stuck_states = 0] implies [successful]. Note the
          deliberate asymmetry with [Netcheck]: there, a loosened level
          tolerates wedges only while a {e terminated} configuration
          stays reachable — a live loop does not count as completion at
          network granularity (see [Netcheck.check_client]). *)
  first_counterexample : counterexample option;
      (** a shortest path into [F], present iff [stuck_states > 0] *)
}

val survey : Contract.t -> Contract.t -> survey
(** One reachability pass computing the measures every
    {!Compliance.level} is decided on — {!Planner.analyze} caches this
    per hash-consed contract-id pair, so one survey answers all levels.
    It walks the hash-consed contract graph directly: successors come
    from the memoized [Contract.transitions]. *)

val compliant : Contract.t -> Contract.t -> bool
(** The Theorem 1 decision procedure: [(survey c1 c2).stuck_states = 0].
    Every pairwise verdict comes from {!survey}. *)

val counterexample : Contract.t -> Contract.t -> counterexample option
(** A shortest path into [F], if the contracts are not compliant: the
    survey's [first_counterexample]. *)

val admits : Compliance.level -> survey -> bool
(** [Compliance.admits_measures] on the survey's measures. At
    [Strict] this coincides with {!compliant}. *)

val pp_stuck_reason : stuck_reason Fmt.t
val pp_counterexample : counterexample Fmt.t
val pp_dot : t Fmt.t
