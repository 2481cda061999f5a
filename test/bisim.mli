(** Strong and weak bisimilarity on the finite transition systems of
    the library (history expressions and contracts): the tests' oracle.

    It validates the semantics-preserving transformations —
    [Core.Hexpr.normalize], unfolding, the parser's canonicalisation —
    with a much finer equivalence than trace or validity agreement.

    Both relations are computed by partition refinement over the union
    of the two reachable state spaces (finite for well-formed terms).
    Weak bisimilarity abstracts the [τ] commits of the unguarded-choice
    extension. *)

open Core

module type LTS = sig
  type state
  type label

  val compare_state : state -> state -> int
  val equal_state : state -> state -> bool
  val hash_state : state -> int
  val compare_label : label -> label -> int

  val transitions : state -> (label * state) list

  val is_tau : label -> bool
  (** Which labels are silent (for {!Make.weak}). *)
end

module Make (L : LTS) : sig
  val strong : L.state -> L.state -> bool

  val weak : L.state -> L.state -> bool
  (** Branching-insensitive to [τ]: [s ⇒a⇒ s'] is [τ* a τ*] (and [τ*]
      for the silent label itself). *)

  val classes : L.state list -> (L.state * int) list
  (** Strong-bisimilarity equivalence classes of the given states and
      everything reachable from them, as a state → class-id map. *)

  val simulates : L.state -> L.state -> bool
  (** [simulates a b]: [b] (strongly) simulates [a] — every move of [a]
      can be matched by [b], coinductively. Bisimilarity implies mutual
      simulation; the converse does not hold in general. *)
end

(** {1 Instances} *)

val hexpr_strong : Hexpr.t -> Hexpr.t -> bool
val hexpr_weak : Hexpr.t -> Hexpr.t -> bool
val contract_strong : Contract.t -> Contract.t -> bool
val contract_weak : Contract.t -> Contract.t -> bool
(** Contracts have no silent moves, so weak = strong; provided for
    symmetry. *)

val hexpr_simulates : Hexpr.t -> Hexpr.t -> bool
val contract_simulates : Contract.t -> Contract.t -> bool
