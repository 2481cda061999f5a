(** Compliance [H_c ⊢ H_s] (paper Definition 4), implemented literally:
    the largest relation such that, at every pair of contracts reachable
    through synchronised steps,

    + (1) for all ready sets [C] of the client and [S] of the server,
      either [C = ∅] (the client may terminate) or [C ∩ S̄ ≠ ∅] (some
      action of [C] has its co-action in [S]); and
    + (2) the relation is closed under synchronised transitions.

    This module is the {e reference} implementation; the decision
    procedure of Theorem 1 lives in {!Product} and the two are
    cross-validated by the test suite. *)

(** {1 Loosened compliance levels}

    The graceful-degradation ladder (after Barbanera–de'Liguoro's
    loosened compliance / sub-behaviour preorders, arXiv:1311.5802, and
    reversible client/server compliance, arXiv:1408.5981). A level
    weakens only the {e communication} side of a verdict; security
    ([Netcheck]) stays strict at every level, so no level ever admits a
    policy violation. Admissibility is decided on two measures of the
    product automaton ({!Product.survey}):

    - [stuck]: the number of distinct reachable stuck configurations;
    - [successful]: whether some maximal execution avoids them all
      (reaches client termination or stays live forever).

    [Strict] is Definition 4 ([stuck = 0]); [Skip_k k] tolerates up to
    [k] avoidable disagreement points ([stuck <= k] and [successful] —
    so skip-0 coincides with strict); [Affectible] admits whenever a
    successful execution exists at all, relying on the runtime's
    reversible sessions to retract the unsuccessful ones back to their
    last agreement point. *)

type level = Strict | Skip_k of int | Affectible

val rank : level -> int
(** Position on the ladder: [0] for strict (and skip-0), [k] for
    skip-k, [max_int] for affectible. *)

val weaker_equal : level -> level -> bool
(** [weaker_equal a b]: the sub-behaviour preorder — everything
    admitted at [b] is admitted at [a] ([rank a >= rank b]). *)

val admits_measures : level -> stuck:int -> successful:bool -> bool
(** The admissibility predicate on the two product measures. Monotone
    in the level: [weaker_equal a b] implies
    [admits_measures b ~stuck ~successful] entails the same at [a]. *)

val level_to_string : level -> string
(** ["strict"], ["skip:K"], ["affectible"] — the concrete syntax used
    by scripts, journals and snapshots. *)

val level_of_string : string -> (level, string) result
val pp_level : level Fmt.t

val equal_level : level -> level -> bool
(** Semantic equality: [Skip_k 0] equals [Skip_k 0] but not [Strict] —
    use {!rank} for admissiveness comparisons. Negative skips are
    normalised to 0. *)

(** {1 The strict relation} *)

val sync_successors : Contract.t -> Contract.t -> (string * (Contract.t * Contract.t)) list
(** Pairs reachable in one synchronisation [H₁ --a--> H₁', H₂ --co(a)--> H₂'],
    tagged by channel. *)

val locally_ok : Contract.t -> Contract.t -> bool
(** Condition (1) of Definition 4 at a single pair. *)

val compliant : Contract.t -> Contract.t -> bool
(** [compliant client server] decides [client ⊢ server] by checking
    {!locally_ok} on every pair reachable from the initial one (the
    greatest-fixed-point reading of Definition 4). It is the reference
    the Theorem 1 tests compare [Product.compliant] against. *)
