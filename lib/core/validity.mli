(** Validity of histories, [⊨ η] (paper §3.1): every prefix [η₀] of [η]
    must satisfy every policy active in it, on its flattened form [η₀♭].
    Because activation is retroactive (our approach is
    history-dependent), opening a framing re-examines the whole past.

    Three implementations, by decreasing directness:
    - {!valid} / {!check}: the literal definition over whole histories;
    - {!Monitor}: an incremental runtime monitor, used by the network
      semantics and simulator;
    - {!Abstract}: a bounded-state version that pre-tracks a fixed
      universe of policies (the framing-regularization idea of §3.1 and
      [4,5]), used by the static analyses — its state is finite, so
      reachability over it is model checking. *)

type violation = {
  policy : Usage.Policy.t;
  prefix : History.t;  (** the offending prefix *)
}

val pp_violation : violation Fmt.t

val valid : History.t -> bool
(** Literal Definition (table “Validity”): quadratic reference
    implementation, used as the oracle in tests. *)

val check : History.t -> (unit, violation) result
(** Incremental equivalent of {!valid}, with a diagnostic. *)

module Monitor : sig
  type t

  val empty : t
  val history : t -> History.t
  val push : t -> History.item -> (t, violation) result
  (** Raises [Invalid_argument] on a close without a matching open (such
      histories are not prefixes of balanced ones). *)

  val push_unchecked : t -> History.item -> t
  (** Log without enforcing: the item is appended and cursors advance
      even past a violation (the monitor-off mode of the evaluator). *)
end

module Abstract : sig
  type t

  val init : Usage.Policy.t list -> t
  (** [init universe] tracks a cursor for every policy of [universe]
      from the very beginning, so that a later activation needs no
      replay. Activating a policy outside the universe raises
      [Invalid_argument]. *)

  val push : t -> History.item -> (t, Usage.Policy.t) result
  (** [Error p] means appending the item violates policy [p]. *)

  val active : t -> string list
  (** Identifiers of currently active policies (multiset, sorted). *)

  val compare : t -> t -> int
  val equal : t -> t -> bool
  val pp : t Fmt.t
end

val check_expr :
  ?universe:Usage.Policy.t list ->
  Hexpr.t ->
  (unit, violation) result
(** Static validity of a stand-alone history expression: explores the
    (finite) product of the expression's LTS with {!Abstract} states and
    reports a violating path if one exists. Communications are ignored;
    [open_{r,φ}]/[close_{r,φ}] act as [Lφ]/[Mφ] (the network semantics
    logs exactly that framing for a session). The universe defaults to
    the policies syntactically occurring in the expression. *)
