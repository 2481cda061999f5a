(** Stand-alone operational semantics of history expressions (the rules
    I-Choice, E-Choice, α-Acc, S-Open, P-Open, Conc, Rec of §3), plus the
    τ-commit of the unguarded-choice extension. *)

val transitions : Hexpr.t -> (Action.t * Hexpr.t) list
(** All one-step transitions [H --λ--> H']. *)

val step : Hexpr.t -> Action.t -> Hexpr.t list
(** Targets of transitions labelled by the given action. *)

val is_terminated : Hexpr.t -> bool
(** [H ≡ ε]. *)

val reachable : ?limit:int -> Hexpr.t -> Hexpr.t list
(** All expressions reachable from the argument. Well-formed expressions
    (guarded tail recursion) have finitely many reachable states; the
    optional [limit] (default 100_000) guards against ill-formed input.
    Raises [Failure] when the limit is hit. *)

val lts : Hexpr.t -> int * (Hexpr.t * (Action.t * int) list) array
(** The numbered LTS of the expression: its {!reachable} states in that
    order, each with its {!transitions}, targets given as indices into
    the array; and the index of the argument itself. The one numbering
    that the DOT export and the cost analyses read. *)

val traces : depth:int -> Hexpr.t -> Action.t list list
(** All maximal traces of length at most [depth] (exhaustive unfolding;
    meant for tests and small examples). *)
