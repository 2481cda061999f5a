(** Stand-alone operational semantics of history expressions (the rules
    I-Choice, E-Choice, α-Acc, S-Open, P-Open, Conc, Rec of §3), plus the
    τ-commit of the unguarded-choice extension. *)

val transitions : Hexpr.t -> (Action.t * Hexpr.t) list
(** All one-step transitions [H --λ--> H']. *)

val step : Hexpr.t -> Action.t -> Hexpr.t list
(** Targets of transitions labelled by the given action. *)

val is_terminated : Hexpr.t -> bool
(** [H ≡ ε]. *)

val reachable : Hexpr.t -> Hexpr.t list
(** All expressions reachable from the argument, the argument first, in
    breadth-first discovery order. Well-formed expressions (guarded tail
    recursion) have finitely many reachable states; past 100_000 states
    the walk raises {!Automata.Bfs.State_limit}. *)

val lts : Hexpr.t -> (Hexpr.t * (Action.t * int) list) array
(** The numbered LTS of the expression: its {!reachable} states by
    discovery number, state [0] the argument, each with its
    {!transitions} in order, targets given as state numbers. The
    numbering that the DOT export and the cost analyses read. Raises
    {!Automata.Bfs.State_limit} past 100_000 states. *)

val traces : depth:int -> Hexpr.t -> Action.t list list
(** All maximal traces of length at most [depth] (exhaustive unfolding;
    meant for tests and small examples). *)
