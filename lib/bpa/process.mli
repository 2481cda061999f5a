(** Basic Process Algebra terms and the rendering of history expressions
    into them (paper §3.1: “the history expression Ĥ is naturally
    rendered as a BPA process”).

    [p ::= 0 | a | p·p | p + p | X]   with definitions [X ≜ p]. *)

type t =
  | Zero
  | Atom of Sym.t
  | Seq of t * t
  | Alt of t * t
  | Var of string

type defs = (string * t) list

val of_hexpr : Core.Hexpr.t -> t * defs
(** Each [μh.H] becomes a definition [X_h ≜ ⟦H⟧]; choices become sums of
    action-prefixed summands; framings expand to
    [Lφ · ⟦H⟧ · Mφ]. *)

val transitions : defs -> t -> (Sym.t * t) list
(** BPA structural operational semantics: [a --a--> 0],
    [p·q] steps in [p] (and in [q] once [p] has terminated), [p+q] picks
    a side, [X] unfolds. *)

val is_terminated : t -> bool
val reachable : ?limit:int -> defs -> t -> t list
(** Every process reachable from the argument, in ascending {!compare}
    order. *)

module Nfa : module type of Automata.Nfa.Make (Sym)

val to_nfa : defs -> t -> Nfa.t * (int -> t option)
(** The (finite) transition system of a guarded tail-recursive process as
    an NFA with no final states, its states numbered in breadth-first
    discovery order from [0], the process itself, together with the
    decoding of its numeric states. *)

val size : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int
val pp : t Fmt.t
