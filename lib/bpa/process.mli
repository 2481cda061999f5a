(** Basic Process Algebra terms and the rendering of history expressions
    into them (paper §3.1: “the history expression Ĥ is naturally
    rendered as a BPA process”).

    [p ::= 0 | a | p·p | p + p | X]   with definitions [X ≜ p]. *)

type t = private
  | Zero
  | Atom of Sym.t
  | Seq of int * t * t  (** [p·q], with the hash of the whole term *)
  | Alt of int * t * t  (** [p + q], with the hash of the whole term *)
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

module Nfa : module type of Automata.Nfa.Make (Sym)

val to_nfa : defs -> t -> Nfa.t * (int -> t option)
(** The (finite) transition system of a guarded tail-recursive process as
    an NFA with no final states, its states numbered in breadth-first
    discovery order from [0], the process itself, together with the
    decoding of its numeric states. Raises {!Automata.Bfs.State_limit}
    past 100_000 states. *)

(** {1 Construction (for tests)} *)

val atom : Sym.t -> t

val seq : t -> t -> t
(** [p·q], right-nested, with [0] as its unit. *)

val size : t -> int

val equal : t -> t -> bool
(** Structural equality, settled at once by physical identity or by
    distinct hashes. *)

val pp : t Fmt.t
