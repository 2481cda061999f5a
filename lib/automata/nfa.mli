(** Nondeterministic finite automata over a finite, ordered alphabet.

    This is the workhorse behind the static machinery of the library:
    instantiated usage policies become concrete NFAs, history expressions
    are rendered as NFAs over ground actions, and validity checking is a
    reachability question on their product.

    States are plain integers; an automaton only ever mentions states
    that appear in its transition relation, its initial set or its final
    set. All operations are purely functional. *)

module type ALPHABET = sig
  type t

  val compare : t -> t -> int
  val pp : t Fmt.t
end

module Make (A : ALPHABET) : sig
  type symbol = A.t
  type state = int

  module States : Set.S with type elt = state

  type t

  (** {1 Construction} *)

  val create :
    init:state list ->
    finals:state list ->
    trans:(state * symbol * state) list ->
    t
  (** [create ~init ~finals ~trans] builds an NFA. The state space is the
      union of all states mentioned. *)

  val empty : t
  (** The automaton with no states; accepts nothing. *)

  (** {1 Accessors} *)

  val states : t -> States.t
  val initials : t -> States.t
  val finals : t -> States.t
  val transitions : t -> (state * symbol * state) list
  val alphabet : t -> symbol list
  (** Symbols occurring on transitions, sorted, without duplicates. *)

  val size : t -> int
  (** Number of states. *)

  (** {1 Execution} *)

  val step : t -> States.t -> symbol -> States.t
  val run : t -> symbol list -> States.t
  (** States reachable from the initial set by reading the whole word. *)

  val accepts : t -> symbol list -> bool

  (** {1 Analysis} *)

  val reachable : t -> States.t
  val is_language_empty : t -> bool
  (** [true] iff no final state is reachable from an initial state. *)

  val shortest_accepted : t -> symbol list option
  (** A shortest accepted word, if the language is non-empty. *)

  (** {1 Boolean operations} *)

  val product :
    final:(left_final:bool -> right_final:bool -> bool) -> t -> t -> t
  (** Synchronous product. The [final] predicate decides finality of a
      pair state from the finality of its components, so the same
      function yields intersection ([&&]) or other combinations. *)

  val intersect : t -> t -> t

  val determinize : t -> t
  (** Subset construction; the result is a complete DFA over
      [alphabet t] plus a sink state. *)

  val complement : alphabet:symbol list -> t -> t
  (** Complement w.r.t. the given alphabet (the automaton is completed
      and determinized first). *)
end
