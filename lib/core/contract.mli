(** Behavioural contracts: the projection of history expressions on their
    communication actions (paper §4, “Projection on Communication
    Actions”). The projection yields the sub-language of [Castagna,
    Gesbert, Padovani 2009] contracts where internal choice is
    output-guarded, external choice is input-guarded and recursion is
    guarded and tail — hence contract transition systems are finite
    state.

    A contract is a history expression of that communication fragment:
    [t] is a private {!Hexpr.t}, built only by {!project} and the
    constructors below, and [(c :> Hexpr.t)] reads it back as a term.
    Contracts are interned in [hexpr.intern] with every other term
    ({!Hexpr}), so

    - [equal] is physical equality,
    - analyses key their caches and visited sets on [id] (or id pairs)
      instead of re-walking terms,
    - a communication-only expression is its own projection.

    Pattern-match through {!node}, the fragment's view of {!Hexpr.node}. *)

type t = private Hexpr.t

type node = private
  | Nil
  | Var of string
  | Mu of string * t
  | Ext of (string * t) list  (** input-guarded external choice *)
  | Int of (string * t) list  (** output-guarded internal choice *)
  | Seq of t * t

val node : t -> node
(** Head constructor, for pattern matching: [match Contract.node c with …].
    The fragment's view of {!Hexpr.node}; every contract is in the
    fragment, so it never raises. *)

val id : t -> int
(** The hash-consing id: [equal a b ⟺ id a = id b] (for live values). *)

exception Unprojectable of string
(** Raised by {!project} on an extension [Choice] whose branches do not
    project to the same contract: such expressions fall outside the
    paper's §4 fragment. *)

val project : Hexpr.t -> t
(** [(·)!]: erase events, framings and whole nested sessions
    [open_{r,φ} … close_{r,φ}]. Closed expressions project to closed
    contracts, and an expression of the communication fragment to
    itself. *)

(** {1 Construction (mainly for tests)} *)

val nil : t
val var : string -> t
val mu : string -> t -> t
val branch : (string * t) list -> t
val select : (string * t) list -> t
val seq : t -> t -> t
val recv : string -> t
val send : string -> t

(** {1 Semantics} *)

type dir = I  (** input [a] *) | O  (** output [ā] *)

val co : dir -> dir

val transitions : t -> (dir * string * t) list
(** The contract LTS: {!Semantics.transitions}, whose labels on the
    fragment are inputs ([I]) and outputs ([O]) only. Memoized by id
    ([contract.transitions] cache). *)

val dual : t -> t
(** Swap inputs and outputs (session-type duality). Every contract is
    compliant with its dual — the canonical partner — and duality is an
    involution. *)

val is_terminated : t -> bool

val equal : t -> t -> bool
(** Physical equality — O(1) thanks to maximal sharing. *)

val size : t -> int
(** {!Hexpr.size}. *)

val pp : t Fmt.t
val to_string : t -> string
