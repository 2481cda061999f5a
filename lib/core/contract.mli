(** Behavioural contracts: the projection of history expressions on their
    communication actions (paper §4, “Projection on Communication
    Actions”). The projection yields the sub-language of [Castagna,
    Gesbert, Padovani 2009] contracts where internal choice is
    output-guarded, external choice is input-guarded and recursion is
    guarded and tail — hence contract transition systems are finite
    state.

    Contracts are {e hash-consed} ([Repr.Hashcons]): every structurally
    distinct contract exists exactly once, carries a unique [id], and

    - [equal] is physical equality,
    - [compare] is [Int.compare] on ids (a total order consistent with
      [equal], though {e not} the structural order — use it for
      containers, not for anything order-meaningful),
    - analyses key their caches and visited sets on [id] (or id pairs)
      instead of re-walking terms.

    Pattern-match through {!node} (or the [.node] field); the record is
    [private], so values can only be built by the smart constructors,
    which intern maximally-shared representatives. *)

type t = private { id : int;  (** unique while the value is alive *)
                   hkey : int;  (** cached shallow hash *)
                   node : node }

and node = private
  | Nil
  | Var of string
  | Mu of string * t
  | Ext of (string * t) list  (** input-guarded external choice *)
  | Int of (string * t) list  (** output-guarded internal choice *)
  | Seq of t * t

val node : t -> node
(** Head constructor, for pattern matching: [match Contract.node c with …]. *)

val id : t -> int
(** The hash-consing id: [equal a b ⟺ id a = id b] (for live values). *)

exception Unprojectable of string
(** Raised by {!project} on an extension [Choice] whose branches do not
    project to the same contract: such expressions fall outside the
    paper's §4 fragment. *)

val project : Hexpr.t -> t
(** [(·)!]: erase events, framings and whole nested sessions
    [open_{r,φ} … close_{r,φ}]. Closed expressions project to closed
    contracts. *)

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
(** The contract LTS (I-Choice, E-Choice, Conc, Rec restricted to
    communications). Memoized by id ([contract.transitions] cache). *)

val reachable : ?limit:int -> t -> t list
(** Finite for well-formed (guarded, tail-recursive) contracts.
    Returned in ascending id order. *)

val dual : t -> t
(** Swap inputs and outputs (session-type duality). Every contract is
    compliant with its dual — the canonical partner — and duality is an
    involution. *)

val is_terminated : t -> bool

val free_vars : t -> string list
(** Free recursion variables (memoized). Closed contracts — the only
    kind the projection produces — have none. *)

val equal : t -> t -> bool
(** Physical equality — O(1) thanks to maximal sharing. *)

val compare : t -> t -> int
(** [Int.compare] on ids: total, consistent with [equal], O(1). *)

val size : t -> int
val pp : t Fmt.t
val to_string : t -> string
