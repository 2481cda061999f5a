(** History expressions (paper §3, Definition 1).

    [H ::= ε | h | μh.H | Σᵢ aᵢ.Hᵢ | ⊕ᵢ āᵢ.Hᵢ | α | H·H
         | open_{r,φ} H close_{r,φ} | φ[H]]

    plus the two {e residual} forms produced by the operational semantics
    ([close_{r,φ}] pending after an [open], and [Mφ] pending after a
    framing has been entered), and one documented extension:
    [Choice (H₁, H₂)], the unguarded internal choice [H₁ + H₂] of
    Bartoletti–Degano–Ferrari, required by the λ-calculus effect system
    for conditionals. The paper's §3–§4 fragment never uses [Choice].

    Terms are quotiented by [ε·H ≡ H ≡ H·ε] through the {!seq} smart
    constructor.

    Terms are {e hash-consed} ([Repr.Hashcons], table [hexpr.intern],
    the one intern table: a {!Contract.t} is a private [t] of the
    communication fragment): every structurally distinct term exists
    once while it is alive and carries a unique [id], so

    - [equal] is physical equality;
    - [hash] is structural: it is computed from a node's atoms and its
      children's stored hashes, never from ids;
    - terms have no order: every analysis finds and identifies states
      by [equal] and [hash], and numbers them in discovery order.

    Policies inside a term are compared as instances: {!Usage.Policy.make}
    shares an instance only between equal ids with equal automata, so
    interning never hands back a term carrying a different automaton
    under the same policy id. Pattern-match through {!node}; the record
    is [private], so the smart constructors are the only way to build a
    term. Never apply polymorphic [=], [compare] or [Hashtbl.hash] to
    terms: they would see ids. *)

type req = { rid : int; policy : Usage.Policy.t option }
(** A service request: unique identifier [r] and the policy [φ] the
    client imposes on the session ([None] encodes the paper's [∅]). *)

type t = private { id : int;  (** unique while the term is alive *)
                   hkey : int;  (** stored structural hash *)
                   node : node }

and node = private
  | Nil  (** ε *)
  | Var of string  (** recursion variable [h] *)
  | Mu of string * t  (** [μh.H], guarded tail recursion *)
  | Ext of (string * t) list  (** [Σᵢ aᵢ.Hᵢ], input-guarded external choice *)
  | Int of (string * t) list  (** [⊕ᵢ āᵢ.Hᵢ], output-guarded internal choice *)
  | Ev of Usage.Event.t  (** access event [α] *)
  | Seq of t * t  (** [H·H'] *)
  | Open of req * t  (** [open_{r,φ} H close_{r,φ}] *)
  | Close of req  (** residual [close_{r,φ}] *)
  | Frame of Usage.Policy.t * t  (** safety framing [φ[H]] *)
  | Frame_close of Usage.Policy.t  (** residual [Mφ] *)
  | Choice of t * t  (** extension: unguarded internal choice [H + H'] *)

val node : t -> node
(** Head constructor, for pattern matching: [match Hexpr.node h with …]. *)

val id : t -> int
(** The hash-consing id: [equal a b ⟺ id a = id b] for live terms. *)

val hash : t -> int
(** The stored structural hash: equal terms hash alike, and the value
    depends on the term alone, not on interning order. *)

(** {1 Smart constructors} *)

val nil : t
val var : string -> t

val mu : string -> t -> t
(** [mu h body]; [μh.ε] collapses to [ε] and an unused binder is elided. *)

val branch : (string * t) list -> t
(** External choice [Σᵢ aᵢ.Hᵢ]. Raises [Invalid_argument] on an empty
    list or duplicate channels. *)

val select : (string * t) list -> t
(** Internal choice [⊕ᵢ āᵢ.Hᵢ]. Same restrictions as {!branch}. *)

val recv : string -> t
(** [recv a] = [branch [a, nil]]. *)

val send : string -> t
(** [send a] = [select [a, nil]]. *)

val ev : ?arg:Usage.Value.t -> string -> t
val event : Usage.Event.t -> t
val seq : t -> t -> t
val seq_all : t list -> t
val open_ : rid:int -> ?policy:Usage.Policy.t -> t -> t
val close : rid:int -> ?policy:Usage.Policy.t -> unit -> t
val frame : Usage.Policy.t -> t -> t
val frame_close : Usage.Policy.t -> t
val choice : t -> t -> t

module Infix : sig
  val ( @. ) : t -> t -> t
  (** Sequential composition, right-associative. *)
end

(** {1 Structure} *)

val equal : t -> t -> bool
(** Physical equality — O(1) thanks to maximal sharing. *)

val compare_req : req -> req -> int
val pp_req : req Fmt.t

val size : t -> int
(** Number of AST nodes. *)

val free_vars : t -> string list
val is_closed : t -> bool

val subst : string -> by:t -> t -> t
(** Capture-avoiding substitution. *)

val unfold : string -> t -> t
(** [unfold h body] is [body{μh.body / h}] — one unfolding of [μh.body]. *)

val normalize : t -> t
(** Attach sequential continuations to choice prefixes:
    [(Σ aᵢ.Hᵢ)·K ↦ Σ aᵢ.(Hᵢ·K)] and likewise for [⊕], recursively.
    LTS-preserving; the canonical form produced by the parser. *)

(** {1 Syntactic inventories} *)

val requests : t -> req list
(** All [Open] requests, outermost first, including nested ones. *)

val policies : t -> Usage.Policy.t list
(** Policies from framings and requests, duplicate-free. *)

val channels : t -> string list

val events : t -> Usage.Event.t list
(** The {e inventory} of events occurring syntactically, sorted and
    duplicate-free — not a trace. To check a policy against the traces
    of an expression, use {!Validity.check_expr} on [φ[H]]. *)

(** {1 Well-formedness (paper §3: guarded tail recursion etc.)} *)

type wf_error =
  | Unguarded_recursion of string
      (** a recursion variable occurs with no communication prefix above it *)
  | Non_tail_recursion of string
      (** a recursion variable occurs in non-tail position *)
  | Unbound_variable of string
  | Duplicate_request of int  (** a request identifier is reused *)

val well_formed : t -> (unit, wf_error) result
val pp_wf_error : wf_error Fmt.t

val pp : t Fmt.t
val to_string : t -> string
