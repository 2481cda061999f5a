(** Contract automata (Basile–Degano–Ferrari, {e Automata for Specifying
    and Orchestrating Service Contracts}): the n-party generalisation of
    the paper's pairwise product [H₁ ⊗ H₂].

    A {e principal} contract automaton is the LTS of one closed contract,
    with transitions labelled as {e offers} (outputs [ā]) and {e requests}
    (inputs [a]). The {e product} of n principals runs them side by side;
    its transitions are the {e matches} — an offer of one party delivered
    to a request of another on the same channel. By convention {b party 0
    is the client} (the session initiator); the remaining parties are the
    coalition serving it.

    States are vectors of hash-consed contract residuals, interned by
    their id vectors, so building the product costs one table lookup per
    discovered configuration and equality is O(parties). Every state of a
    built automaton is reachable from the initial vector by construction.

    Where the parties happen to be two, the match product coincides with
    {!Core.Product} (Definition 5) — the test suite pins the equivalence
    against Theorem 1. *)

type party = { name : string; contract : Core.Contract.t }

type move = { sender : int; receiver : int; channel : string }
(** A match: party [sender]'s offer on [channel] delivered to party
    [receiver]'s request. Indices are positions in {!parties}. *)

type t

val build : ?limit:int -> party list -> t
(** The n-party match product, explored breadth-first from the vector of
    initial contracts. Needs at least two parties; raises [Failure] past
    [limit] states (default 1_000_000 — a guard, not a tuning knob).
    Deterministic: states are numbered in discovery order (state 0 is the
    initial vector) and edge lists follow (sender, transition, receiver)
    order. *)

(** {1 Accessors} *)

val parties : t -> party array
val size : t -> int
(** Number of product states (all reachable). *)

val state : t -> int -> Core.Contract.t array
(** The residual vector of a state (a copy). *)

val moves : t -> int -> (move * int) list
(** Outgoing match edges of a state, in discovery order. *)

val offers : t -> int -> (int * string) list
(** Enabled offers [(party, channel)] of a state — outputs some party has
    internally committed to; an orchestrator cannot refuse them. *)

val requests : t -> int -> (int * string) list
(** Enabled requests [(party, channel)] of a state. *)

val client_done : t -> int -> bool
(** Party 0 has terminated — the pairwise notion of success (the paper
    abandons the server once the client is fulfilled). *)

val all_done : t -> int -> bool
(** Every party has terminated — the BDF notion of a final state. *)

(** {1 Agreement} *)

val admits_agreement : t -> bool
(** Some reachable state is final for {e all} parties (BDF agreement). *)

val admits_weak_agreement : t -> bool
(** Some reachable state satisfies {!client_done} — the client-biased
    notion matching the paper's pairwise success. *)

val safe : t -> bool
(** Every reachable non-{!client_done} state is locally good: each
    enabled offer has a match and some match is enabled. Then the
    most-permissive controller is the whole product unless the
    client-progress rule of {!Controller} condemns a state where the
    client can no longer progress. *)

(** {1 The lib/automata bridge}

    Principal automata and the product rendered as NFAs over
    offer/request/match labels, so language-level questions (emptiness,
    shortest witnesses) reuse the generic kit. *)

module Label : sig
  type t = { sender : int option; receiver : int option; channel : string }
  (** [Some i, None] an offer by party [i]; [None, Some j] a request by
      party [j]; [Some i, Some j] a match. *)

  val compare : t -> t -> int
  val pp : t Fmt.t
end

module Nfa : module type of Automata.Nfa.Make (Label)

val principal : index:int -> party -> Nfa.t
(** The principal contract automaton of one party: states are its
    reachable residuals, finals the terminated ones, transitions its
    offers and requests tagged with [index]. *)

val to_nfa : t -> Nfa.t
(** The product as an NFA over match labels; finals are the {!all_done}
    states. [admits_agreement t ⟺ L(to_nfa t) ≠ ∅]. *)

val agreement_witness : t -> move list option
(** A shortest match trace reaching an all-final state, via
    {!Nfa.shortest_accepted} — [None] iff agreement fails. *)

val pp_move : parties:party array -> move Fmt.t
val pp_state : t -> int Fmt.t
