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
    initial contracts. Needs at least two parties; raises
    {!Automata.Bfs.State_limit} past [limit] states (default 1_000_000 —
    a guard, not a tuning knob).
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

val pp_move : parties:party array -> move Fmt.t
