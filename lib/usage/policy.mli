(** Instantiated security policies.

    A policy is an instantiated usage automaton together with a unique
    identifier (the automaton name applied to its actual parameters, e.g.
    [phi({s1},45,100)]). Per the default-accept discipline, the automaton
    {e accepts the violations}: a trace of events respects the policy iff
    no offending state is reachable on it. *)

module Label : sig
  type t = { ev_name : string; guard : Guard.t; env : Guard.env }
  type letter = Event.t

  val sat : t -> letter -> bool
  val pp : t Fmt.t
  val pp_letter : letter Fmt.t
end

module A : module type of Automata.Sfa.Make (Label)

type t

val make :
  id:string ->
  init:int ->
  offending:int list ->
  trans:(int * Label.t * int) list ->
  t
(** Policies are shared: while an instance with this [id] and an equal
    automaton (initial state, offending states and labelled transitions)
    is alive, [make] returns it. Two automata under one id stay two
    instances. *)

val id : t -> string
val automaton : t -> A.t

(** {1 Whole-trace checking} *)

val respects : t -> Event.t list -> bool
(** [respects p tr] is [tr ⊨ p] — no prefix of [tr] drives the automaton
    into an offending state. (Offending states of usage automata are
    absorbing under the implicit self-loop convention, so checking the
    full trace suffices.) *)

val first_violation : t -> Event.t list -> int option
(** See {!Sfa.Make.first_violation}. *)

(** {1 Incremental checking}

    Used by the validity monitor, which must resume policies mid-history
    (a policy activated by [Lϕ] is first replayed over the whole past —
    the history-dependent discipline of §3.1). *)

type cursor

val start : t -> cursor
val advance : t -> cursor -> Event.t -> cursor
val offending : t -> cursor -> bool
val replay : t -> Event.t list -> cursor

val cursor_states : cursor -> int list
(** Underlying automaton states, for fingerprinting configurations. *)

val equal : t -> t -> bool
(** Identity of policies is their [id]. *)

val compare : t -> t -> int
val pp : t Fmt.t
