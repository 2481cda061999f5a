(** Policies from forbidden-trace regular expressions.

    A usage automaton accepts its violations, so a policy is just a
    regular expression over {e event patterns} (an event name plus a
    guard on its argument). [forbid] compiles the expression (Thompson,
    ε-eliminated) into a parametric {!Usage_automaton.t}.

    Semantics note: usage automata ignore letters that match no outgoing
    pattern of a current state (the implicit self-loops), so the
    expression describes the forbidden pattern {e as a subsequence
    skeleton} — ["read; write"] is violated by [read · log · write].
    When an event name does appear in the expression, occurrences that
    should be skippable must be made explicit with {!R.star}. *)

type pattern = { ev_name : string; guard : Guard.t }

module Pat : sig
  type t = pattern

  val compare : t -> t -> int
  val pp : t Fmt.t
end

module R : module type of Automata.Regex.Make (Pat)

val evp : ?guard:Guard.t -> string -> R.t
(** A single event pattern (guard defaults to [True]). *)

val forbid : name:string -> params:string list -> R.t -> Usage_automaton.t
(** Compile the forbidden-trace expression into a usage automaton.
    Raises [Invalid_argument] if a guard mentions an undeclared
    parameter, or if the expression is nullable (the empty trace cannot
    be a violation). *)
