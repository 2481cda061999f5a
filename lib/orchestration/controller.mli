(** Most-permissive controller synthesis (BDF): prune the n-party match
    product down to the largest sub-automaton an orchestrator can safely
    drive.

    The orchestrator chooses {e which} match to schedule — in particular,
    which receiver gets a contested offer — but it cannot refuse an offer
    a party has internally committed to, and it cannot stall a session
    whose client is still waiting. Accordingly a product state (that is
    not already successful) is {e bad} when

    - some enabled offer has no surviving match into a good state (an
      uncontrollable internal choice the orchestrator cannot deliver),
    - no surviving match is enabled at all (deadlock), or
    - its surviving matches reach neither a successful state nor a cycle
      that contains a match of party 0 (starvation: the coalition may
      keep talking among itself, but the client waits forever).

    The first two conditions are local and are applied until fixpoint;
    the third, the {e client-progress rule}, is one pass over the
    surviving edges (strongly connected components, O(states + edges)).
    The two alternate until neither removes a state, which yields the
    most-permissive controller: every surviving edge is kept, so any safe
    orchestrator is a sub-behaviour of it. Success is client-biased —
    party 0 terminated — matching the paper's pairwise notion; states on
    match loops survive only when the client takes part in the loop,
    which is the agreement notion of Basile–Degano–Ferrari
    ({e Automata for Specifying and Orchestrating Service Contracts})
    restricted to the client. With two parties every match involves the
    client, the rule never fires, and a controller exists iff the parties
    are strictly compliant (Theorem 1) — pinned by the test suite.

    When the initial state is pruned no controller exists; {!synthesize}
    then returns a {e concrete counterexample}: a match trace every
    orchestrator must be unable to complete, ending in a locally stuck
    configuration or in one the progress rule condemned. *)

type reason =
  | Unmatched_offer of { party : int; channel : string }
      (** the party insists on an output nobody can ever receive *)
  | Deadlock  (** no match enabled, client not terminated *)
  | Starved
      (** matches remain, but none leads to client success or to a
          loop the client takes part in *)

type counterexample = {
  automaton : Automaton.t;
  trace : Automaton.move list;  (** matches from the initial state *)
  stuck : int;  (** the bad configuration reached (a state index) *)
  reason : reason;
}

type t = {
  automaton : Automaton.t;
  good : bool array;  (** per product state; survivors of the pruning *)
  edges : (Automaton.move * int) list array;
      (** surviving controller edges per reachable good state; empty on
          bad, unreachable and successful states *)
  states : int;  (** good states reachable under the controller *)
  transitions : int;  (** surviving edges among those *)
}

val synthesize : Automaton.t -> (t, counterexample) result
(** Deterministic; increments [orchestration.synthesis.runs] and runs
    under an [orchestration.synthesize] span. *)

val verify : t -> (unit, string) result
(** Independent re-check that the composed system under the controller
    satisfies agreement: re-walk the controller from the initial state
    recomputing every party's transitions from its contract, and confirm
    (i) every surviving edge is a legal match of the original parties,
    (ii) no reachable non-successful state leaves an enabled offer
    unmatched or deadlocks, and (iii) from every reachable state a
    successful state or a cycle containing a party-0 match is reachable
    over the controller's edges (the client-progress rule). Used by the
    CLI's re-verification line and the soundness property tests. *)

val pp : t Fmt.t
val pp_reason : names:string array -> reason Fmt.t
val pp_counterexample : counterexample Fmt.t
