(** Static verification of a planned network: exhaustive exploration of
    the (finite) abstract configuration graph.

    Histories are unbounded, so configurations are abstracted by
    {!Validity.Abstract}: one automaton cursor per policy of the
    network's universe, tracked from the start — the finite-state
    rendering of history-dependent validity that §3.1 obtains by framing
    regularization. Components have finitely many residuals (guarded
    tail recursion), hence the abstract graph is finite and reachability
    decides the paper's two stuckness conditions:

    - {e security}: a component's only moves all violate active policies;
    - {e communication}: a session partner offers an output nobody can
      match, or a party waits forever (non-compliance).

    Clients of a network never interact with each other (sessions are
    created only from requests), so each top-level client is checked in
    isolation; {!check} conjoins the per-client verdicts.

    One walk on the breadth-first kernel {!Automata.Bfs} explores a
    planned client's graph for every reader here — {!check_client}, {!failures} and {!graph} — and so for
    [Export.client_graph_dot] and [Quant.Plan_cost] too. It has one step
    function (the component's moves passed through the policy cursors,
    blocked moves kept with the policy that refuses them), one state key
    (the component and the cursors), and one stuck classifier, which
    condemns a non-terminated state for the Definition 5(ii) mismatch
    first, and otherwise, when no move is enabled, for an unplanned
    request, a security block or a communication deadlock. States are
    numbered in discovery order and keep the parent they were first
    reached from, so every witness is a shortest path. *)

type stuck_kind =
  | Security of Usage.Policy.t
      (** every candidate move violates this (or some) active policy *)
  | Communication
      (** no candidate move exists: a communication cannot be matched *)
  | Unplanned_request of int
      (** a request has no binding in the plan (or a dangling location) *)

type stuck = {
  client : string;  (** location of the stuck top-level client *)
  component : Network.component;  (** the stuck residual *)
  kind : stuck_kind;
  trace : Network.glabel list;  (** a shortest path into the stuck state *)
}

type stats = { states : int; transitions : int }

type verdict = Valid of stats | Invalid of stuck

val check_client :
  ?universe:Usage.Policy.t list ->
  ?level:Compliance.level ->
  Network.repo ->
  Plan.t ->
  string * Hexpr.t ->
  verdict
(** Explore one client against the repository under the given plan. The
    universe defaults to every policy occurring in the client, the
    repository, or the plan's reachable services.

    [level] (default {!Compliance.Strict}) loosens the {e communication}
    condition only, mirroring {!Product.admits} at network granularity:
    [Skip_k k] tolerates up to [max 0 k] communication-stuck abstract
    states, [Affectible] any number — in both cases provided a {e
    terminated} configuration remains reachable, so the degraded
    network can still finish. This completion criterion is
    intentionally stricter than {!Product.survey}'s per-pair
    [successful] (which also accepts a live loop): at network
    granularity a tolerated wedge means some execution was written off,
    and the remaining ones must demonstrably complete — a perpetually
    live network that can never terminate is [Invalid] under any
    loosened level. Security stucks and unplanned requests are fatal at
    {e every} level: no admission level ever admits a policy violation.
    With [Strict] the tolerance budget is zero and the check is exactly
    the original one. *)

val failures :
  ?universe:Usage.Policy.t list ->
  ?limit:int ->
  Network.repo ->
  Plan.t ->
  string * Hexpr.t ->
  stuck list
(** The distinct stuck abstract states of the planned client in
    discovery order, each with a shortest witness — {!check_client}
    stops at the first. States reachable only through a stuck one are
    not explored. [limit] (default 10) caps the number reported. *)

val check :
  ?universe:Usage.Policy.t list ->
  ?level:Compliance.level ->
  Network.repo ->
  (Plan.t * (string * Hexpr.t)) list ->
  verdict
(** First failure among the clients (each with its own plan — the
    paper's plan vector [~π]), or combined statistics. [level] is
    threaded to each per-client {!check_client}. *)

type graph = {
  nodes : (Network.component * stuck option) array;
      (** the states by discovery number, [0] the initial one, each with
          its first condemnation (the one {!failures} reports) *)
  edges : (int * Network.glabel * int) list;  (** the enabled moves *)
  blocked : (int * Network.glabel * Usage.Policy.t) list;
      (** the moves a policy cursor refuses, with that policy *)
}

val graph : Network.repo -> Plan.t -> string * Hexpr.t -> graph
(** The whole abstract configuration graph of the planned client, every
    state expanded, condemned or not. {!check_client} at [Strict] is
    [Valid] exactly when no node is condemned, and otherwise reports the
    first condemned node in discovery order. *)

val explore_interleaved :
  ?limit:int ->
  Network.repo ->
  (Plan.t * (string * Hexpr.t)) list ->
  stats
(** Size of the full interleaved state space (for benchmarks): the
    product of the clients' abstract graphs, each client stepped and
    keyed as in {!graph}. Raises {!Automata.Bfs.State_limit} past
    [limit] (default 1_000_000) states. *)

val pp_stuck : stuck Fmt.t
val pp_verdict : verdict Fmt.t
