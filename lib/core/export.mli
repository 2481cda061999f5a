(** GraphViz renderings of the library's transition systems, for
    inspection and documentation: the stand-alone LTS of a history
    expression, and the abstract configuration graph a planned client
    explores (the state space {!Netcheck} model-checks). *)

val hexpr_dot : Hexpr.t Fmt.t
(** The reachable LTS of the expression ({!Semantics.lts}); the
    terminated state is a double circle. *)

val client_graph_dot :
  Network.repo -> Plan.t -> string * Hexpr.t -> Format.formatter -> unit
(** The abstract configuration graph of one planned client
    ({!Netcheck.graph}): nodes are (component, policy-cursor) states,
    numbered in discovery order from the initial [0]; edges are enabled
    network moves; blocked moves are rendered dashed and red with the
    violated policy. The states that [check] and [diagnose] condemn are
    red double circles: those with no enabled move, and settled sessions
    with an output the partner cannot take (Definition 5(ii)), which may
    still have enabled moves. *)
