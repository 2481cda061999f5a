(** GraphViz renderings of the library's transition systems, for
    inspection and documentation: the stand-alone LTS of a history
    expression, the compliance product of two contracts, and the
    abstract configuration graph a planned client explores (the state
    space {!Netcheck} model-checks). All three are numbered by the
    breadth-first kernel that discovered them, and one printer renders
    them. *)

val hexpr_dot : Hexpr.t Fmt.t
(** The reachable LTS of the expression ({!Semantics.lts}), numbered in
    discovery order from the expression itself, [0]; the terminated
    state is a double circle. *)

val product_dot : Product.t Fmt.t
(** The compliance product ({!Product.build}), numbered by the survey's
    walk from the initial pair [0]; final (stuck) states are double
    circles and each τ-edge is labelled with its channel. *)

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
