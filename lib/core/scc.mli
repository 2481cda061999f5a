(** Strongly connected components of a finite graph. *)

val components : ('a * int) list array -> int array * int
(** [components adj] over the nodes [0 … n-1], where [adj.(v)] lists
    [v]'s labelled out-edges [(label, target)]: the component id of every
    node, and the number of components. Tarjan's algorithm, iterative
    (no recursion, whatever the graph's depth), O(nodes + edges).
    Components are numbered in the order they complete, so an edge
    between two components always goes from a higher id to a lower one:
    increasing ids are a reverse topological order of the condensation. *)
