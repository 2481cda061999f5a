(** The one breadth-first walk of an implicit finite graph: the kernel
    every state-discovering analysis runs on (Netcheck's configuration
    graphs, the compliance product, static validity, the orchestration
    product, NFA reachability and products, reachable-state sets).

    A state is numbered when it is first discovered, roots first, and
    states are visited in that order. Each keeps the state it was first
    reached from, so the labels back to a root form a shortest path. *)

type ('s, 'l, 'v) visit =
  | Expand of ('l * 's) list
      (** discover these labelled successors of the visited state *)
  | Prune  (** expand nothing from the visited state *)
  | Stop of 'v  (** end the walk with this value *)

exception State_limit of int
(** Raised by a walk with [~limit:n] that discovers more than [n]
    states; carries [n]. *)

module Make (K : Hashtbl.HashedType) : sig
  type 'l walk
  (** A walk in progress, as its reader sees it. *)

  val run :
    ?limit:int ->
    ?edge:(int -> 'l -> int -> unit) ->
    K.t list ->
    ('l walk -> int -> K.t -> (K.t, 'l, 'v) visit) ->
    'v option * int
  (** [run roots visit] walks breadth-first from [roots], calling
      [visit w i s] on every state [s] in discovery order, [i] being its
      number. Returns the value of the [Stop] that ended the walk, if
      any, and the number of states discovered. [edge i l j] reports
      each expanded successor: the move labelled [l] from state [i] to
      state [j]. With [~limit:n], raises {!State_limit} [n] when more
      than [n] states are discovered. *)

  val path : 'l walk -> int -> 'l list
  (** The labels from a root to a discovered state along the states it
      was first reached from: a shortest path. *)

  val states :
    ?limit:int -> (K.t -> ('l * K.t) list) -> K.t list -> K.t list
  (** [states succ roots]: every state reachable from [roots], once
      each, in discovery order. *)
end
