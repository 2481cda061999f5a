(** Fixed-capacity bit sets over [0 .. capacity-1], backed by an int
    array — the grounded policy rows ({!Policy_rows}) are bitsets, so a
    cursor step is a few word-wide unions instead of list or [Set]
    walks. *)

type t

val create : int -> t
(** [create n] is the empty set over universe [0..n-1]. *)

val set : t -> int -> unit

val union_into : dst:t -> t -> unit
(** [union_into ~dst s] adds every element of [s] to [dst]. The source
    capacity must not exceed the destination's. *)

val to_list : t -> int list
(** Elements, ascending. *)
