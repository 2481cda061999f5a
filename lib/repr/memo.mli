(** Id-keyed memo tables for analysis results.

    A memo table caches a pure function of hash-consed values, keyed by
    their integer ids — so lookups hash a machine word, never a term.
    Because ids are unique for the lifetime of the interned value and
    never reused while it is reachable, an id-keyed entry can never be
    observed stale; at worst {!Cache.clear_all} drops it and the next
    query recomputes.

    Every table registers itself in {!Cache} {e with} a clear hook and
    mirrors its hit/miss counts to [Obs.Metrics] as [<name>.hits] /
    [<name>.misses]. *)

type ('a, 'b) t

val create : name:string -> key:('a -> int) -> unit -> ('a, 'b) t
(** [create ~name ~key ()] makes a table memoizing a function of values
    projected to an int key by [key] (typically the hash-cons id). *)

val find : ('a, 'b) t -> 'a -> compute:('a -> 'b) -> 'b
(** Cached result for [a], running [compute a] on a miss (outside the
    table's lock) and storing the result. [compute] must be pure in
    [key a]. *)

(** Tables keyed by an ordered pair of ids. [Cache.invalidate id] drops
    exactly the pairs with [id] on either side, by one scan of the
    table. *)
module Pair : sig
  type ('a, 'b) t

  val create : name:string -> key:('a -> int * int) -> unit -> ('a, 'b) t

  val find : ('a, 'b) t -> 'a -> compute:('a -> 'b) -> 'b
end
