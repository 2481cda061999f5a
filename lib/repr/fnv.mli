(** FNV-1a, 32 bits: the one string hash whose values are part of an
    on-disk or wire contract — broker journal and snapshot checksums,
    and shard routing. It must stay stable across OCaml versions and
    builds, which [Hashtbl.hash] does not promise. A consistency check,
    not a MAC. *)

val hash32 : string -> int
(** In [0 .. 2{^32}-1]; [hash32 "" = 0x811c9dc5]. *)

val basis : int
(** [0x811c9dc5], the hash of no bytes. *)

val fold : int -> string -> int
(** [fold h s] continues a hash [h] over the bytes of [s], so hashing
    pieces in turn equals hashing their concatenation:
    [fold (fold basis a) b = hash32 (a ^ b)]. *)
