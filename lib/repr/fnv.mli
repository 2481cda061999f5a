(** FNV-1a, 32 bits: the one string hash whose values are part of an
    on-disk or wire contract — broker journal and snapshot checksums,
    and shard routing. It must stay stable across OCaml versions and
    builds, which [Hashtbl.hash] does not promise. A consistency check,
    not a MAC. *)

val hash32 : string -> int
(** In [0 .. 2{^32}-1]; [hash32 "" = 0x811c9dc5]. *)
