(** Analyses run on one engine, the hash-consed contract graph of
    [Core]: [Product.survey] and [Validity.Abstract] step it directly,
    so nothing needs installing. *)

val install : unit -> unit
(** Does nothing. The benchmark harness ([perfbench/bench.ml]) still
    calls it; this library goes once that call does. *)
