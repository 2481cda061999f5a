(** The shared seeded-RNG convention of the tests and the benchmark.

    Every randomised harness (the workload generator, the seeded
    reproduction corpora, the benchmark's generated specs) draws from a
    [Random.State.t] built here, so a replay with the same seed is
    byte-for-byte identical and the seed is the only knob — the
    workload generator exposes it as its [seed] field. The global
    [Random] state is never touched. *)

val default_seed : int
(** [2013] — the paper's year, and the seed of the reproduction
    corpora. *)

val make : ?seed:int -> unit -> Random.State.t
(** A fresh state from [seed] (default {!default_seed}); equal seeds
    give equal streams. *)

val derive : Random.State.t -> Random.State.t
(** A child state drawn from the parent's stream — give each phase of a
    harness its own stream so adding draws to one phase does not
    perturb the others. *)
