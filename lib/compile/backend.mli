(** Wiring: compile contracts on demand, consult the persistent
    {!Store}, and install the compiled paths behind the two dispatching
    entry points of [Core]: [Product.survey] and
    [Validity.Abstract.step_states].

    [core] cannot depend on this library (it would be a cycle), so the
    hot entry points dispatch through backend records that executables
    install once at startup via {!install}. Every backend function
    returns an option: [None] means "fall back to the interpreted
    path" — the compiled engine can decline (open contracts, oversized
    pair spaces) but can never force a wrong verdict.

    Compiled tables are memoized per contract in a [Repr.Memo] named
    [compile.tables], so [Repr.Cache.clear_all] and per-contract
    [invalidate] behave exactly like every other derived-result
    cache. *)

val install : unit -> unit
(** Install the compiled backends into [Product] and
    [Validity.Abstract] and enable them. Idempotent; call once at
    executable startup, before any domains are spawned. *)

val set_enabled : bool -> unit
(** Flip the compiled paths at runtime ([--compiled=no], tests and
    benchmarks). Installation is sticky; only dispatch is gated. *)

val enabled : unit -> bool

val get : Core.Contract.t -> Table.t option
(** The lowered table of a closed contract, via memo, store and
    compiler in that order; [None] for open contracts. *)

val lower_count : unit -> int
(** Process-wide count of actual lowerings performed (store hits and
    memo hits don't count) — lets tests and benchmarks assert "warm
    restart recompiled nothing" without scraping metrics. *)
