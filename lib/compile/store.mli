(** The persistent automaton cache: a versioned, checksummed,
    line-oriented file of compiled tables, keyed by the stable
    structural key of the contract ([Table.contract_key]) so entries
    are valid across processes and restarts — hash-cons ids are not.

    Format (text, one record per line):

    {v
    susf-tables <format-version> <compiler-version>
    <crc> <key> <lowered-table>
    v}

    where [<crc>] is the FNV-1a/32 checksum of the rest of the line —
    the same per-line integrity discipline as the broker journal. The
    file is rewritten atomically ([.tmp] + rename), a torn final line
    (crash mid-append) is silently dropped, and any other damage — bad
    header, stale version, checksum or decode failure — is refused
    with a [FILE:LINE:] diagnostic and the store starts empty: the
    fallback is always recompilation, never a wrong table.

    The store is process-global and mutexed, mirroring
    [Repr.Hashcons]. It registers in [Repr.Cache] as [compile.store]
    for stats only: entries are structurally keyed and immutable, so
    neither [clear_all] nor [invalidate] concerns them. *)

val attach : string -> (int, string) result
(** [attach file] makes [file] the active cache and loads it. [Ok n]
    is the number of entries loaded ([0] for a missing file — a fresh
    cache). [Error diag] ([FILE:LINE: reason]) means the file was
    refused; the store remains attached but empty, so a later
    {!save} replaces the damaged file with a good one. *)

val detach : unit -> unit
(** Forget the file and all loaded entries. Hit/miss counters are kept
    (reset via [Repr.Cache]). *)

val attached : unit -> string option

val save : unit -> (int, string) result
(** Atomically rewrite the attached file with the current entries
    (sorted by key, so equal stores are byte-identical files). [Ok n]
    is the entry count; no-ops when detached or unchanged. *)

val find : string -> Table.t option
(** [find key] is the lowered table for a contract key.
    Counts [compile.cache.hits]/[compile.cache.misses] — only while
    attached; a detached store is silent and always misses. *)

val add : string -> Table.t -> unit
(** Record a freshly lowered table. Ignored while detached. *)

val entries : unit -> int
