(** The sharded broker: [N] {!Engine}s, each served by one OCaml 5
    worker domain, with requests routed by {!Engine.target} — session
    requests to [Engine.route ~shards client], repository mutations and
    policy changes broadcast to every shard. Each shard replicates the
    repository (hash-consing makes replicas share structure) and owns
    the verdict-index partition of the clients that route to it, so a
    shard {e is} an unsharded broker over its slice of the session
    space: submission-order determinism, the per-level oracle-replay
    property and byte-identical journal recovery all hold per shard.

    {b Group commit.} A cycle moves every waiting submission into its
    engine's admission queue (queue pressure, shedding and the
    degradation ladder behave exactly as in the unsharded loop), steps
    the engine dry, flushes the shard's journal {e once}, and only then
    invokes response callbacks — an acknowledged response always
    implies a durable journal entry, and a crash loses at most the
    un-acked tail of one batch, never a mid-file hole.

    {b Threading.} [submit] may be called from any thread or domain.
    A cycle runs on the shard's worker domain, except that
    [submit ~inline:true] runs it on the calling thread when the target
    shard is idle and its queue empty. Either way one cycle at a time
    owns a shard's engine (its [busy] flag, not a particular domain,
    confers ownership), and no lock is held across a cycle. Callbacks
    run on whichever thread ran the cycle and must not block;
    submitting from inside a callback is allowed (the shard is busy, so
    it only enqueues).

    Instruments: [broker.shard.count], [broker.shard.submitted],
    [broker.shard.processed], [broker.shard.broadcast],
    [broker.shard.inline], [broker.shard.queue.depth]. *)

type t

type callback = shard:int -> Engine.response -> unit

val create :
  ?admission:Engine.admission ->
  ?journal:(int -> Journal.writer) ->
  shards:int ->
  Core.Network.repo ->
  t
(** A pool of [shards] fresh engines over (replicas of) this
    repository, workers spawned. With [?journal], shard [i] runs its
    engine through the journaled {!Journal.feed} on [journal i] — shed
    and rescue markers included, as the script serve loop does.
    Raises [Invalid_argument] when [shards < 1]. *)

val of_engines : ?journal:(int -> Journal.writer) -> Engine.t array -> t
(** A pool over pre-built engines — how recovery hands per-shard
    recovered brokers back to the serving layer. *)

val shards : t -> int

val engine : t -> int -> Engine.t
(** Shard [i]'s engine. Only safe to inspect while the pool is
    quiescent ({!drain}ed with no concurrent submitters, or
    {!stop}ped) — a running cycle owns it otherwise. *)

val seqs : t -> int array
(** Per-shard next sequence numbers (same quiescence caveat). *)

val submit : ?inline:bool -> t -> ?callback:callback -> Engine.request -> unit
(** Route and enqueue. Session requests go to their client's shard;
    broadcasts enqueue on every shard and fire [callback] once, from
    shard 0, whose copy is handed over after every other shard's.

    With [~inline:true] (default [false]) the target shard — shard 0
    for a broadcast — runs the job's cycle on the calling thread if it
    is idle with an empty queue, so [callback] has fired when [submit]
    returns and no worker wakes up ([broker.shard.inline] counts these
    cycles); a busy shard queues the job as usual. The cycle is the
    worker's own (journal flush before callback included), so replies,
    journals and per-shard order are the same either way.

    Broadcasts bypass admission control: the bounded queue
    sheds {e load}, and replication is not load — a shard that dropped
    a mutation under pressure would silently fork its repository
    replica. A shard draining its queue before applying a broadcast
    keeps FIFO order intact, so a session request submitted after a
    mutation observes it on every shard. Never blocks, bar an inline
    cycle. Raises [Invalid_argument] after {!stop}, and re-raises a
    failed cycle's exception if its shard died. *)

val drain : t -> unit
(** Block until every shard's job queue is empty and no cycle runs on it.
    A quiescence barrier only when no other thread is submitting
    (callbacks that re-submit count as submitters). Re-raises worker
    failures. *)

val stop : t -> unit
(** Stop accepting work, let each worker drain what is already queued,
    flush + close the journals, and join the worker domains. Re-raises
    worker failures. *)
