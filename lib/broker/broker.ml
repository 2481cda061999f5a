(** The incremental orchestration broker (see {!Engine} for the event
    loop and invalidation contract, {!Index} for the verdict cache,
    {!Script} for the deterministic workload format, {!Journal} for the
    write-ahead event log and the one journaled feed every serving loop
    runs, {!Recovery} for snapshots + deterministic crash recovery,
    {!Shard} for the multi-domain sharded pool and {!Net} for its
    socket front end).

    The engine is included here, so [Broker.create] / [Broker.submit] /
    [Broker.drain] is the whole serving API; [Broker.Journal.run]
    feeds a parsed script through it, journaled or not. *)

module Index = Index
module Script = Script
module Journal = Journal
module Recovery = Recovery
module Shard = Shard
module Net = Net
include Engine
