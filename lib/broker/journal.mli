(** Write-ahead journal for the broker.

    A journal is a line-oriented file: a versioned header, then one
    entry per accepted event, flushed {e before} the event is applied
    to the engine (write-ahead). Each entry line is

    {v SEQ CRC SUBMIT PAYLOAD v}

    where [SEQ] is the response sequence number the event was (or will
    be) answered with, [CRC] is the FNV-1a/32 checksum (8 hex digits)
    of ["SEQ SUBMIT PAYLOAD"], [SUBMIT] is the index of the script
    submission that carried the request (what {!Recovery.resume_script}
    skips by), and [PAYLOAD] is the single-line script-syntax rendering
    of the request ({!Script.request_line}) — the journal reuses the
    script grammar, so it is human-readable. A payload prefixed with
    [shed ] is a {e shed marker}: the journaled {!feed} records a shed
    submission at submit time (it consumed a submission and a sequence
    number but was never applied), so recovery can skip it and restore
    the response numbering. A payload prefixed with [rescued ] is a
    {e rescue marker}: a full-queue [Serve] answered immediately at
    the floor level (also recorded at submit time); recovery re-runs
    it with {!Engine.replay_rescue}. After the marker, an optional
    [level L] token records the admission level the event was
    processed at — emitted {e only} when non-strict, so a strict-floor
    broker writes journals byte-identical to version-2 files from
    before compliance levels existed, and those old files decode with
    the obvious defaults (not shed, not rescued, strict).

    Torn-write semantics: every append writes one line, newline
    included, in a single flushed buffer. A final line {e missing its
    newline} is therefore a torn write (an append interrupted by a
    crash) — {!read} drops it and reports [torn = true]; the preceding
    entries are the durable prefix. Any other damage — a bad header, a
    checksum failure on a complete line, a non-increasing sequence
    number — is corruption and is rejected with a positioned
    diagnostic, never silently skipped. *)

type entry = {
  seq : int;  (** response sequence number *)
  submit : int;  (** index of the script submission that carried it *)
  shed : bool;  (** a shed marker — recorded, never applied *)
  rescued : bool;
      (** a rescue marker — a full-queue [Serve] answered at the floor
          level, uncached; replayed with {!Engine.replay_rescue} *)
  level : Core.Compliance.level;
      (** the admission level the event was processed at ([Strict] for
          shed markers and all pre-level journals) *)
  request : Engine.request;
}

type error = { path : string; line : int; msg : string }
(** [line] is 1-based ([0] when the file could not be read at all). *)

val pp_error : error Fmt.t

val checksum : string -> int
(** {!Repr.Fnv.hash32} — the entry and snapshot consistency check. *)

val encode : hexpr_to_string:(Core.Hexpr.t -> string) -> entry -> string
(** One journal line, without the trailing newline. *)

val decode :
  hexpr_of_string:(string -> Core.Hexpr.t) ->
  string ->
  (entry, string) result

(** {1 Reading} *)

type read = {
  entries : entry list;  (** the durable prefix, in file order *)
  torn : bool;  (** an unterminated final line was dropped *)
}

val read :
  hexpr_of_string:(string -> Core.Hexpr.t) ->
  string ->
  (read, error) result

(** {1 Writing} *)

type writer

val create :
  hexpr_to_string:(Core.Hexpr.t -> string) ->
  ?append:bool ->
  ?batch:int ->
  string ->
  writer
(** Open a journal for writing. [~append:false] (the default) truncates
    and writes a fresh header; [~append:true] continues an existing
    journal after its last line (a missing file still gets a fresh
    header). A torn tail must be handled by the caller before
    appending — recovery truncates by rewriting the durable prefix.

    {b Group commit.} [~batch] (default [1]) sets how many entries are
    buffered before a single write-and-flush pushes them to disk
    together. [batch = 1] preserves the historical flush-per-append
    behaviour. A larger batch trades a {e durability window} for
    throughput: entries sitting in the buffer are acknowledged to the
    engine (the write-ahead hook has returned) but are {e not} durable
    until the batch flushes — a crash in the window loses up to
    [batch - 1] buffered entries plus whatever part of the in-flight
    flush did not reach disk. What it can {e never} do is hole the
    file: the buffer only reaches the file through {!flush}, appends
    are strictly ordered, and a partially-written last batch is a torn
    tail ({!read} drops the unterminated final line, and every complete
    line before it is intact). Serving layers that acknowledge clients
    (the socket front end) must call {!flush} before answering, so a
    client-visible ack always implies a durable entry.
    Raises [Invalid_argument] when [batch < 1]. *)

val append : writer -> entry -> unit
(** Encode and buffer one entry, flushing when the batch fills
    ([broker.journal.appends] / [broker.journal.bytes] count entries,
    [broker.journal.group_commit.flushes] / [broker.journal.batch_size]
    count flushes and their sizes). *)

val flush : writer -> unit
(** Force the buffered batch (if any) to disk now — the group-commit
    barrier. A no-op on an empty buffer. *)

val appended : writer -> int
(** Entries appended through this writer (flushed or still buffered). *)

val tear : writer -> unit
(** Chaos helper: flush, then leave an unterminated garbage tail, as an
    interrupted flush would. *)

val crash : writer -> unit
(** Chaos helper: drop the un-flushed batch and abandon the file —
    a crash between batch fill and flush. The flushed prefix stays
    intact. *)

val close : writer -> unit
(** {!flush}, then close the file. *)

val drop_torn_tail : string -> unit
(** Physically truncate an unterminated final line (if any) so that a
    writer reopened with [~append:true] continues from the durable
    prefix instead of gluing onto torn garbage. Atomic (write-to-temp
    + rename), so a crash mid-truncation cannot damage the durable
    prefix. A no-op on clean, missing or empty files. *)

(** {1 The journaled feed}

    The one copy of the write-ahead contract: [susf serve --script],
    each {!Shard} cycle and the recovery tests all run it. The rule:
    every event that consumes a sequence number is journaled under the
    index of the submission that carried it.

    The feed installs and owns the engine's write-ahead hook
    ({!Engine.set_journal}), so {!Engine.step} on a fed engine journals
    each event it processes. A full-queue answer never reaches that
    hook, so {!submit} journals it as a shed or rescue marker; without
    the marker recovery would re-submit it. A rescue is marked at the
    engine's {e current} floor: a policy change can have moved it since
    startup. *)

type feed

val feed : ?writer:writer -> ?accept:(unit -> unit) -> Engine.t -> feed
(** Take over the engine's write-ahead hook. With [?writer], every
    event is appended to it, and each request waiting in the engine's
    queue is paired with its submission index until the hook pops it;
    without one nothing is journaled or kept. [?accept] runs before
    each processed event is journaled or applied; an exception it
    raises (an injected crash) propagates and the event is neither
    journaled nor applied. With neither the hook is removed. *)

val submit : feed -> submit:int -> Engine.request -> Engine.response option
(** {!Engine.submit} submission number [submit]; a full-queue answer is
    journaled as its marker before it is returned. *)

val process : feed -> submit:int -> Engine.request -> Engine.response
(** {!Engine.process} submission number [submit], bypassing admission
    (how a shard applies a broadcast). Call it with the engine's queue
    empty: the event is journaled as the next one processed. *)

val run :
  feed ->
  ?after:(unit -> unit) ->
  emit:(Engine.response -> unit) ->
  (int * Script.item) list ->
  unit
(** Feed script items, each paired with its submission index (as
    {!Recovery.resume_script} numbers them), then drain what is left
    queued. [emit] receives every response the moment it is produced —
    a [Drain] steps one request at a time — so an exception raised
    mid-run (from [accept] or [after]) leaves the caller holding
    exactly the responses produced before it. [after] runs once after
    each item. *)

val replay : Engine.t -> entry -> Engine.response
(** Replay one journal entry during recovery: a shed marker through
    {!Engine.replay_shed}, a rescue marker through
    {!Engine.replay_rescue}, any other entry through {!Engine.replay}
    at its journaled level. *)
