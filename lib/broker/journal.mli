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
    [shed ] is a {e shed marker}: the serve loop records a shed
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

val submit_answer :
  Engine.t -> submit:int -> Engine.request -> Engine.response -> entry
(** The marker for a submission the engine answered at once (queue
    full): a shed marker for a shed, otherwise a rescue marker at the
    engine's {e current} floor — a policy change can have moved it
    since startup. Journal it at submit time: the submission consumed a
    sequence number without reaching the write-ahead hook, and without
    the marker recovery would re-submit it. *)

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
