(** Snapshots and deterministic crash recovery for the journaled
    broker.

    A snapshot is a checksummed text file recording the {e inputs} the
    broker's state is a function of — [upto] (journal entries covered),
    [seq], the admission policy, the repository and sessions (as
    [publish]/[open] script lines), and the served-client set — never
    the cached verdicts: {!recover} recomputes those unbudgeted via
    [Engine.restore], and the oracle-replay property makes the
    recomputation byte-identical to what was lost. The file ends with
    an [end CRC] marker (FNV-1a/32 over the body); a missing marker,
    missing final newline or checksum mismatch is rejected loudly —
    recovery never guesses at a damaged snapshot.

    [recover (snapshot, journal)] = restore the snapshot (or a fresh
    broker when there is none), then replay the journal suffix past
    [upto] through the ordinary event loop with the recorded sequence
    numbers. The result answers every [Serve] byte-identically to the
    uninterrupted broker and to a cold [Planner.analyze] run. *)

type snapshot = {
  upto : int;  (** journal entries this snapshot covers *)
  seq : int;  (** next response sequence number *)
  admission : Engine.admission;
  repo : (string * Core.Hexpr.t) list;
  sessions : (string * Core.Hexpr.t) list;
  served : (string * Core.Compliance.level) list;
      (** clients whose verdicts to rebuild, at the level each was
          settled at (rendered as [served NAME [LEVEL]] — the level
          token, like the policy line's [floor] token, is omitted when
          strict, so strict-floor snapshots stay byte-identical to
          pre-level files, and old files read back with strict
          defaults) *)
}

val snapshot_of : Engine.t -> upto:int -> snapshot
(** Capture the broker's current durable state; [upto] is how many
    journal entries it reflects. *)

val write : hexpr_to_string:(Core.Hexpr.t -> string) -> string -> snapshot -> unit
(** Render and atomically replace (write-to-temp + rename) the file;
    bumps [broker.journal.snapshots]. *)

val read :
  hexpr_of_string:(string -> Core.Hexpr.t) ->
  string ->
  (snapshot, Journal.error) result

(** {1 Recovery} *)

type report = {
  entries : int;  (** durable journal entries found (shed markers included) *)
  sheds : int;  (** of which shed markers *)
  replayed : int;  (** entries replayed past the snapshot *)
  rebuilt : int;  (** verdicts recomputed from the snapshot *)
  snapshot : bool;  (** a snapshot was used *)
  torn_dropped : bool;  (** the journal had a torn final line *)
  events : Journal.entry list;
      (** the durable entries themselves — what {!resume_script} skips
          the covered script submissions by *)
}

val pp_report : report Fmt.t

val recover :
  hexpr_of_string:(string -> Core.Hexpr.t) ->
  ?snapshot:string ->
  ?admission:Engine.admission ->
  journal:string ->
  Core.Network.repo ->
  (Engine.t * report, string) result
(** Rebuild a broker from [~journal] (and [?snapshot], used when the
    file exists — a missing snapshot just means a full replay).
    [?admission] is the {e initial} policy of the crashed run (its
    [--queue]/[--budget] flags); journaled [Set_policy] events replay
    on top, and a snapshot's recorded policy supersedes it. [repo] is
    the genesis repository the crashed broker was created with.

    Fails loudly — [Error] with a positioned diagnostic — on any
    corrupted input: bad header, mid-journal checksum failure,
    non-increasing sequence numbers, damaged or truncated snapshot, or
    a snapshot covering more events than the journal holds. A torn
    {e final} journal line is not corruption: it is dropped and
    reported in the {!report}, and the restored state is the
    consistent prefix. Every entry replays through {!Journal.replay},
    markers included, so the recovered broker resumes response
    numbering exactly where the crashed one stopped. After the replay
    the [broker.queue.depth] / [broker.admission.level] gauges are
    re-emitted from the restored state ([Engine.refresh_gauges]) —
    they must not carry the crashed process's last values. Runs under
    a [broker.recovery] span and bumps the [broker.recovery.*]
    counters. *)

val check_oracle : Engine.t -> string list
(** Hold each of the {!Engine.served_clients} against
    {!Engine.Oracle.serve} at the level its verdict was settled at, on
    the broker's repository, and return the clients whose cached
    verdict differs, in that order. A recovered broker returns none. *)

val resume_script :
  hexpr_to_string:(Core.Hexpr.t -> string) ->
  covered:Journal.entry list ->
  Script.item list ->
  ((int * Script.item) list, string) result
(** The script items a resumed serve loop still has to run, each paired
    with its absolute submission index (so re-journaled entries keep
    stable indices across repeated crash/recover cycles; [Tick]/[Drain]
    carry the index of the next submission). A submission whose index
    appears in [covered] — processed {e or} shed — is dropped, after
    checking it renders identically to the journaled request;
    submissions absent from [covered] (still queued at the crash, or
    never consumed) are kept. Fails with a diagnostic when the script
    does not match the journal: a covered submission that renders
    differently, a script with fewer submissions than the journal
    records, or a duplicated submission index. With [covered = []] it
    simply numbers a fresh script's submissions. *)
