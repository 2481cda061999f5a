(* Write-ahead journal for the broker: one header line, then one
   checksummed line per accepted event, flushed before the event is
   applied. The payload is the script-syntax rendering of the request,
   so a journal is readable (and even hand-editable, at the price of
   recomputing the checksum) with the same grammar as [Broker.Script]. *)

let version = 2
let header_line = Printf.sprintf "susf-journal %d" version

(* FNV-1a/32 ([Repr.Fnv]): plenty to detect torn writes and bit rot —
   this is a consistency check, not a MAC. *)
let checksum = Repr.Fnv.hash32

(* An entry's checksum covers "SEQ SUBMIT PAYLOAD". The pieces are
   folded in turn, so that string is never built. *)
let entry_checksum ~seq ~submit payload =
  List.fold_left Repr.Fnv.fold Repr.Fnv.basis [ seq; " "; submit; " "; payload ]

(* [Printf.sprintf "%08x"] of a 32-bit checksum *)
let hex8 n =
  String.init 8 (fun i -> "0123456789abcdef".[(n lsr (28 - (4 * i))) land 0xf])

type entry = {
  seq : int;
  submit : int;
      (* index of the script submission that carried this request —
         what resume skipping is keyed on, stable across repeated
         crash/recover cycles *)
  shed : bool;
      (* a shed marker: the submission consumed a sequence number but
         was never applied (recorded at submit time, not write-ahead) *)
  rescued : bool;
      (* a rescue marker: a full-queue Serve answered immediately at
         the floor level (recorded at submit time, like shed) *)
  level : Core.Compliance.level;
      (* the admission level the event was processed at — replay must
         force it, since a recovering broker's queue is empty and the
         ladder cannot reproduce the original pressure *)
  request : Engine.request;
}

(* A full-queue answer consumed a submission and a sequence number
   without reaching the write-ahead hook. A rescue is marked with the
   floor live on the engine when it answered: a policy change can have
   moved it since startup. *)
let submit_answer engine ~submit request (resp : Engine.response) =
  let shed =
    match resp.Engine.outcome with
    | Engine.Rejected Engine.Shed -> true
    | _ -> false
  in
  {
    seq = resp.Engine.seq;
    submit;
    shed;
    rescued = not shed;
    level =
      (if shed then Core.Compliance.Strict
       else (Engine.admission engine).Engine.floor);
    request;
  }

type error = { path : string; line : int; msg : string }

let pp_error ppf e =
  if e.line = 0 then Fmt.pf ppf "%s: %s" e.path e.msg
  else Fmt.pf ppf "%s:%d: %s" e.path e.line e.msg

let encode ~hexpr_to_string { seq; submit; shed; rescued; level; request } =
  let payload = Script.request_line ~hexpr_to_string request in
  (* the level token is emitted only when non-strict, so strict-floor
     runs produce journals byte-identical to version-2 files written
     before levels existed *)
  let payload =
    match level with
    | Core.Compliance.Strict -> payload
    | l -> "level " ^ Core.Compliance.level_to_string l ^ " " ^ payload
  in
  let payload =
    if shed then "shed " ^ payload
    else if rescued then "rescued " ^ payload
    else payload
  in
  let seq = string_of_int seq and submit = string_of_int submit in
  String.concat " "
    [ seq; hex8 (entry_checksum ~seq ~submit payload); submit; payload ]

let decode ~hexpr_of_string line =
  match String.split_on_char ' ' line with
  | seq :: crc :: submit :: rest when rest <> [] -> (
      let payload = String.concat " " rest in
      match
        ( int_of_string_opt seq,
          int_of_string_opt ("0x" ^ crc),
          int_of_string_opt submit )
      with
      | None, _, _ -> Error (Fmt.str "bad sequence number %S" seq)
      | _, None, _ -> Error (Fmt.str "bad checksum field %S" crc)
      | _, _, None -> Error (Fmt.str "bad submission index %S" submit)
      | _, _, Some submit when submit < 0 ->
          Error (Fmt.str "negative submission index %d" submit)
      | Some seq, Some crc, Some submit ->
          let want =
            entry_checksum ~seq:(string_of_int seq)
              ~submit:(string_of_int submit) payload
          in
          if crc <> want then
            Error
              (Fmt.str "checksum mismatch (recorded %08x, computed %08x)" crc
                 want)
          else
            (* optional markers, in emission order: [shed]/[rescued],
               then [level L]. Absent tokens decode to the version-2
               defaults (not shed, not rescued, strict). *)
            let shed, rescued, rest =
              match rest with
              | "shed" :: tail when tail <> [] -> (true, false, tail)
              | "rescued" :: tail when tail <> [] -> (false, true, tail)
              | _ -> (false, false, rest)
            in
            let level_r, rest =
              match rest with
              | "level" :: l :: tail when tail <> [] ->
                  (Core.Compliance.level_of_string l, tail)
              | _ -> (Ok Core.Compliance.Strict, rest)
            in
            Result.bind level_r (fun level ->
                Result.map
                  (fun request -> { seq; submit; shed; rescued; level; request })
                  (Script.request_of_line ~hexpr_of_string
                     (String.concat " " rest))))
  | _ -> Error "malformed journal line (want 'SEQ CRC SUBMIT PAYLOAD')"

(* ---- reading ---------------------------------------------------------- *)

type read = { entries : entry list; torn : bool }

let read ~hexpr_of_string path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error { path; line = 0; msg }
  | "" -> Error { path; line = 0; msg = "empty journal (missing header)" }
  | text ->
      let complete = text.[String.length text - 1] = '\n' in
      let lines =
        match List.rev (String.split_on_char '\n' text) with
        | "" :: rev when complete -> List.rev rev
        | rev -> List.rev rev
      in
      let err line msg = Error { path; line; msg } in
      let rec go acc prev_seq lineno = function
        | [] -> Ok { entries = List.rev acc; torn = false }
        | [ _torn_tail ] when not complete ->
            (* An unterminated final line is a torn write — an [append]
               interrupted mid-flush (each line is written newline
               included in one buffer, so a partial write never carries
               the newline). Drop it: the prefix is the durable state.
               A *complete* line that fails its checksum is corruption,
               handled below, and rejected loudly instead. *)
            Ok { entries = List.rev acc; torn = true }
        | line :: rest -> (
            match decode ~hexpr_of_string line with
            | Error msg -> err lineno msg
            | Ok e ->
                if e.seq <= prev_seq then
                  err lineno
                    (Fmt.str "sequence number %d not increasing (previous %d)"
                       e.seq prev_seq)
                else go (e :: acc) e.seq (lineno + 1) rest)
      in
      (match lines with
      | [] -> err 1 "empty journal (missing header)"
      | h :: entries ->
          if h <> header_line then
            err 1
              (Fmt.str "unsupported journal header %S (want %S)" h header_line)
          else if entries = [] && not complete then
            err 1 "torn journal header"
          else go [] (-1) 2 entries)

(* ---- writing ---------------------------------------------------------- *)

type writer = {
  oc : out_channel;
  hexpr_to_string : Core.Hexpr.t -> string;
  batch : int;
  buf : Buffer.t;
      (* encoded-but-unflushed entries (group commit); never reaches
         [oc] except through [flush], so a crash loses whole trailing
         entries, at most [batch - 1] of them plus the one being
         flushed — never a mid-file hole *)
  mutable buffered : int;
  mutable appended : int;
}

let create ~hexpr_to_string ?(append = false) ?(batch = 1) path =
  if batch < 1 then invalid_arg "Journal.create: batch must be >= 1";
  let continue = append && Sys.file_exists path in
  let oc =
    if continue then
      open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path
    else open_out path
  in
  if not continue then (
    output_string oc (header_line ^ "\n");
    flush oc);
  { oc; hexpr_to_string; batch; buf = Buffer.create 512; buffered = 0; appended = 0 }

let flush w =
  if w.buffered > 0 then begin
    Buffer.output_buffer w.oc w.buf;
    Stdlib.flush w.oc;
    Obs.Metrics.incr "broker.journal.group_commit.flushes";
    Obs.Metrics.observe "broker.journal.batch_size" w.buffered;
    Buffer.clear w.buf;
    w.buffered <- 0
  end

let append w e =
  let line = encode ~hexpr_to_string:w.hexpr_to_string e in
  Buffer.add_string w.buf line;
  Buffer.add_char w.buf '\n';
  w.buffered <- w.buffered + 1;
  w.appended <- w.appended + 1;
  Obs.Metrics.incr "broker.journal.appends";
  Obs.Metrics.add "broker.journal.bytes" (String.length line + 1);
  if w.buffered >= w.batch then flush w

let appended w = w.appended

(* Chaos helper: simulate a torn write by leaving an unterminated
   garbage prefix at the tail, exactly what an interrupted [flush]
   can leave behind. *)
let tear w =
  flush w;
  output_string w.oc "999 dead";
  Stdlib.flush w.oc

(* Chaos helper: drop the un-flushed batch and abandon the file, as a
   crash between batch fill and flush would. *)
let crash w =
  Buffer.clear w.buf;
  w.buffered <- 0;
  close_out w.oc

let close w =
  flush w;
  close_out w.oc

(* Truncate an unterminated final line so appends can resume after a
   torn write (see [read]: torn == missing trailing newline). *)
let drop_torn_tail path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> ()
  | "" -> ()
  | text when text.[String.length text - 1] = '\n' -> ()
  | text ->
      let keep =
        match String.rindex_opt text '\n' with
        | Some i -> String.sub text 0 (i + 1)
        | None -> ""
      in
      (* write-to-temp + rename, as [Recovery.write] does: an in-place
         truncate-and-rewrite interrupted by a second crash would
         destroy the durable prefix this function exists to preserve *)
      let tmp = path ^ ".tmp" in
      Out_channel.with_open_bin tmp (fun oc ->
          Out_channel.output_string oc keep);
      Sys.rename tmp path

(* ---- the journaled feed ----------------------------------------------- *)

(* The write-ahead contract, written once: every event that consumes a
   sequence number is journaled under the index of the submission that
   carried it. Processed events reach the journal through the engine's
   hook, which pops the index their request was queued under; a
   full-queue answer never reaches the hook, so it is journaled here,
   at submit time. *)
type feed = {
  engine : Engine.t;
  writer : writer option;
  pending : int Queue.t;
      (* submission indices of the requests in the engine's FIFO, front
         first — kept only with a writer, whose hook pops them *)
}

let feed ?writer ?accept engine =
  let pending = Queue.create () in
  let hook ~seq ~level request =
    (match accept with Some accept -> accept () | None -> ());
    match writer with
    | Some w ->
        append w
          { seq; submit = Queue.pop pending; shed = false; rescued = false;
            level; request }
    | None -> ()
  in
  Engine.set_journal engine
    (if Option.is_none writer && Option.is_none accept then None
     else Some hook);
  { engine; writer; pending }

let submit f ~submit request =
  match Engine.submit f.engine request with
  | None ->
      if Option.is_some f.writer then Queue.add submit f.pending;
      None
  | Some resp as answer ->
      Option.iter
        (fun w -> append w (submit_answer f.engine ~submit request resp))
        f.writer;
      answer

let process f ~submit request =
  if Option.is_some f.writer then Queue.add submit f.pending;
  Engine.process f.engine request

let run f ?(after = ignore) ~emit items =
  (* one response per step, emitted as it is produced: a crash inside a
     drain must not lose the responses that drain already produced *)
  let rec drain () =
    match Engine.step f.engine with
    | None -> ()
    | Some r ->
        emit r;
        drain ()
  in
  List.iter
    (fun (index, item) ->
      (match item with
      | Script.Submit r -> Option.iter emit (submit f ~submit:index r)
      | Script.Tick -> Option.iter emit (Engine.step f.engine)
      | Script.Drain -> drain ());
      after ())
    items;
  drain ()

let replay engine e =
  if e.shed then Engine.replay_shed engine ~seq:e.seq e.request
  else if e.rescued then
    Engine.replay_rescue engine ~seq:e.seq ~level:e.level e.request
  else Engine.replay engine ~seq:e.seq ~level:e.level e.request
