(* Snapshots + deterministic recovery for the journaled broker.

   A snapshot records the *inputs* the broker's state is a function of
   — repository, sessions, admission policy, which clients hold a live
   verdict — not the verdicts themselves: recovery recomputes those
   (unbudgeted, [Engine.restore]), and the oracle-replay property
   guarantees the recomputation is byte-identical to what was lost.
   Recovery then replays the journal suffix past the snapshot through
   the ordinary event loop, so a recovered broker *is* the
   uninterrupted broker as far as any client can observe. *)

type snapshot = {
  upto : int;
  seq : int;
  admission : Engine.admission;
  repo : (string * Core.Hexpr.t) list;
  sessions : (string * Core.Hexpr.t) list;
  served : (string * Core.Compliance.level) list;
}

let header_line = "susf-snapshot 1"

let snapshot_of broker ~upto =
  {
    upto;
    seq = Engine.seq broker;
    admission = Engine.admission broker;
    repo = Engine.repo broker;
    sessions = Engine.clients broker;
    served = Engine.served_clients broker;
  }

(* ---- rendering -------------------------------------------------------- *)

let render ~hexpr_to_string s =
  let b = Buffer.create 512 in
  let line fmt = Fmt.kstr (fun l -> Buffer.add_string b (l ^ "\n")) fmt in
  line "%s" header_line;
  line "upto %d" s.upto;
  line "seq %d" s.seq;
  (* the floor and per-entry level tokens are emitted only when
     non-strict, so a strict-floor broker writes snapshots
     byte-identical to version-1 files from before compliance levels *)
  line "policy queue %d budget %d%s" s.admission.Engine.queue_capacity
    s.admission.Engine.plan_budget
    (match s.admission.Engine.floor with
    | Core.Compliance.Strict -> ""
    | f -> " floor " ^ Core.Compliance.level_to_string f);
  List.iter
    (fun (loc, service) ->
      line "%s"
        (Script.request_line ~hexpr_to_string (Engine.Publish { loc; service })))
    s.repo;
  List.iter
    (fun (client, body) ->
      line "%s"
        (Script.request_line ~hexpr_to_string (Engine.Open { client; body })))
    s.sessions;
  List.iter
    (fun (c, l) ->
      match l with
      | Core.Compliance.Strict -> line "served %s" c
      | l -> line "served %s %s" c (Core.Compliance.level_to_string l))
    s.served;
  let body = Buffer.contents b in
  body ^ Printf.sprintf "end %08x\n" (Journal.checksum body)

let write ~hexpr_to_string path s =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      Out_channel.output_string oc (render ~hexpr_to_string s));
  Sys.rename tmp path;
  Obs.Metrics.incr "broker.journal.snapshots"

(* ---- parsing ---------------------------------------------------------- *)

let read ~hexpr_of_string path =
  let err line msg = Error { Journal.path; line; msg } in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> err 0 msg
  | "" -> err 0 "empty snapshot"
  | text when text.[String.length text - 1] <> '\n' ->
      err 0 "truncated snapshot (missing final newline)"
  | text -> (
      let lines =
        match List.rev (String.split_on_char '\n' text) with
        | "" :: rev -> List.rev rev
        | rev -> List.rev rev
      in
      let has_prefix p s =
        String.length s >= String.length p
        && String.sub s 0 (String.length p) = p
      in
      match List.rev lines with
      | last :: _ when not (has_prefix "end " last) ->
          err (List.length lines) "truncated snapshot (no end marker)"
      | [] | [ _ ] -> err 1 "truncated snapshot (no body)"
      | last :: rev_body -> (
          let crc =
            int_of_string_opt
              ("0x" ^ String.trim (String.sub last 4 (String.length last - 4)))
          in
          let body_text =
            (* everything up to the end marker, trailing newline included *)
            String.sub text 0 (String.length text - String.length last - 1)
          in
          match crc with
          | None -> err (List.length lines) "bad end-marker checksum field"
          | Some crc when crc <> Journal.checksum body_text ->
              err (List.length lines)
                (Fmt.str "snapshot checksum mismatch (recorded %08x, computed %08x)"
                   crc (Journal.checksum body_text))
          | Some _ ->
              let body = List.rev rev_body in
              let upto = ref None
              and seq = ref None
              and adm = ref None
              and repo = ref []
              and sessions = ref []
              and served = ref [] in
              let parse_line lineno line =
                let words =
                  String.split_on_char ' ' line
                  |> List.filter (fun w -> w <> "")
                in
                match words with
                | _ when lineno = 1 ->
                    if line = header_line then Ok ()
                    else
                      Error
                        (Fmt.str "unsupported snapshot header %S (want %S)" line
                           header_line)
                | [ "upto"; n ] -> (
                    match int_of_string_opt n with
                    | Some n -> Ok (upto := Some n)
                    | None -> Error (Fmt.str "bad upto %S" n))
                | [ "seq"; n ] -> (
                    match int_of_string_opt n with
                    | Some n -> Ok (seq := Some n)
                    | None -> Error (Fmt.str "bad seq %S" n))
                | "policy" :: "queue" :: q :: "budget" :: b :: floor_words -> (
                    let floor =
                      match floor_words with
                      | [] -> Ok Core.Compliance.Strict
                      | [ "floor"; f ] -> Core.Compliance.level_of_string f
                      | _ -> Error "bad admission policy line"
                    in
                    match (int_of_string_opt q, int_of_string_opt b, floor) with
                    | Some queue_capacity, Some plan_budget, Ok floor ->
                        Ok
                          (adm :=
                             Some { Engine.queue_capacity; plan_budget; floor })
                    | _ -> Error "bad admission policy line")
                | [ "served"; c ] ->
                    Ok (served := (c, Core.Compliance.Strict) :: !served)
                | [ "served"; c; l ] -> (
                    match Core.Compliance.level_of_string l with
                    | Ok level -> Ok (served := (c, level) :: !served)
                    | Error msg -> Error (Fmt.str "bad served level %S: %s" l msg))
                | ("publish" | "open") :: _ -> (
                    match Script.request_of_line ~hexpr_of_string line with
                    | Ok (Engine.Publish { loc; service }) ->
                        Ok (repo := (loc, service) :: !repo)
                    | Ok (Engine.Open { client; body }) ->
                        Ok (sessions := (client, body) :: !sessions)
                    | Ok _ -> Error "unexpected request kind in snapshot"
                    | Error msg -> Error msg)
                | _ -> Error (Fmt.str "unrecognized snapshot line %S" line)
              in
              let rec go lineno = function
                | [] -> Ok ()
                | l :: rest -> (
                    match parse_line lineno l with
                    | Ok () -> go (lineno + 1) rest
                    | Error msg -> err lineno msg)
              in
              (match go 1 body with
              | Error _ as e -> e
              | Ok () -> (
                  match (!upto, !seq, !adm) with
                  | Some upto, Some seq, Some admission ->
                      Ok
                        {
                          upto;
                          seq;
                          admission;
                          repo = List.rev !repo;
                          sessions = List.rev !sessions;
                          served = List.rev !served;
                        }
                  | None, _, _ -> err 0 "snapshot is missing its upto line"
                  | _, None, _ -> err 0 "snapshot is missing its seq line"
                  | _, _, None -> err 0 "snapshot is missing its policy line"))))

(* ---- recovery --------------------------------------------------------- *)

type report = {
  entries : int;
  sheds : int;
  replayed : int;
  rebuilt : int;
  snapshot : bool;
  torn_dropped : bool;
  events : Journal.entry list;
}

let pp_report ppf r =
  Fmt.pf ppf "recovered %d events (%d replayed, %d verdicts rebuilt%s%s%s)"
    r.entries r.replayed r.rebuilt
    (if r.sheds > 0 then Fmt.str ", %d shed" r.sheds else "")
    (if r.snapshot then ", from snapshot" else "")
    (if r.torn_dropped then ", torn tail dropped" else "")

let recover ~hexpr_of_string ?snapshot ?admission ~journal repo =
  Obs.Trace.with_span "broker.recovery" @@ fun () ->
  Obs.Metrics.incr "broker.recovery.runs";
  let jerr e = Error (Fmt.str "%a" Journal.pp_error e) in
  match Journal.read ~hexpr_of_string journal with
  | Error e -> jerr e
  | Ok { Journal.entries; torn } -> (
      let snap =
        match snapshot with
        | Some p when Sys.file_exists p ->
            Result.map Option.some (read ~hexpr_of_string p)
        | _ -> Ok None
      in
      match snap with
      | Error e -> jerr e
      | Ok snap -> (
          let total = List.length entries in
          match snap with
          | Some s when s.upto > total ->
              Error
                (Fmt.str
                   "snapshot covers %d events but the journal holds only %d — \
                    mismatched snapshot/journal pair?"
                   s.upto total)
          | _ -> (
              let base =
                match snap with
                | None -> Ok (Engine.create ?admission repo, 0, 0)
                | Some s -> (
                    try
                      Ok
                        ( Engine.restore ~admission:s.admission
                            ~sessions:s.sessions ~served:s.served ~seq:s.seq
                            s.repo,
                          s.upto,
                          List.length s.served )
                    with Invalid_argument msg -> Error msg)
              in
              match base with
              | Error msg -> Error msg
              | Ok (t, skip, rebuilt) ->
                  let suffix = List.filteri (fun i _ -> i >= skip) entries in
                  List.iter (fun e -> ignore (Journal.replay t e)) suffix;
                  (* the gauges carry the crashed process's last values
                     (or nothing) — re-emit them from restored state *)
                  Engine.refresh_gauges t;
                  let replayed = List.length suffix in
                  let sheds =
                    List.fold_left
                      (fun n (e : Journal.entry) ->
                        if e.Journal.shed then n + 1 else n)
                      0 entries
                  in
                  Obs.Metrics.add "broker.recovery.replayed" replayed;
                  Obs.Metrics.add "broker.recovery.rebuilt" rebuilt;
                  if torn then Obs.Metrics.incr "broker.recovery.torn_dropped";
                  if Obs.Trace.active () then begin
                    Obs.Trace.add_attr "entries" (Obs.Trace.Int total);
                    Obs.Trace.add_attr "replayed" (Obs.Trace.Int replayed);
                    Obs.Trace.add_attr "rebuilt" (Obs.Trace.Int rebuilt);
                    Obs.Trace.add_attr "torn" (Obs.Trace.Bool torn)
                  end;
                  Ok
                    ( t,
                      {
                        entries = total;
                        sheds;
                        replayed;
                        rebuilt;
                        snapshot = Option.is_some snap;
                        torn_dropped = torn;
                        events = entries;
                      } ))))

(* The sharded recovery contract: every verdict a recovered broker
   serves from its index equals a cold planner run at the level it was
   settled at, on the recovered repository. *)
let check_oracle t =
  let repo = Engine.repo t and sessions = Engine.clients t in
  List.filter_map
    (fun (client, level) ->
      let body = List.assoc client sessions in
      let oracle = Engine.Oracle.serve ~level repo ~client:(client, body) in
      match Engine.cached_verdict t client with
      | Some (v, _) when Engine.verdict_equal v oracle -> None
      | _ -> Some client)
    (Engine.served_clients t)

(* ---- resuming a script past a recovered prefix ------------------------ *)

(* Every journal entry records the index of the script submission it
   consumed — processed events and shed markers alike — so the covered
   submissions are exactly the journal's [submit] set. Skipping by
   {e index} (rather than by count) is what makes resume correct in the
   presence of shedding: a shed marker can be journaled after a
   submission that was still sitting in the queue at the crash, so the
   covered set has holes, and the holes (plus the unconsumed tail) are
   what must be re-submitted. Each dropped submission is checked
   against the journaled request, so resuming with the wrong script
   fails loudly instead of replaying garbage. Tick/Drain items are
   dropped while covered submissions remain ahead: their processing
   work was already replayed from the journal. *)
let resume_script ~hexpr_to_string ~covered items =
  let line = Script.request_line ~hexpr_to_string in
  let tbl = Hashtbl.create 64 in
  let max_covered = ref (-1) in
  let rec index = function
    | [] -> Ok ()
    | (e : Journal.entry) :: rest ->
        if Hashtbl.mem tbl e.Journal.submit then
          Error
            (Fmt.str "journal records submission #%d twice" e.Journal.submit)
        else begin
          Hashtbl.replace tbl e.Journal.submit e;
          max_covered := max !max_covered e.Journal.submit;
          index rest
        end
  in
  match index covered with
  | Error _ as e -> e
  | Ok () ->
      let rec go i acc = function
        | [] ->
            if i <= !max_covered then
              Error
                (Fmt.str
                   "journal records submission #%d but the script only has %d \
                    submissions — is this the script the journal was recorded \
                    against?"
                   !max_covered i)
            else Ok (List.rev acc)
        | Script.Submit r :: rest -> (
            match Hashtbl.find_opt tbl i with
            | Some (e : Journal.entry) ->
                let got = line r and want = line e.Journal.request in
                if String.equal got want then go (i + 1) acc rest
                else
                  Error
                    (Fmt.str
                       "script submission #%d (%s) does not match its journal \
                        entry (%s) — is this the script the journal was \
                        recorded against?"
                       i got want)
            | None -> go (i + 1) ((i, Script.Submit r) :: acc) rest)
        | ((Script.Tick | Script.Drain) as item) :: rest ->
            if i <= !max_covered then go i acc rest
            else go i ((i, item) :: acc) rest
      in
      go 0 [] items
