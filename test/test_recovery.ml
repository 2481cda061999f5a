(* The crash-durable broker: journal codec round trips, snapshot round
   trips, loud rejection of corrupted inputs, and the recovery oracle
   property — crashing after *every* prefix of a run, recovering, and
   replaying the rest must be byte-identical to the uninterrupted
   broker. *)

open Core

(* The real surface-syntax codec: the journal payloads are script
   lines, and the policy references ([phi({s1},45,100)]) in the hotel
   bodies resolve against the same automata context the CLI builds from
   a specification's policy declarations. *)
let automata = [ ("phi", Usage.Policy_lib.hotel) ]
let hexpr_of_string = Syntax.Parser.hexpr_of_string ~automata
let hexpr_to_string = Hexpr.to_string
let tmpfile () = Filename.temp_file "susf-recovery" ".tmp"

let req_equal a b =
  match (a, b) with
  | Broker.Open { client = c1; body = b1 }, Broker.Open { client = c2; body = b2 }
    ->
      c1 = c2 && Hexpr.equal b1 b2
  | Broker.Publish { loc = l1; service = s1 }, Broker.Publish { loc = l2; service = s2 }
  | Broker.Update { loc = l1; service = s1 }, Broker.Update { loc = l2; service = s2 }
    ->
      l1 = l2 && Hexpr.equal s1 s2
  | Broker.Close { client = a }, Broker.Close { client = b }
  | Broker.Serve { client = a }, Broker.Serve { client = b } ->
      a = b
  | Broker.Retract { loc = a }, Broker.Retract { loc = b }
  | Broker.Orchestrate { client = a }, Broker.Orchestrate { client = b }
  | Broker.Mediate { client = a }, Broker.Mediate { client = b } ->
      a = b
  | Broker.Run { client = a; seed = sa }, Broker.Run { client = b; seed = sb }
    ->
      a = b && sa = sb
  | Broker.Set_policy { queue = qa; budget = ba; floor = fa },
    Broker.Set_policy { queue = qb; budget = bb; floor = fb } ->
      qa = qb && ba = bb && fa = fb
  | _ -> false

let sample_requests () =
  let client n = List.assoc n Scenarios.Churn.clients in
  [
    Broker.Open { client = "c1"; body = client "c1" };
    Broker.Open { client = "c2"; body = client "c2" };
    Broker.Serve { client = "c1" };
    Broker.Run { client = "c2"; seed = 42 };
    Broker.Publish
      { loc = "s3b"; service = List.assoc "s3b" Scenarios.Churn.spares };
    Broker.Publish
      { loc = "audit1"; service = List.assoc "audit1" Scenarios.Churn.noise };
    Broker.Update
      { loc = "s1"; service = List.assoc "s1" Scenarios.Churn.repo };
    Broker.Retract { loc = "s4" };
    Broker.Orchestrate { client = "c2" };
    Broker.Mediate { client = "c2" };
    Broker.Close { client = "c1" };
    Broker.Set_policy { queue = Some 8; budget = Some 3; floor = None };
    Broker.Set_policy
      { queue = None; budget = Some 2; floor = Some (Compliance.Skip_k 2) };
    Broker.Set_policy
      { queue = None; budget = None; floor = Some Compliance.Affectible };
  ]

(* ------------------------------------------------------------------ *)
(* Codec and journal round trips *)

let test_codec_roundtrip () =
  List.iter
    (fun r ->
      let line = Broker.Script.request_line ~hexpr_to_string r in
      Alcotest.(check bool)
        (Fmt.str "single line: %s" line)
        false
        (String.contains line '\n');
      match Broker.Script.request_of_line ~hexpr_of_string line with
      | Error e -> Alcotest.failf "decode %S failed: %s" line e
      | Ok r' ->
          Alcotest.(check bool) (Fmt.str "round trip: %s" line) true
            (req_equal r r'))
    (sample_requests ())

let write_entries path entries =
  let w = Broker.Journal.create ~hexpr_to_string path in
  List.iter (Broker.Journal.append w) entries;
  Broker.Journal.close w

let read_ok path =
  match Broker.Journal.read ~hexpr_of_string path with
  | Error e -> Alcotest.failf "journal read: %a" Broker.Journal.pp_error e
  | Ok r -> r

let test_journal_roundtrip () =
  let path = tmpfile () in
  let entries =
    (* non-contiguous seqs (a library user may journal only processed
       events, so gaps are legal — only monotonicity is checked), a
       sprinkling of shed and rescue markers, and non-strict levels —
       all of which must round trip too *)
    List.mapi
      (fun i r ->
        {
          Broker.Journal.seq = (i * 2) + 1;
          submit = i;
          shed = i mod 3 = 2;
          rescued = i mod 3 = 1;
          level =
            (match i mod 4 with
            | 1 -> Compliance.Skip_k 1
            | 2 -> Compliance.Affectible
            | _ -> Compliance.Strict);
          request = r;
        })
      (sample_requests ())
  in
  write_entries path entries;
  let { Broker.Journal.entries = got; torn } = read_ok path in
  Alcotest.(check bool) "not torn" false torn;
  Alcotest.(check int) "all entries back" (List.length entries)
    (List.length got);
  List.iter2
    (fun (a : Broker.Journal.entry) (b : Broker.Journal.entry) ->
      Alcotest.(check int) "seq" a.Broker.Journal.seq b.Broker.Journal.seq;
      Alcotest.(check int) "submit" a.Broker.Journal.submit
        b.Broker.Journal.submit;
      Alcotest.(check bool) "shed" a.Broker.Journal.shed b.Broker.Journal.shed;
      Alcotest.(check bool) "rescued" a.Broker.Journal.rescued
        b.Broker.Journal.rescued;
      Alcotest.(check string) "level"
        (Compliance.level_to_string a.Broker.Journal.level)
        (Compliance.level_to_string b.Broker.Journal.level);
      Alcotest.(check bool) "request" true
        (req_equal a.Broker.Journal.request b.Broker.Journal.request))
    entries got;
  Sys.remove path

let test_torn_tail () =
  let path = tmpfile () in
  let reqs = sample_requests () in
  let entries =
    List.mapi
      (fun i r ->
        {
          Broker.Journal.seq = i;
          submit = i;
          shed = false;
          rescued = false;
          level = Compliance.Strict;
          request = r;
        })
      reqs
  in
  let w = Broker.Journal.create ~hexpr_to_string path in
  List.iter (Broker.Journal.append w) entries;
  Broker.Journal.tear w;
  Broker.Journal.close w;
  let { Broker.Journal.entries = got; torn } = read_ok path in
  Alcotest.(check bool) "torn reported" true torn;
  Alcotest.(check int) "durable prefix kept" (List.length entries)
    (List.length got);
  (* resume: truncate the garbage, append, and the journal is clean *)
  Broker.Journal.drop_torn_tail path;
  let w = Broker.Journal.create ~hexpr_to_string ~append:true path in
  Broker.Journal.append w
    {
      Broker.Journal.seq = 99;
      submit = 99;
      shed = false;
      rescued = false;
      level = Compliance.Strict;
      request = Broker.Serve { client = "c2" };
    };
  Broker.Journal.close w;
  let { Broker.Journal.entries = got; torn } = read_ok path in
  Alcotest.(check bool) "clean after resume" false torn;
  Alcotest.(check int) "appended past the truncation"
    (List.length entries + 1) (List.length got);
  Sys.remove path

let test_corruption_rejected () =
  let fails_at path expected_line infix =
    match Broker.Journal.read ~hexpr_of_string path with
    | Ok _ -> Alcotest.failf "corrupted journal accepted (%s)" infix
    | Error e ->
        Alcotest.(check int) (Fmt.str "error line (%s)" infix) expected_line
          e.Broker.Journal.line;
        Alcotest.(check bool) (Fmt.str "mentions %S" infix) true
          (Astring.String.is_infix ~affix:infix e.Broker.Journal.msg)
  in
  let entry i r =
    {
      Broker.Journal.seq = i;
      submit = i;
      shed = false;
      rescued = false;
      level = Compliance.Strict;
      request = r;
    }
  in
  let path = tmpfile () in
  (* bad header *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "susf-journal 99\n");
  fails_at path 1 "unsupported journal header";
  (* mid-file bit rot: flip a payload byte on line 2, keep the file
     shape intact — must be rejected, not skipped *)
  write_entries path
    [ entry 0 (Broker.Serve { client = "c1" });
      entry 1 (Broker.Serve { client = "c2" }) ];
  let lines =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
  in
  let mangled =
    List.mapi
      (fun i l ->
        if i = 1 then String.map (fun c -> if c = '1' then '2' else c) l else l)
      lines
  in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.concat "\n" mangled));
  fails_at path 2 "checksum mismatch";
  (* a complete (newline-terminated) corrupt *final* line is corruption
     too — torn-write forgiveness only covers unterminated tails *)
  write_entries path [ entry 0 (Broker.Serve { client = "c1" }) ];
  let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
  output_string oc "1 00000000 1 serve c2\n";
  close_out oc;
  fails_at path 3 "checksum mismatch";
  (* non-increasing sequence numbers *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.concat "\n"
           [
             "susf-journal 2";
             Broker.Journal.encode ~hexpr_to_string
               (entry 5 (Broker.Serve { client = "c1" }));
             Broker.Journal.encode ~hexpr_to_string
               (entry 3 (Broker.Serve { client = "c2" }));
             "";
           ]));
  fails_at path 3 "not increasing";
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Snapshots *)

let canned_broker () =
  let b = Broker.create Scenarios.Churn.repo in
  List.iter
    (fun (client, body) ->
      ignore (Broker.process b (Broker.Open { client; body })))
    Scenarios.Churn.clients;
  ignore (Broker.process b (Broker.Serve { client = "c1" }));
  ignore (Broker.process b (Broker.Serve { client = "c2" }));
  b

let test_snapshot_roundtrip () =
  let b = canned_broker () in
  let s = Broker.Recovery.snapshot_of b ~upto:5 in
  let path = tmpfile () in
  Broker.Recovery.write ~hexpr_to_string path s;
  (match Broker.Recovery.read ~hexpr_of_string path with
  | Error e -> Alcotest.failf "snapshot read: %a" Broker.Journal.pp_error e
  | Ok s' ->
      Alcotest.(check int) "upto" s.Broker.Recovery.upto s'.Broker.Recovery.upto;
      Alcotest.(check int) "seq" s.Broker.Recovery.seq s'.Broker.Recovery.seq;
      Alcotest.(check (pair int int))
        "admission"
        ( s.Broker.Recovery.admission.Broker.queue_capacity,
          s.Broker.Recovery.admission.Broker.plan_budget )
        ( s'.Broker.Recovery.admission.Broker.queue_capacity,
          s'.Broker.Recovery.admission.Broker.plan_budget );
      Alcotest.(check (list string))
        "repo locations"
        (List.map fst s.Broker.Recovery.repo)
        (List.map fst s'.Broker.Recovery.repo);
      List.iter2
        (fun (_, a) (_, b) ->
          Alcotest.(check bool) "repo body round trip" true (Hexpr.equal a b))
        s.Broker.Recovery.repo s'.Broker.Recovery.repo;
      Alcotest.(check (list string))
        "sessions"
        (List.map fst s.Broker.Recovery.sessions)
        (List.map fst s'.Broker.Recovery.sessions);
      let rendered =
        List.map (fun (c, l) -> (c, Compliance.level_to_string l))
      in
      Alcotest.(check (list (pair string string)))
        "served"
        (rendered s.Broker.Recovery.served)
        (rendered s'.Broker.Recovery.served));
  Sys.remove path

let test_snapshot_corruption_rejected () =
  let b = canned_broker () in
  let path = tmpfile () in
  let fresh () =
    Broker.Recovery.write ~hexpr_to_string path
      (Broker.Recovery.snapshot_of b ~upto:4)
  in
  let fails infix =
    match Broker.Recovery.read ~hexpr_of_string path with
    | Ok _ -> Alcotest.failf "damaged snapshot accepted (%s)" infix
    | Error e ->
        Alcotest.(check bool) (Fmt.str "mentions %S" infix) true
          (Astring.String.is_infix ~affix:infix e.Broker.Journal.msg)
  in
  let text () = In_channel.with_open_bin path In_channel.input_all in
  let put s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s) in
  (* truncation: cut the file mid-way *)
  fresh ();
  let t = text () in
  put (String.sub t 0 (String.length t / 2));
  fails "truncated snapshot";
  (* bit rot in the body: end marker intact, checksum mismatch *)
  fresh ();
  put
    (Astring.String.cuts ~sep:"phi" (text ()) |> String.concat " phj");
  fails "checksum mismatch";
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* The recovery oracle property *)

let submits items =
  List.filter_map
    (function Broker.Script.Submit r -> Some r | _ -> None)
    items

let render rs = String.concat "\n" (List.map (Fmt.str "%a" Broker.pp_response) rs)

(* Run [reqs] one at a time through the journaled feed; return the
   journal path, the broker and the full response stream. *)
let journaled_run reqs =
  let path = tmpfile () in
  let w = Broker.Journal.create ~hexpr_to_string path in
  let b = Broker.create Scenarios.Churn.repo in
  let feed = Broker.Journal.feed ~writer:w b in
  let responses =
    List.mapi (fun submit r -> Broker.Journal.process feed ~submit r) reqs
  in
  Broker.Journal.close w;
  (path, b, responses)

(* Satellite: crash after *every* prefix k. Recovering from the first k
   journal entries (with and without a snapshot covering half of them)
   and replaying the remaining requests must reproduce the
   uninterrupted run's responses byte-for-byte. *)
let test_crash_at_every_prefix () =
  let reqs = submits Scenarios.Churn.script in
  let n = List.length reqs in
  let jpath, _, all = journaled_run reqs in
  let entries =
    let r = read_ok jpath in
    Alcotest.(check bool) "uninterrupted journal is clean" false
      r.Broker.Journal.torn;
    r.Broker.Journal.entries
  in
  Alcotest.(check int) "journal covers the run" n (List.length entries);
  for k = 0 to n do
    let prefix_path = tmpfile () in
    write_entries prefix_path (List.filteri (fun i _ -> i < k) entries);
    let snapshot =
      if k < 2 then None
      else begin
        (* a snapshot covering half the prefix: recovery must rebuild
           its served verdicts, then replay only the suffix *)
        let half = k / 2 in
        let hb = Broker.create Scenarios.Churn.repo in
        List.iteri
          (fun i r -> if i < half then ignore (Broker.process hb r))
          reqs;
        let spath = tmpfile () in
        Broker.Recovery.write ~hexpr_to_string spath
          (Broker.Recovery.snapshot_of hb ~upto:half);
        Some spath
      end
    in
    (match
       Broker.Recovery.recover ~hexpr_of_string ?snapshot ~journal:prefix_path
         Scenarios.Churn.repo
     with
    | Error msg -> Alcotest.failf "recover at k=%d: %s" k msg
    | Ok (rb, report) ->
        Alcotest.(check int)
          (Fmt.str "k=%d entries" k)
          k report.Broker.Recovery.entries;
        if k >= 2 then
          Alcotest.(check int)
            (Fmt.str "k=%d replays only the suffix" k)
            (k - (k / 2))
            report.Broker.Recovery.replayed;
        let rest = List.filteri (fun i _ -> i >= k) reqs in
        let expect = List.filteri (fun i _ -> i >= k) all in
        let got = List.map (Broker.process rb) rest in
        Alcotest.(check string)
          (Fmt.str "k=%d post-recovery responses" k)
          (render expect) (render got));
    Sys.remove prefix_path;
    Option.iter Sys.remove snapshot
  done;
  Sys.remove jpath

(* Recovered verdicts are also byte-identical to the cold oracle — the
   paper-side anchor: recovery composed with the broker's invalidation
   contract still answers what a from-scratch [Planner.analyze] run
   answers. *)
let test_recovered_verdicts_match_oracle () =
  let reqs = submits Scenarios.Churn.script in
  let jpath, _, _ = journaled_run reqs in
  match Broker.Recovery.recover ~hexpr_of_string ~journal:jpath Scenarios.Churn.repo with
  | Error msg -> Alcotest.failf "recover: %s" msg
  | Ok (rb, _) ->
      let repo = Broker.repo rb in
      List.iter
        (fun (name, body) ->
          let served =
            match Broker.process rb (Broker.Serve { client = name }) with
            | { Broker.outcome = Broker.Served { report; _ }; _ } ->
                Broker.Index.Valid report
            | { Broker.outcome = Broker.Rejected Broker.No_plan; _ } ->
                Broker.Index.No_plan
            | r -> Alcotest.failf "unexpected serve outcome: %a" Broker.pp_response r
          in
          Alcotest.(check bool)
            (Fmt.str "%s matches the cold oracle" name)
            true
            (Broker.verdict_equal served
               (Broker.Oracle.serve repo ~client:(name, body))))
        (Broker.clients rb);
      Sys.remove jpath

(* Chaos: seeded workloads, a random crash point, optionally a torn
   tail — recovery either restores the consistent prefix or fails
   loudly; when it restores, replaying the remainder is byte-identical
   to the uninterrupted run. *)
let prop_chaos_recovery =
  QCheck.Test.make ~count:6
    ~name:"chaos: random crash point (± torn tail) recovers byte-identically"
    QCheck.(pair small_nat small_nat)
    (fun (seed, knob) ->
      let profile =
        {
          (Testkit.Workload.default ~clients:Scenarios.Churn.clients
             ~spares:Scenarios.Churn.spares ~noise:Scenarios.Churn.noise)
          with
          Testkit.Workload.seed;
          requests = 40;
        }
      in
      let items, _ = Testkit.Workload.generate profile in
      let reqs = submits items in
      let n = List.length reqs in
      let jpath, _, all = journaled_run reqs in
      let entries = (read_ok jpath).Broker.Journal.entries in
      let k = knob mod (n + 1) in
      let torn = knob land 1 = 1 in
      let prefix_path = tmpfile () in
      write_entries prefix_path (List.filteri (fun i _ -> i < k) entries);
      if torn then begin
        let w = Broker.Journal.create ~hexpr_to_string ~append:true prefix_path in
        Broker.Journal.tear w;
        Broker.Journal.close w
      end;
      let ok =
        match
          Broker.Recovery.recover ~hexpr_of_string ~journal:prefix_path
            Scenarios.Churn.repo
        with
        | Error msg -> QCheck.Test.fail_reportf "recover (k=%d): %s" k msg
        | Ok (rb, report) ->
            let rest = List.filteri (fun i _ -> i >= k) reqs in
            let expect = List.filteri (fun i _ -> i >= k) all in
            let got = List.map (Broker.process rb) rest in
            report.Broker.Recovery.torn_dropped = torn
            && String.equal (render expect) (render got)
      in
      Sys.remove jpath;
      Sys.remove prefix_path;
      ok)

(* ------------------------------------------------------------------ *)
(* Resuming a script past the recovered prefix, shedding included *)

let test_resume_script () =
  let sub c = Broker.Script.Submit (Broker.Serve { client = c }) in
  let entry ?(shed = false) ~seq ~submit c =
    {
      Broker.Journal.seq;
      submit;
      shed;
      rescued = false;
      level = Compliance.Strict;
      request = Broker.Serve { client = c };
    }
  in
  let render_items items =
    String.concat "; "
      (List.map
         (fun (i, item) -> Fmt.str "%d:%a" i Broker.Script.pp_item item)
         items)
  in
  let resume covered items =
    Broker.Recovery.resume_script ~hexpr_to_string ~covered items
  in
  let items =
    [ sub "a"; sub "b"; Broker.Script.Tick; sub "c"; sub "d";
      Broker.Script.Tick ]
  in
  (* a processed, b still queued, c still queued, d shed after them:
     the covered set {0, 3} has a hole, so count-based skipping would
     either re-apply a or drop the queued b/c — index-based skipping
     keeps exactly b, c and the trailing tick *)
  (match
     resume [ entry ~seq:0 ~submit:0 "a"; entry ~shed:true ~seq:1 ~submit:3 "d" ]
       items
   with
  | Error msg -> Alcotest.failf "resume with holes: %s" msg
  | Ok rest ->
      Alcotest.(check string)
        "holes: queued submissions and the tail survive"
        (render_items [ (1, sub "b"); (2, sub "c"); (4, Broker.Script.Tick) ])
        (render_items rest));
  (* an empty covered set just numbers the script *)
  (match resume [] items with
  | Error msg -> Alcotest.failf "fresh numbering: %s" msg
  | Ok rest ->
      Alcotest.(check int) "fresh numbering keeps everything"
        (List.length items) (List.length rest));
  let fails infix covered items =
    match resume covered items with
    | Ok _ -> Alcotest.failf "mismatched resume accepted (%s)" infix
    | Error msg ->
        Alcotest.(check bool) (Fmt.str "mentions %S" infix) true
          (Astring.String.is_infix ~affix:infix msg)
  in
  (* a covered submission that renders differently is a wrong script *)
  fails "does not match" [ entry ~seq:0 ~submit:0 "zzz" ] items;
  (* a journal covering more submissions than the script has *)
  fails "only has" [ entry ~seq:0 ~submit:9 "a" ] items;
  (* a duplicated submission index is corruption *)
  fails "twice" [ entry ~seq:0 ~submit:0 "a"; entry ~seq:1 ~submit:0 "a" ] items

(* The high-severity regression: a serve loop whose bounded queue sheds
   submissions, crashed after every processed-event prefix. Shed
   markers are journaled at submit time, so recovery + resume must
   neither re-apply a journaled event nor drop a submission that was
   still queued at the crash — the crashed run's responses followed by
   the resumed run's must equal the uninterrupted run byte-for-byte,
   sequence numbers included. *)
let shed_admission =
  { Broker.queue_capacity = 1; plan_budget = 64; floor = Compliance.Strict }

let shed_script () =
  let client n = List.assoc n Scenarios.Churn.clients in
  let open Broker.Script in
  [
    Submit (Broker.Open { client = "c1"; body = client "c1" });
    Submit (Broker.Open { client = "c2"; body = client "c2" });
    (* shed *)
    Tick;
    Submit (Broker.Open { client = "c2"; body = client "c2" });
    Submit (Broker.Serve { client = "c1" });
    (* shed *)
    Tick;
    Submit (Broker.Serve { client = "c1" });
    Submit (Broker.Serve { client = "c2" });
    (* shed *)
    Tick;
    Submit (Broker.Serve { client = "c2" });
    Drain;
  ]

exception Crash

(* Run numbered script items through the journaled feed onto [broker],
   journaling to [path] (continuing it with [~append]); an injected
   crash fires before processed event [crash_at] reaches the journal.
   With [~snapshot:(spath, every, base)], every [every] processed
   events write a snapshot to [spath] covering [base] earlier journal
   entries plus those appended since, as [susf serve --snapshot-every]
   does. Returns the responses produced before the crash. *)
let feed_script ?crash_at ?(append = false) ?snapshot broker path indexed =
  let w = Broker.Journal.create ~hexpr_to_string ~append path in
  let responses = ref [] and accepted = ref 0 and last_snap = ref 0 in
  let accept () =
    if crash_at = Some !accepted then raise Crash;
    incr accepted
  in
  let after () =
    match snapshot with
    | Some (spath, every, base) when !accepted - !last_snap >= every ->
        Broker.Journal.flush w;
        Broker.Recovery.write ~hexpr_to_string spath
          (Broker.Recovery.snapshot_of broker
             ~upto:(base + Broker.Journal.appended w));
        last_snap := !accepted
    | _ -> ()
  in
  (try
     Broker.Journal.run
       (Broker.Journal.feed ~writer:w ~accept broker)
       ~after
       ~emit:(fun r -> responses := r :: !responses)
       indexed
   with Crash -> ());
  Broker.Journal.close w;
  List.rev !responses

let test_shed_crash_resume () =
  let items = shed_script () in
  let indexed =
    match Broker.Recovery.resume_script ~hexpr_to_string ~covered:[] items with
    | Ok l -> l
    | Error msg -> Alcotest.fail msg
  in
  let upath = tmpfile () in
  let all =
    feed_script
      (Broker.create ~admission:shed_admission Scenarios.Churn.repo)
      upath indexed
  in
  let uentries = (read_ok upath).Broker.Journal.entries in
  Sys.remove upath;
  let processed =
    List.length
      (List.filter (fun (e : Broker.Journal.entry) -> not e.shed) uentries)
  in
  (* the workload must actually shed, or this test proves nothing *)
  Alcotest.(check bool) "workload sheds" true
    (List.exists (fun (e : Broker.Journal.entry) -> e.Broker.Journal.shed)
       uentries);
  for k = 0 to processed do
    let jpath = tmpfile () in
    let pre =
      feed_script ~crash_at:k
        (Broker.create ~admission:shed_admission Scenarios.Churn.repo)
        jpath indexed
    in
    (match
       Broker.Recovery.recover ~hexpr_of_string ~admission:shed_admission
         ~journal:jpath Scenarios.Churn.repo
     with
    | Error msg -> Alcotest.failf "recover at k=%d: %s" k msg
    | Ok (rb, report) -> (
        match
          Broker.Recovery.resume_script ~hexpr_to_string
            ~covered:report.Broker.Recovery.events items
        with
        | Error msg -> Alcotest.failf "resume at k=%d: %s" k msg
        | Ok rest ->
            let post = feed_script ~append:true rb jpath rest in
            Alcotest.(check string)
              (Fmt.str "k=%d crashed+resumed equals uninterrupted" k)
              (render all)
              (render (pre @ post))));
    Sys.remove jpath
  done

(* Satellite: the same crash-at-every-prefix discipline, but crashing
   mid level-transition. The script lowers the admission floor twice
   via [Set_policy] while the queue is overloaded, so the journal holds
   rescue markers (answered immediately at the floor level) and
   non-strict levels on processed events. Recovery must replay both
   byte-identically no matter where the crash lands — including between
   a floor change being submitted and being processed. *)
let degraded_admission =
  { Broker.queue_capacity = 1; plan_budget = 64; floor = Compliance.Strict }

let degraded_script () =
  let client n = List.assoc n Scenarios.Churn.clients in
  let open Broker.Script in
  [
    Submit (Broker.Open { client = "c1"; body = client "c1" });
    Tick;
    Submit (Broker.Open { client = "c2"; body = client "c2" });
    Tick;
    Submit
      (Broker.Set_policy
         { queue = None; budget = None; floor = Some (Compliance.Skip_k 1) });
    Tick;
    Submit (Broker.Serve { client = "c1" });
    (* rescued at skip:1 — the queue is full with the serve above *)
    Submit (Broker.Serve { client = "c2" });
    Tick;
    Submit
      (Broker.Set_policy
         { queue = None; budget = None; floor = Some Compliance.Affectible });
    (* rescued while the affectible floor is still queued: the rescue
       happens at the *current* floor, skip:1 — the transition window *)
    Submit (Broker.Serve { client = "c1" });
    Tick;
    Submit (Broker.Serve { client = "c2" });
    Drain;
  ]

let test_degraded_crash_resume () =
  let items = degraded_script () in
  let indexed =
    match Broker.Recovery.resume_script ~hexpr_to_string ~covered:[] items with
    | Ok l -> l
    | Error msg -> Alcotest.fail msg
  in
  let upath = tmpfile () in
  let all =
    feed_script
      (Broker.create ~admission:degraded_admission Scenarios.Churn.repo)
      upath indexed
  in
  let uentries = (read_ok upath).Broker.Journal.entries in
  Sys.remove upath;
  let processed =
    List.length
      (List.filter
         (fun (e : Broker.Journal.entry) -> not (e.shed || e.rescued))
         uentries)
  in
  (* the workload must actually rescue and change level, or this test
     proves nothing *)
  Alcotest.(check bool) "workload rescues" true
    (List.exists
       (fun (e : Broker.Journal.entry) -> e.Broker.Journal.rescued)
       uentries);
  Alcotest.(check bool) "workload leaves strict" true
    (List.exists
       (fun (e : Broker.Journal.entry) ->
         e.Broker.Journal.level <> Compliance.Strict)
       uentries);
  Alcotest.(check bool) "nothing sheds once the floor loosens" false
    (List.exists
       (fun (e : Broker.Journal.entry) -> e.Broker.Journal.shed)
       uentries);
  for k = 0 to processed do
    let jpath = tmpfile () in
    let pre =
      feed_script ~crash_at:k
        (Broker.create ~admission:degraded_admission Scenarios.Churn.repo)
        jpath indexed
    in
    (match
       Broker.Recovery.recover ~hexpr_of_string ~admission:degraded_admission
         ~journal:jpath Scenarios.Churn.repo
     with
    | Error msg -> Alcotest.failf "recover at k=%d: %s" k msg
    | Ok (rb, report) -> (
        match
          Broker.Recovery.resume_script ~hexpr_to_string
            ~covered:report.Broker.Recovery.events items
        with
        | Error msg -> Alcotest.failf "resume at k=%d: %s" k msg
        | Ok rest ->
            let post = feed_script ~append:true rb jpath rest in
            Alcotest.(check string)
              (Fmt.str "k=%d crashed mid-transition equals uninterrupted" k)
              (render all)
              (render (pre @ post))));
    Sys.remove jpath
  done

(* Satellite + tentpole recovery property: crash-at-every-prefix over a
   script that climbs the whole repair ladder — a coalition-settled
   orchestrate, a mediator-healed mediate, and serve-first short
   circuits — on a repository merging the supply chain with the
   mismatched family. Orchestration and mediation are recomputed on
   replay (never cached), so recovery must re-synthesize the same
   controller and the same adapter byte-for-byte wherever the crash
   lands. *)
let ladder_admission =
  { Broker.queue_capacity = 8; plan_budget = 64; floor = Compliance.Strict }

let ladder_script () =
  let sc_repo, (retailer, retailer_body) =
    Scenarios.Supply_chain.chain ~parties:4
  in
  let repo = sc_repo @ Scenarios.Mismatched.repo in
  (* normalize the combinator-built bodies through the codec once:
     resume compares script lines against journal lines, and the
     journal holds the parsed (prefix-form) rendering *)
  let norm h = hexpr_of_string (hexpr_to_string h) in
  let open Broker.Script in
  ( repo,
    [
      (* one Tick per event, as in the shed/degraded scripts *)
      Submit (Broker.Open { client = retailer; body = norm retailer_body });
      Tick;
      Submit
        (Broker.Open
           {
             client = "shopper";
             body = norm Scenarios.Mismatched.buffer_client;
           });
      Tick;
      (* no 1:1 plan for either… *)
      Submit (Broker.Serve { client = retailer });
      Tick;
      Submit (Broker.Serve { client = "shopper" });
      Tick;
      (* …the retailer settles at the coalition rung, the shopper only
         at the mediation rung — and mediate on the retailer stops at
         the coalition rung before ever synthesizing an adapter *)
      Submit (Broker.Orchestrate { client = retailer });
      Tick;
      Submit (Broker.Mediate { client = "shopper" });
      Tick;
      Submit (Broker.Mediate { client = retailer });
      Tick;
      Submit (Broker.Orchestrate { client = "shopper" });
      Drain;
    ] )

let test_ladder_crash_resume () =
  let repo, items = ladder_script () in
  let indexed =
    match Broker.Recovery.resume_script ~hexpr_to_string ~covered:[] items with
    | Ok l -> l
    | Error msg -> Alcotest.fail msg
  in
  let upath = tmpfile () in
  let all =
    feed_script
      (Broker.create ~admission:ladder_admission repo)
      upath indexed
  in
  let uentries = (read_ok upath).Broker.Journal.entries in
  Sys.remove upath;
  let processed =
    List.length
      (List.filter (fun (e : Broker.Journal.entry) -> not e.shed) uentries)
  in
  (* the workload must actually repair at both rungs, or this test
     proves nothing *)
  let rendered = render all in
  Alcotest.(check bool) "workload orchestrates" true
    (Astring.String.is_infix ~affix:"ORCHESTRATED" rendered);
  Alcotest.(check bool) "workload mediates" true
    (Astring.String.is_infix ~affix:"MEDIATED" rendered);
  for k = 0 to processed do
    let jpath = tmpfile () in
    let pre =
      feed_script ~crash_at:k
        (Broker.create ~admission:ladder_admission repo)
        jpath indexed
    in
    (match
       Broker.Recovery.recover ~hexpr_of_string ~admission:ladder_admission
         ~journal:jpath repo
     with
    | Error msg -> Alcotest.failf "recover at k=%d: %s" k msg
    | Ok (rb, report) -> (
        match
          Broker.Recovery.resume_script ~hexpr_to_string
            ~covered:report.Broker.Recovery.events items
        with
        | Error msg -> Alcotest.failf "resume at k=%d: %s" k msg
        | Ok rest ->
            let post = feed_script ~append:true rb jpath rest in
            Alcotest.(check string)
              (Fmt.str "k=%d crashed mid-ladder equals uninterrupted" k)
              rendered
              (render (pre @ post))));
    Sys.remove jpath
  done

(* Run [items] uninterrupted, then crash before every processed event
   with every snapshot cadence from 1 to 5, recover and resume: replies
   and journal must equal the uninterrupted run's, byte for byte.
   Returns the rendered outcomes of the uninterrupted run's serves. *)
let crash_everywhere ~hexpr_of_string repo items =
  let indexed =
    match Broker.Recovery.resume_script ~hexpr_to_string ~covered:[] items with
    | Ok l -> l
    | Error msg -> Alcotest.fail msg
  in
  let read_bytes path = In_channel.with_open_bin path In_channel.input_all in
  let upath = tmpfile () in
  let all = feed_script (Broker.create repo) upath indexed in
  let ujournal = read_bytes upath in
  Sys.remove upath;
  for every = 1 to 5 do
    for k = 0 to List.length all do
      let jpath = tmpfile () and spath = tmpfile () in
      Sys.remove spath;
      let pre =
        feed_script ~crash_at:k ~snapshot:(spath, every, 0) (Broker.create repo)
          jpath indexed
      in
      (match
         Broker.Recovery.recover ~hexpr_of_string ~snapshot:spath
           ~journal:jpath repo
       with
      | Error msg -> Alcotest.failf "every %d, k=%d: recover: %s" every k msg
      | Ok (rb, report) -> (
          match
            Broker.Recovery.resume_script ~hexpr_to_string
              ~covered:report.Broker.Recovery.events items
          with
          | Error msg -> Alcotest.failf "every %d, k=%d: resume: %s" every k msg
          | Ok rest ->
              let post =
                feed_script ~append:true
                  ~snapshot:(spath, every, report.Broker.Recovery.entries)
                  rb jpath rest
              in
              Alcotest.(check string)
                (Fmt.str "every %d, k=%d: replies" every k)
                (render all)
                (render (pre @ post));
              Alcotest.(check string)
                (Fmt.str "every %d, k=%d: journal" every k)
                ujournal (read_bytes jpath)));
      Sys.remove jpath;
      if Sys.file_exists spath then Sys.remove spath
    done
  done;
  List.filter_map
    (fun (r : Broker.response) ->
      match r.Broker.request with
      | Broker.Serve _ -> Some (Fmt.str "%a" Broker.pp_outcome r.outcome)
      | _ -> None)
    all

let parse_script ~hexpr_of_string ?file text =
  match Broker.Script.parse ?file ~hexpr_of_string text with
  | Ok items -> items
  | Error msg -> Alcotest.fail msg

(* The position-aware publish rule must be decided against the current
   repository, never the one an entry was cached in. In
   examples/data/appended.script, [retract x1] leaves c's cached plan
   with no earlier choice that keeps a site open, so the next relevant
   publish keeps it (HIT); a broker that recorded the plan as exposed
   when it was cached would drop it, while one rebuilt from a snapshot
   after the retract would not. *)
let test_appended_crash_resume () =
  let data = "../examples/data/appended" in
  let spec = Syntax.Parser.spec_of_file (data ^ ".susf") in
  let hexpr_of_string =
    Syntax.Parser.hexpr_of_string ~automata:spec.Syntax.Spec.automata
  in
  let file = data ^ ".script" in
  let items =
    parse_script ~hexpr_of_string ~file
      (In_channel.with_open_text file In_channel.input_all)
  in
  Alcotest.(check (list string))
    "uninterrupted serves"
    [
      "MISS plan {1[x2], 2[yold]}: VALID (10 states)";
      "MISS plan {1[x1], 2[y2]}: VALID (10 states)";
      "MISS plan {1[x2], 2[yold]}: VALID (10 states)";
      "HIT plan {1[x2], 2[yold]}: VALID (10 states)";
      "HIT plan {1[x2], 2[yold]}: VALID (10 states)";
    ]
    (crash_everywhere ~hexpr_of_string (Syntax.Spec.repo spec) items)

(* The converse: an [Update] can give a location before the plan's
   choice a site of its own, exposing a plan it leaves cached (the
   update is relevant to no site). The next relevant publish must drop
   the entry, as a broker rebuilt after the update would. *)
let test_update_exposes_crash_resume () =
  let hexpr_of_string = Syntax.Parser.hexpr_of_string ~automata:[] in
  let repo =
    List.map
      (fun (l, src) -> (l, hexpr_of_string src))
      [ ("s0", "m0?"); ("s1", "m2?"); ("s2", "m1?") ]
  in
  let items =
    parse_script ~hexpr_of_string
      (String.concat "\n"
         [
           "open c = open(1){ m0! } . open(2){ m1! }"; "drain"; "serve c";
           "drain"; "update s1 = m2? . open(10){ n0! }"; "drain"; "serve c";
           "drain"; "publish p = m1?"; "drain"; "serve c"; "drain";
         ])
  in
  Alcotest.(check (list string))
    "uninterrupted serves"
    [
      "MISS plan {1[s0], 2[s2]}: VALID (7 states)";
      "HIT plan {1[s0], 2[s2]}: VALID (7 states)";
      "MISS plan {1[s0], 2[s2]}: VALID (7 states)";
    ]
    (crash_everywhere ~hexpr_of_string repo items)

(* ------------------------------------------------------------------ *)
(* B9: recovery vs journal length on the churn workload *)

(* Journal 60, 120 and 240 seeded churn requests, snapshot at 3/4 of the
   run, then recover twice: by full journal replay and from the snapshot
   plus the journal suffix. Every client's next serve must render
   byte-identically on both recovered brokers and the uninterrupted
   one (the three serves evolve them in lockstep). *)
let test_recovery_vs_journal_length () =
  List.iter
    (fun n ->
      let items, _ =
        Testkit.Workload.generate
          {
            (Testkit.Workload.default ~clients:Scenarios.Churn.clients
               ~spares:Scenarios.Churn.spares ~noise:Scenarios.Churn.noise)
            with
            Testkit.Workload.requests = n;
          }
      in
      let reqs = submits items in
      let jpath, broker, _ = journaled_run reqs in
      (* the comparison serves below must not hit the closed writer *)
      Broker.set_journal broker None;
      let snap_at = 3 * List.length reqs / 4 in
      let spath = tmpfile () in
      let at_snapshot = Broker.create Scenarios.Churn.repo in
      List.iteri
        (fun i r -> if i < snap_at then ignore (Broker.process at_snapshot r))
        reqs;
      Broker.Recovery.write ~hexpr_to_string spath
        (Broker.Recovery.snapshot_of at_snapshot ~upto:snap_at);
      let recover ?snapshot () =
        match
          Broker.Recovery.recover ~hexpr_of_string ?snapshot ~journal:jpath
            Scenarios.Churn.repo
        with
        | Error msg -> Alcotest.failf "%d requests: recovery failed: %s" n msg
        | Ok (b, _) -> b
      in
      let full = recover () and from_snapshot = recover ~snapshot:spath () in
      let serve b client =
        Fmt.str "%a" Broker.pp_outcome
          (Broker.process b (Broker.Serve { client })).Broker.outcome
      in
      List.iter
        (fun (client, _) ->
          let want = serve broker client in
          Alcotest.(check string)
            (Fmt.str "%d requests, %s: full replay" n client)
            want (serve full client);
          Alcotest.(check string)
            (Fmt.str "%d requests, %s: snapshot at %d" n client snap_at)
            want
            (serve from_snapshot client))
        (Broker.clients broker);
      Sys.remove jpath;
      Sys.remove spath)
    [ 60; 120; 240 ]

let suite =
  [
    Alcotest.test_case "request codec round trips" `Quick test_codec_roundtrip;
    Alcotest.test_case "journal round trips" `Quick test_journal_roundtrip;
    Alcotest.test_case "torn tail dropped, resume appends" `Quick
      test_torn_tail;
    Alcotest.test_case "corrupted journals rejected loudly" `Quick
      test_corruption_rejected;
    Alcotest.test_case "snapshot round trips" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "damaged snapshots rejected loudly" `Quick
      test_snapshot_corruption_rejected;
    Alcotest.test_case "crash at every prefix recovers byte-identically"
      `Quick test_crash_at_every_prefix;
    Alcotest.test_case "recovered verdicts match the cold oracle" `Quick
      test_recovered_verdicts_match_oracle;
    Alcotest.test_case "resume skips by submission index, checks the script"
      `Quick test_resume_script;
    Alcotest.test_case "shedding run crashes and resumes byte-identically"
      `Quick test_shed_crash_resume;
    Alcotest.test_case "crash mid level-transition recovers byte-identically"
      `Quick test_degraded_crash_resume;
    Alcotest.test_case "crash mid repair-ladder recovers byte-identically"
      `Quick test_ladder_crash_resume;
    QCheck_alcotest.to_alcotest prop_chaos_recovery;
    Alcotest.test_case "recovery vs journal length (B9)" `Quick
      test_recovery_vs_journal_length;
    Alcotest.test_case "appended.script: crash, snapshot, resume" `Quick
      test_appended_crash_resume;
    Alcotest.test_case "update exposes: crash, snapshot, resume" `Quick
      test_update_exposes_crash_resume;
  ]
