(* The sharded broker: routing totality/stability, group-commit
   durability semantics, the shard-merge replay property (per-shard
   journals reconstruct every response byte-identically, shed and
   rescue tokens included), per-shard oracle verification after
   recovery, and an in-process socket smoke over the real TCP front
   end. *)

open Core

let automata = [ ("phi", Usage.Policy_lib.hotel) ]
let hexpr_of_string = Syntax.Parser.hexpr_of_string ~automata
let hexpr_to_string = Hexpr.to_string
let tmpfile () = Filename.temp_file "susf-shard" ".tmp"

(* ------------------------------------------------------------------ *)
(* Routing *)

(* An independent FNV-1a/32 — the routing rule is a wire contract
   (per-shard journals are replayed against it after a crash), so the
   test pins the algorithm, not just "some hash". *)
let fnv1a32 s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x01000193 land 0xFFFFFFFF)
    s;
  !h

let prop_route_total =
  QCheck.Test.make ~count:500 ~name:"route: total, in range, FNV-1a/32"
    QCheck.(pair (string_of_size Gen.(0 -- 32)) (int_range 1 8))
    (fun (key, shards) ->
      let s = Broker.route ~shards key in
      s >= 0 && s < shards && s = fnv1a32 key mod shards)

let test_route_stable () =
  (* pinned values: these are what the journals of every released
     version were written against *)
  List.iter
    (fun (key, shards, expect) ->
      Alcotest.(check int) (Fmt.str "route %s %%%d" key shards) expect
        (Broker.route ~shards key))
    [
      ("c1", 1, 0);
      ("c1", 4, fnv1a32 "c1" mod 4);
      ("c2", 4, fnv1a32 "c2" mod 4);
      ("", 8, fnv1a32 "" mod 8);
    ];
  Alcotest.check_raises "shards < 1 rejected"
    (Invalid_argument "Broker.route: shards must be >= 1") (fun () ->
      ignore (Broker.route ~shards:0 "c1"))

let test_target () =
  let shard_of r =
    match Broker.target ~shards:4 r with
    | Broker.Shard i -> Some i
    | Broker.Broadcast -> None
  in
  let body = List.assoc "c1" Scenarios.Churn.clients in
  Alcotest.(check (option int))
    "open routes by client"
    (Some (Broker.route ~shards:4 "c1"))
    (shard_of (Broker.Open { client = "c1"; body }));
  Alcotest.(check (option int))
    "serve routes by client"
    (Some (Broker.route ~shards:4 "c1"))
    (shard_of (Broker.Serve { client = "c1" }));
  List.iter
    (fun r ->
      Alcotest.(check (option int)) "mutations broadcast" None (shard_of r))
    [
      Broker.Publish
        { loc = "s3b"; service = List.assoc "s3b" Scenarios.Churn.spares };
      Broker.Retract { loc = "s3" };
      Broker.Set_policy { queue = None; budget = None; floor = None };
    ]

let test_partition_order () =
  let streams = 3 in
  let parts = Broker.Script.partition ~streams Scenarios.Churn.script in
  Alcotest.(check int) "stream count" streams (Array.length parts);
  (* every session request sits on its client's stream, and per-client
     submission order is preserved within it *)
  let client_of = function
    | Broker.Open { client; _ }
    | Broker.Close { client }
    | Broker.Serve { client }
    | Broker.Run { client; _ } ->
        Some client
    | _ -> None
  in
  Array.iteri
    (fun i part ->
      List.iter
        (fun r ->
          match client_of r with
          | Some c ->
              Alcotest.(check int) (Fmt.str "%s on its shard stream" c)
                (Broker.route ~shards:streams c)
                i
          | None -> Alcotest.(check int) "mutations on stream 0" 0 i)
        part)
    parts;
  let order part c =
    List.filter (fun r -> client_of r = Some c) part
  in
  let all =
    List.filter_map
      (function Broker.Script.Submit r -> Some r | _ -> None)
      Scenarios.Churn.script
  in
  List.iter
    (fun (c, _) ->
      let stream = Broker.route ~shards:streams c in
      Alcotest.(check int)
        (Fmt.str "per-client order kept for %s" c)
        (List.length (order all c))
        (List.length (order parts.(stream) c)))
    Scenarios.Churn.clients

(* ------------------------------------------------------------------ *)
(* Group commit *)

let sample_entries n =
  List.init n (fun i ->
      {
        Broker.Journal.seq = i;
        submit = i;
        shed = false;
        rescued = false;
        level = Compliance.Strict;
        request = Broker.Serve { client = Fmt.str "c%d" i };
      })

let read_entries path =
  match Broker.Journal.read ~hexpr_of_string path with
  | Ok r -> r
  | Error e -> Alcotest.failf "journal read: %a" Broker.Journal.pp_error e

let test_group_commit_crash () =
  let path = tmpfile () in
  let w = Broker.Journal.create ~hexpr_to_string ~batch:4 path in
  let entries = sample_entries 10 in
  List.iter (Broker.Journal.append w) entries;
  (* 10 appends at batch 4: two full batches flushed, 2 buffered *)
  Broker.Journal.crash w;
  let r = read_entries path in
  Alcotest.(check bool) "no torn tail" false r.Broker.Journal.torn;
  Alcotest.(check int) "flushed prefix only" 8
    (List.length r.Broker.Journal.entries);
  List.iteri
    (fun i e ->
      Alcotest.(check int) "prefix, never a hole" i e.Broker.Journal.seq)
    r.Broker.Journal.entries;
  Sys.remove path

let test_group_commit_close_flushes () =
  let path = tmpfile () in
  let w = Broker.Journal.create ~hexpr_to_string ~batch:64 path in
  List.iter (Broker.Journal.append w) (sample_entries 10);
  Broker.Journal.close w;
  Alcotest.(check int) "close flushes the buffer" 10
    (List.length (read_entries path).Broker.Journal.entries);
  Sys.remove path

let test_group_commit_flush_barrier () =
  let path = tmpfile () in
  let w = Broker.Journal.create ~hexpr_to_string ~batch:1000 path in
  let entries = sample_entries 5 in
  List.iteri (fun i e -> if i < 3 then Broker.Journal.append w e) entries;
  Broker.Journal.flush w;
  List.iteri (fun i e -> if i >= 3 then Broker.Journal.append w e) entries;
  Broker.Journal.crash w;
  Alcotest.(check int) "flush is the durability barrier" 3
    (List.length (read_entries path).Broker.Journal.entries);
  Sys.remove path

let test_batch_validated () =
  Alcotest.check_raises "batch < 1 rejected"
    (Invalid_argument "Journal.create: batch must be >= 1") (fun () ->
      ignore (Broker.Journal.create ~hexpr_to_string ~batch:0 (tmpfile ())))

(* ------------------------------------------------------------------ *)
(* The shard-merge replay property *)

(* Run a pool under pressure (tiny queue, affectible floor — sheds and
   rescues fire), journaling with a group-commit batch; then prove the
   per-shard journals reconstruct every acknowledged response
   byte-identically via replay/replay_shed/replay_rescue, and that
   every recovered verdict matches the cold oracle at its recorded
   level. *)

let churn_requests () =
  List.filter_map
    (function Broker.Script.Submit r -> Some r | _ -> None)
    Scenarios.Churn.script

let pressured_submissions () =
  (* the canned churn script plus a serve burst per client: enough
     same-shard backlog to climb the ladder and rescue at least once *)
  churn_requests ()
  @ List.concat_map
      (fun (c, _) ->
        List.init 12 (fun _ -> Broker.Serve { client = c }))
      Scenarios.Churn.clients

let run_pool ~shards ~admission ~journal requests =
  let lock = Mutex.create () in
  let acked = ref [] in
  let pool = Broker.Shard.create ~admission ~journal ~shards Scenarios.Churn.repo in
  List.iter
    (fun r ->
      Broker.Shard.submit pool
        ~callback:(fun ~shard resp ->
          Mutex.lock lock;
          acked := (shard, resp) :: !acked;
          Mutex.unlock lock)
        r)
    requests;
  Broker.Shard.stop pool;
  (pool, List.rev !acked)

let ladder_fired acked =
  List.exists
    (fun (_, (r : Broker.response)) ->
      match r.Broker.outcome with
      | Broker.Served { level; _ } -> level <> Compliance.Strict
      | Broker.Degraded _ | Broker.Rejected Broker.Shed -> true
      | _ -> false)
    acked

let test_shard_merge_replay () =
  let shards = 3 in
  let admission =
    { Broker.queue_capacity = 4; plan_budget = 64; floor = Compliance.Affectible }
  in
  let requests = pressured_submissions () in
  (* queue pressure (and with it the ladder) depends on how fast the
     worker domains drain relative to the submitting thread, so retry
     the run a few times rather than flake: one burst virtually always
     outruns the first cold-cache serve *)
  let rec attempt n =
    let paths = Array.init shards (fun _ -> tmpfile ()) in
    let journal i =
      Broker.Journal.create ~hexpr_to_string ~batch:3 paths.(i)
    in
    let pool, acked = run_pool ~shards ~admission ~journal requests in
    if ladder_fired acked || n >= 5 then (paths, pool, acked)
    else begin
      Array.iter Sys.remove paths;
      attempt (n + 1)
    end
  in
  let paths, pool, acked = attempt 1 in
  Alcotest.(check int) "every submission acked" (List.length requests)
    (List.length acked);
  Alcotest.(check bool) "the ladder fired under pressure" true
    (ladder_fired acked);
  for i = 0 to shards - 1 do
    let entries = (read_entries paths.(i)).Broker.Journal.entries in
    (* replay the journal against a fresh engine: every response the
       live shard acked must come back byte-identical *)
    let fresh = Broker.create ~admission Scenarios.Churn.repo in
    let replayed =
      List.map
        (fun (e : Broker.Journal.entry) ->
          if e.shed then Broker.replay_shed fresh ~seq:e.seq e.request
          else if e.rescued then
            Broker.replay_rescue fresh ~seq:e.seq ~level:e.level e.request
          else Broker.replay fresh ~seq:e.seq ~level:e.level e.request)
        entries
    in
    let live =
      List.filter (fun (s, _) -> s = i) acked |> List.map snd
    in
    (* acked is completion-ordered across shards; the journal is the
       per-shard order. Index replayed responses by seq. *)
    let by_seq =
      List.map (fun (r : Broker.response) -> (r.Broker.seq, r)) replayed
    in
    List.iter
      (fun (r : Broker.response) ->
        match List.assoc_opt r.Broker.seq by_seq with
        | None ->
            Alcotest.failf "shard %d: acked seq %d missing from journal" i
              r.Broker.seq
        | Some r' ->
            Alcotest.(check string)
              (Fmt.str "shard %d seq %d byte-identical" i r.Broker.seq)
              (Fmt.str "%a" Broker.pp_response r)
              (Fmt.str "%a" Broker.pp_response r'))
      live;
    (* the recovered engine equals the stopped shard: same repo render,
       same next seq, and every cached verdict oracle-clean *)
    let original = Broker.Shard.engine pool i in
    Alcotest.(check int)
      (Fmt.str "shard %d seq resumes" i)
      (Broker.seq original) (Broker.seq fresh);
    List.iter
      (fun (client, level) ->
        let body = List.assoc client (Broker.clients fresh) in
        let oracle =
          Broker.Oracle.serve ~level (Broker.repo fresh) ~client:(client, body)
        in
        match Broker.cached_verdict fresh client with
        | Some (v, _) ->
            Alcotest.(check bool)
              (Fmt.str "shard %d %s oracle-clean at its level" i client)
              true
              (Broker.verdict_equal v oracle)
        | None -> Alcotest.failf "shard %d: %s lost its verdict" i client)
      (Broker.served_clients fresh);
    Sys.remove paths.(i)
  done

(* Crash at every batch boundary of every shard's journal: recovery
   from each prefix must succeed and leave an oracle-clean broker —
   the per-shard crash-at-every-prefix guarantee, with v2 shed/rescue
   tokens in the stream. *)
let test_shard_crash_prefixes () =
  let shards = 2 in
  let admission =
    { Broker.queue_capacity = 4; plan_budget = 64; floor = Compliance.Affectible }
  in
  let paths = Array.init shards (fun _ -> tmpfile ()) in
  let journal i =
    Broker.Journal.create ~hexpr_to_string ~batch:2 paths.(i)
  in
  let _pool, _ =
    run_pool ~shards ~admission ~journal (pressured_submissions ())
  in
  for i = 0 to shards - 1 do
    let entries = (read_entries paths.(i)).Broker.Journal.entries in
    Alcotest.(check bool)
      (Fmt.str "shard %d journaled" i)
      true (entries <> []);
    for k = 0 to List.length entries do
      let prefix_path = tmpfile () in
      let w = Broker.Journal.create ~hexpr_to_string prefix_path in
      List.iteri
        (fun j e -> if j < k then Broker.Journal.append w e)
        entries;
      Broker.Journal.close w;
      (match
         Broker.Recovery.recover ~hexpr_of_string ~admission
           ~journal:prefix_path Scenarios.Churn.repo
       with
      | Error msg -> Alcotest.failf "shard %d prefix %d: %s" i k msg
      | Ok (b, report) ->
          Alcotest.(check int)
            (Fmt.str "shard %d prefix %d replayed fully" i k)
            k report.Broker.Recovery.entries;
          List.iter
            (fun (client, level) ->
              let body = List.assoc client (Broker.clients b) in
              let oracle =
                Broker.Oracle.serve ~level (Broker.repo b)
                  ~client:(client, body)
              in
              match Broker.cached_verdict b client with
              | Some (v, _) ->
                  if not (Broker.verdict_equal v oracle) then
                    Alcotest.failf "shard %d prefix %d: %s mismatch" i k
                      client
              | None -> ())
            (Broker.served_clients b));
      Sys.remove prefix_path
    done;
    Sys.remove paths.(i)
  done

(* Replicas never fork: broadcasts bypass admission, so even with a
   queue too small for the burst every shard ends on the same
   repository — the regression that shedding a [Publish] on a lagging
   shard silently diverged its replica. *)
let test_broadcast_never_shed () =
  let shards = 3 in
  let admission =
    { Broker.queue_capacity = 2; plan_budget = 64; floor = Compliance.Strict }
  in
  let pool = Broker.Shard.create ~admission ~shards Scenarios.Churn.repo in
  List.iter (Broker.Shard.submit pool ?callback:None)
    (pressured_submissions ());
  Broker.Shard.stop pool;
  let render i =
    Broker.repo (Broker.Shard.engine pool i)
    |> List.map (fun (loc, svc) -> loc ^ " = " ^ Hexpr.to_string svc)
    |> String.concat "\n"
  in
  let first = render 0 in
  for i = 1 to shards - 1 do
    Alcotest.(check string)
      (Fmt.str "shard %d replica equals shard 0" i)
      first (render i)
  done

(* ------------------------------------------------------------------ *)
(* The socket front end, in-process *)

let test_net_smoke () =
  let admission = Broker.default_admission in
  let pool =
    Broker.Shard.create ~admission ~shards:2 Scenarios.Churn.repo
  in
  let server = Broker.Net.create ~hexpr_of_string ~port:0 pool in
  let port = Broker.Net.port server in
  let d = Domain.spawn (fun () -> Broker.Net.serve server) in
  let streams = Broker.Script.partition ~streams:3 Scenarios.Churn.script in
  let conns, driven = Broker.Net.drive ~port ~hexpr_to_string streams in
  let total = Array.fold_left (fun n s -> n + List.length s) 0 streams in
  Alcotest.(check int) "every request answered" total (List.length driven);
  List.iter
    (fun (dv : Broker.Net.driven) ->
      if not (String.length dv.reply > 3 && String.sub dv.reply 0 3 = "ok ")
      then
        Alcotest.failf "stream %d: %a -> %s" dv.stream Broker.pp_request
          dv.request dv.reply)
    driven;
  (* broadcasts answer with '*', session requests with a shard id *)
  List.iter
    (fun (dv : Broker.Net.driven) ->
      let tag = List.nth (String.split_on_char ' ' dv.reply) 1 in
      match Broker.target ~shards:2 dv.request with
      | Broker.Broadcast ->
          Alcotest.(check string) "broadcast tag" "*" tag
      | Broker.Shard i ->
          Alcotest.(check string) "shard tag" (string_of_int i) tag)
    driven;
  Broker.Net.shutdown_conns conns;
  Domain.join d

let connect port =
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let rec go tries =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) when tries > 0 ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Unix.sleepf 0.1;
        go (tries - 1)
  in
  go 50

(* Satellite: the per-connection idle read timeout. A connection that
   goes silent is answered 'err timeout' and closed; one that keeps
   talking refreshes its deadline and survives long past the limit;
   non-positive limits are rejected up front. *)
let test_net_idle_timeout () =
  let pool =
    Broker.Shard.create ~admission:Broker.default_admission ~shards:1
      Scenarios.Churn.repo
  in
  (* a non-positive limit is a configuration error, not 'off' — the
     check fires before the listener binds, so the pool is untouched *)
  (try
     ignore (Broker.Net.create ~hexpr_of_string ~idle_timeout:0. ~port:0 pool);
     Alcotest.fail "idle_timeout 0. accepted"
   with Invalid_argument _ -> ());
  let server =
    Broker.Net.create ~hexpr_of_string ~idle_timeout:0.3 ~port:0 pool
  in
  let port = Broker.Net.port server in
  let d = Domain.spawn (fun () -> Broker.Net.serve server) in
  let silent_fd, silent_ic, _ = connect port in
  let busy_fd, busy_ic, busy_oc = connect port in
  (* the busy connection pings across several timeout windows: each
     read refreshes its deadline, so it must never be reaped. It sleeps
     between pings only: the shutdown below must follow the last ping
     well within the limit, or a loaded host could reap it first *)
  for i = 1 to 4 do
    if i > 1 then Unix.sleepf 0.2;
    output_string busy_oc "ping\n";
    flush busy_oc;
    Alcotest.(check string) "busy connection stays alive" "ok pong"
      (input_line busy_ic)
  done;
  (* the silent one was reaped meanwhile: the server said why, then
     hung up *)
  Alcotest.(check string) "silent connection reaped" "err timeout"
    (input_line silent_ic);
  (match input_line silent_ic with
  | line -> Alcotest.failf "silent connection still open: %s" line
  | exception End_of_file -> ());
  (try Unix.close silent_fd with Unix.Unix_error _ -> ());
  output_string busy_oc "shutdown\n";
  flush busy_oc;
  Alcotest.(check string) "clean shutdown" "ok bye" (input_line busy_ic);
  (try Unix.close busy_fd with Unix.Unix_error _ -> ());
  Domain.join d

(* A line longer than the 1 MiB cap is answered once and skipped
   through its newline; the same connection then serves the next
   line. *)
let test_net_line_cap () =
  let pool =
    Broker.Shard.create ~admission:Broker.default_admission ~shards:1
      Scenarios.Churn.repo
  in
  let server = Broker.Net.create ~hexpr_of_string ~port:0 pool in
  let d = Domain.spawn (fun () -> Broker.Net.serve server) in
  let fd, ic, oc = connect (Broker.Net.port server) in
  output_string oc (String.make (2 lsl 20) 'x');
  output_string oc "\nping\n";
  flush oc;
  Alcotest.(check string) "overlong line refused" "err line too long"
    (input_line ic);
  Alcotest.(check string) "connection still serves" "ok pong"
    (input_line ic);
  output_string oc "shutdown\n";
  flush oc;
  Alcotest.(check string) "clean shutdown" "ok bye" (input_line ic);
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Domain.join d

(* ------------------------------------------------------------------ *)
(* Inline cycles *)

(* An idle shard with an empty queue runs an inline submission's cycle
   on the calling thread: the callback has fired when [submit] returns,
   for a broadcast too (shard 0 runs its copy; the others are queued). *)
let test_inline_idle () =
  let run ~shards =
    let pool =
      Broker.Shard.create ~admission:Broker.default_admission ~shards
        Scenarios.Churn.repo
    in
    List.iter
      (fun r ->
        let lock = Mutex.create () in
        let fired = ref false in
        Broker.Shard.submit ~inline:true pool
          ~callback:(fun ~shard:_ _ ->
            Mutex.lock lock;
            fired := true;
            Mutex.unlock lock)
          r;
        Mutex.lock lock;
        let answered = !fired in
        Mutex.unlock lock;
        Alcotest.(check bool)
          (Fmt.str "%d shard(s): %a answered before submit returned" shards
             Broker.pp_request r)
          true answered;
        (* a broadcast's queued copies must finish before the next
           request, or that request could find its shard busy *)
        Broker.Shard.drain pool)
      (churn_requests ());
    Broker.Shard.stop pool
  in
  run ~shards:1;
  run ~shards:2

(* A busy shard queues an inline submission behind the running cycle:
   [submit] returns without firing, the job then runs on the worker in
   FIFO order, and [drain] and [stop] still return. *)
let test_inline_busy () =
  let pool =
    Broker.Shard.create ~admission:Broker.default_admission ~shards:1
      Scenarios.Churn.repo
  in
  let entered = Semaphore.Binary.make false
  and release = Semaphore.Binary.make false in
  let lock = Mutex.create () in
  let fired = ref [] in
  let record name ~shard:_ (resp : Broker.response) =
    Mutex.lock lock;
    fired := (name, resp.Broker.seq) :: !fired;
    Mutex.unlock lock
  in
  let body = List.assoc "c1" Scenarios.Churn.clients in
  Broker.Shard.submit pool
    ~callback:(fun ~shard resp ->
      record "open" ~shard resp;
      Semaphore.Binary.release entered;
      Semaphore.Binary.acquire release)
    (Broker.Open { client = "c1"; body });
  (* the worker now holds the shard, blocked in the open's callback *)
  Semaphore.Binary.acquire entered;
  Broker.Shard.submit ~inline:true pool ~callback:(record "serve")
    (Broker.Serve { client = "c1" });
  Mutex.lock lock;
  let before = List.rev !fired in
  Mutex.unlock lock;
  Alcotest.(check (list (pair string int)))
    "the inline submission queued behind the busy cycle" [ ("open", 0) ]
    before;
  Semaphore.Binary.release release;
  Broker.Shard.drain pool;
  Alcotest.(check (list (pair string int)))
    "then ran on the worker, FIFO, consecutive seqs"
    [ ("open", 0); ("serve", 1) ]
    (List.rev !fired);
  Broker.Shard.stop pool

let one_line s =
  String.split_on_char '\n' s
  |> List.map String.trim
  |> List.filter (fun l -> l <> "")
  |> String.concat " "

(* One connection with one request in flight over journaled shards:
   every reply equals the rendering of its journal replay. On a
   one-shard pool the requests run inline; on two shards they go to the
   workers. *)
let test_net_inline_replay () =
  let run ~shards =
    Obs.Metrics.install ();
    Fun.protect ~finally:Obs.Metrics.uninstall @@ fun () ->
    let admission = Broker.default_admission in
    let paths = Array.init shards (fun _ -> tmpfile ()) in
    let journal i = Broker.Journal.create ~hexpr_to_string paths.(i) in
    let pool =
      Broker.Shard.create ~admission ~journal ~shards Scenarios.Churn.repo
    in
    let server = Broker.Net.create ~hexpr_of_string ~port:0 pool in
    let d = Domain.spawn (fun () -> Broker.Net.serve server) in
    let conns, driven =
      Broker.Net.drive ~port:(Broker.Net.port server) ~hexpr_to_string
        [| churn_requests () |]
    in
    Broker.Net.shutdown_conns conns;
    Domain.join d;
    Alcotest.(check int) "every request answered"
      (List.length (churn_requests ()))
      (List.length driven);
    let replayed =
      Array.map
        (fun path ->
          let fresh = Broker.create ~admission Scenarios.Churn.repo in
          List.map
            (fun (e : Broker.Journal.entry) ->
              let r =
                Broker.replay fresh ~seq:e.seq ~level:e.level e.request
              in
              (r.Broker.seq, r))
            (read_entries path).Broker.Journal.entries)
        paths
    in
    List.iter
      (fun (dv : Broker.Net.driven) ->
        match String.split_on_char ' ' dv.reply with
        | "ok" :: tag :: seq :: _ -> (
            let shard = if tag = "*" then 0 else int_of_string tag in
            let seq = int_of_string seq in
            match List.assoc_opt seq replayed.(shard) with
            | None -> Alcotest.failf "shard %d seq %d not journaled" shard seq
            | Some r ->
                Alcotest.(check string)
                  (Fmt.str "shard %d seq %d reply = journal replay" shard seq)
                  dv.reply
                  (Fmt.str "ok %s %d %s" tag seq
                     (one_line
                        (Fmt.str "%a" Broker.pp_outcome r.Broker.outcome))))
        | _ -> Alcotest.failf "%a -> %s" Broker.pp_request dv.request dv.reply)
      driven;
    Array.iter Sys.remove paths;
    let inline =
      Option.value ~default:0
        (List.assoc_opt "broker.shard.inline"
           (Obs.Metrics.snapshot ()).Obs.Metrics.counters)
    in
    Alcotest.(check bool)
      (Fmt.str "%d shard(s): requests ran inline" shards)
      (shards = 1) (inline > 0)
  in
  run ~shards:1;
  run ~shards:2

(* While a second connection is open the select thread runs no
   request: a connection that pings inside its idle deadline is answered
   while another connection's slow request runs. Had the select thread
   run that request inline, the ping would sit unread past the deadline
   and the connection would be reaped. *)
let test_net_slow_neighbour () =
  Obs.Metrics.install ();
  Fun.protect ~finally:Obs.Metrics.uninstall @@ fun () ->
  (* services that pair up in loops the client takes no part in: the
     orchestrate verb tries every coalition of up to five of them before
     it declines, tens of thousands of syntheses *)
  let repo =
    List.init 30 (fun i ->
        ( Fmt.str "s%d" i,
          hexpr_of_string
            (if i mod 2 = 0 then Fmt.str "mu h. p%d!.h" i
             else Fmt.str "mu h. p%d?.h" (i - 1)) ))
  in
  let pool =
    Broker.Shard.create ~admission:Broker.default_admission ~shards:1 repo
  in
  let limit = 0.5 in
  let server =
    Broker.Net.create ~hexpr_of_string ~idle_timeout:limit ~port:0 pool
  in
  let port = Broker.Net.port server in
  let d = Domain.spawn (fun () -> Broker.Net.serve server) in
  let send oc line =
    output_string oc (line ^ "\n");
    flush oc
  in
  let ask ic oc line =
    send oc line;
    input_line ic
  in
  let slow_fd, slow_ic, slow_oc = connect port in
  let quick_fd, quick_ic, quick_oc = connect port in
  ignore (ask slow_ic slow_oc "open c = open(1){ z? }");
  (* the quick connection's deadline runs from its first ping *)
  Alcotest.(check string) "quick connection answered" "ok pong"
    (ask quick_ic quick_oc "ping");
  let sent = Semaphore.Binary.make false in
  let quick =
    Domain.spawn (fun () ->
        Semaphore.Binary.acquire sent;
        Unix.sleepf (0.7 *. limit);
        ask quick_ic quick_oc "ping")
  in
  send slow_oc "orchestrate c";
  Semaphore.Binary.release sent;
  (* the slow connection keeps its own deadline fresh by pinging while
     it waits: from here on it is read raw, a line at a time *)
  let pending = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec next_line ~keepalive =
    let s = Buffer.contents pending in
    match String.index_opt s '\n' with
    | Some i ->
        Buffer.clear pending;
        Buffer.add_string pending
          (String.sub s (i + 1) (String.length s - i - 1));
        String.sub s 0 i
    | None -> (
        match Unix.select [ slow_fd ] [] [] 0.1 with
        | [], _, _ ->
            if keepalive then send slow_oc "ping";
            next_line ~keepalive
        | _ ->
            let n = Unix.read slow_fd chunk 0 (Bytes.length chunk) in
            if n = 0 then Alcotest.fail "slow connection closed";
            Buffer.add_subbytes pending chunk 0 n;
            next_line ~keepalive)
  in
  let rec past_pongs ~keepalive =
    match next_line ~keepalive with
    | "ok pong" -> past_pongs ~keepalive
    | line -> line
  in
  let reply = past_pongs ~keepalive:true in
  Alcotest.(check string) "pinged inside its deadline: answered" "ok pong"
    (Domain.join quick);
  Alcotest.(check bool)
    ("the slow request was answered: " ^ reply)
    true
    (String.starts_with ~prefix:"ok 0 " reply);
  let inline =
    Option.value ~default:0
      (List.assoc_opt "broker.shard.inline"
         (Obs.Metrics.snapshot ()).Obs.Metrics.counters)
  in
  Alcotest.(check int) "no inline cycle with two connections open" 0 inline;
  send slow_oc "shutdown";
  Alcotest.(check string) "clean shutdown" "ok bye"
    (past_pongs ~keepalive:false);
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ slow_fd; quick_fd ];
  Domain.join d

let suite =
  [
    Alcotest.test_case "route: pinned values, stability" `Quick
      test_route_stable;
    Alcotest.test_case "target: sessions route, mutations broadcast" `Quick
      test_target;
    Alcotest.test_case "partition: affinity and order" `Quick
      test_partition_order;
    Alcotest.test_case "group commit: crash loses only the buffered tail"
      `Quick test_group_commit_crash;
    Alcotest.test_case "group commit: close flushes" `Quick
      test_group_commit_close_flushes;
    Alcotest.test_case "group commit: flush is the barrier" `Quick
      test_group_commit_flush_barrier;
    Alcotest.test_case "group commit: batch validated" `Quick
      test_batch_validated;
    Alcotest.test_case "shard-merge replay: byte-identical + oracle-clean"
      `Quick test_shard_merge_replay;
    Alcotest.test_case "crash at every prefix, per shard" `Slow
      test_shard_crash_prefixes;
    Alcotest.test_case "broadcasts never shed: replicas never fork" `Quick
      test_broadcast_never_shed;
    Alcotest.test_case "socket front end: drive + shutdown" `Quick
      test_net_smoke;
    Alcotest.test_case "socket front end: idle connections reaped" `Quick
      test_net_idle_timeout;
    Alcotest.test_case "socket front end: overlong lines capped" `Quick
      test_net_line_cap;
    QCheck_alcotest.to_alcotest prop_route_total;
    Alcotest.test_case "inline submit: an idle shard answers before return"
      `Quick test_inline_idle;
    Alcotest.test_case "inline submit: a busy shard queues, FIFO" `Quick
      test_inline_busy;
    Alcotest.test_case "socket front end: inline replies = journal replay"
      `Quick test_net_inline_replay;
    Alcotest.test_case "socket front end: a slow request holds up no other \
                        connection"
      `Quick test_net_slow_neighbour;
  ]
