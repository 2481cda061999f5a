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
     read refreshes its deadline, so it must never be reaped *)
  for _ = 1 to 4 do
    output_string busy_oc "ping\n";
    flush busy_oc;
    Alcotest.(check string) "busy connection stays alive" "ok pong"
      (input_line busy_ic);
    Unix.sleepf 0.2
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
  ]
