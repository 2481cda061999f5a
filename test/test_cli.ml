(* End-to-end tests of the susf binary: every subcommand runs against
   the shipped hotel specification and exits with the documented code.
   The binary is declared as a test dependency, so the relative path is
   stable inside the dune sandbox. *)

let susf = "../bin/susf.exe"
let hotel = "../examples/data/hotel.susf"
let faulty_mesh = "corpus/faulty_mesh.susf"

let run args =
  let null = " > /dev/null 2> /dev/null" in
  Sys.command (Filename.quote_command susf args ^ null)

let check_exit expected args () =
  Alcotest.(check int) (String.concat " " args) expected (run args)

(* A journaled run refuses to overwrite its journal, so each test that
   writes one first removes what an earlier run of the suite left: the
   journal, its snapshot and the per-shard files JOURNAL.k. *)
let remove_journal journal =
  List.iter
    (fun f -> if Sys.file_exists f then Sys.remove f)
    (journal :: (journal ^ ".snapshot")
    :: List.init 9 (Fmt.str "%s.%d" journal))

let write_log name contents =
  let oc = open_out name in
  output_string oc contents;
  close_out oc;
  name

let test_audit_codes () =
  let clean = write_log "clean.log" "sgn(s3)\nprice(90)\nrating(100)\n" in
  let dirty = write_log "dirty.log" "sgn(s1)\n" in
  Alcotest.(check int) "clean audit" 0
    (run [ "audit"; hotel; clean; "--policy"; "phi({s1},45,100)" ]);
  Alcotest.(check int) "dirty audit" 1
    (run [ "audit"; hotel; dirty; "--policy"; "phi({s1},45,100)" ])

let test_obs_outputs () =
  let read f = In_channel.with_open_text f In_channel.input_all in
  Alcotest.(check int) "faulty simulate with obs outputs" 1
    (run
       [ "simulate"; hotel; "-c"; "c1"; "-p"; "pi1"; "--faults"; "crash:s3@4";
         "--trace"; "t.json"; "--metrics"; "m.json" ]);
  let t = read "t.json" and m = read "m.json" in
  Alcotest.(check bool) "trace is a JSON array" true
    (String.length t > 0 && t.[0] = '[');
  Alcotest.(check bool) "metrics is a JSON object" true
    (String.length m > 0 && m.[0] = '{');
  Alcotest.(check int) "check with obs outputs" 0
    (run
       [ "check"; hotel; "-c"; "c1"; "-p"; "pi1"; "--trace"; "ct.json";
         "--metrics"; "cm.json" ]);
  Alcotest.(check bool) "check trace non-trivial" true
    (String.length (read "ct.json") > 2)

let read_file f = In_channel.with_open_bin f In_channel.input_all

(* stdout and stderr of one susf run, then its exit code *)
let capture args =
  let code =
    Sys.command (Filename.quote_command susf args ^ " > capture.out 2>&1")
  in
  read_file "capture.out" ^ Fmt.str "exit %d" code

(* every .susf file under examples/data and the test corpus *)
let shipped_specs () =
  let specs dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.filter (fun f -> Filename.check_suffix f ".susf")
    |> List.map (Filename.concat dir)
  in
  specs "../examples/data" @ specs "corpus"

(* susf fmt output must parse back, reprint to itself, and check the
   same as its source, for every shipped specification *)
let test_fmt_reparses () =
  List.iter
    (fun path ->
      let fmt src dst =
        Sys.command
          (Filename.quote_command susf [ "fmt"; src ] ^ " > " ^ dst
         ^ " 2> fmt.err")
      in
      Alcotest.(check int) (path ^ ": fmt succeeds") 0
        (fmt path "roundtrip.susf");
      Alcotest.(check int)
        (path ^ ": the reprint parses")
        0
        (fmt "roundtrip.susf" "roundtrip2.susf");
      Alcotest.(check string)
        (path ^ ": the reprint is a fixed point")
        (read_file "roundtrip.susf")
        (read_file "roundtrip2.susf");
      Alcotest.(check string)
        (path ^ ": check agrees on the reprint")
        (capture [ "check"; path ])
        (capture [ "check"; "roundtrip.susf" ]))
    (shipped_specs ());
  (* the hotel reprint verifies the canonical client/plan pair *)
  Alcotest.(check int) "hotel reprint" 0
    (Sys.command
       (Filename.quote_command susf [ "fmt"; hotel ] ^ " > roundtrip.susf"));
  Alcotest.(check int) "reparses and verifies" 0
    (run [ "check"; "roundtrip.susf"; "-c"; "c1"; "-p"; "pi1" ])

(* An out-of-range integer literal exits 2 with a FILE:LINE:COL
   diagnostic, like every other lexer error. *)
let test_int_overflow () =
  let spec =
    write_log "overflow.susf" "service s = #price(99999999999999999999999);\n"
  in
  let code =
    Sys.command
      (Filename.quote_command susf [ "check"; spec ]
      ^ " > /dev/null 2> overflow.err")
  in
  Alcotest.(check int) "exit code" 2 code;
  Alcotest.(check string) "diagnostic"
    "overflow.susf:1:20: integer literal out of range"
    (String.trim (In_channel.with_open_text "overflow.err" In_channel.input_all))

let churn_script = "../examples/data/churn.script"

let test_serve_outputs () =
  let read f = In_channel.with_open_text f In_channel.input_all in
  Alcotest.(check int) "serve with obs outputs" 0
    (run
       [ "serve"; hotel; "--script"; churn_script; "--metrics"; "sm.json";
         "--trace"; "st.json" ]);
  Alcotest.(check bool) "serve metrics mention the broker" true
    (Astring.String.is_infix ~affix:"broker.cache.hit" (read "sm.json"));
  let code =
    Sys.command
      (Filename.quote_command susf [ "serve"; hotel; "--script"; churn_script;
                                     "--json" ]
      ^ " > serve.json 2> /dev/null")
  in
  Alcotest.(check int) "serve --json succeeds" 0 code;
  let j = read "serve.json" in
  Alcotest.(check bool) "json has responses and stats" true
    (Astring.String.is_infix ~affix:"\"responses\"" j
    && Astring.String.is_infix ~affix:"\"stats\"" j)

let test_serve_crash_recovery () =
  let read f = In_channel.with_open_text f In_channel.input_all in
  let out args file =
    Sys.command (Filename.quote_command susf args ^ " > " ^ file ^ " 2> /dev/null")
  in
  let response_lines f =
    read f |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] = '[')
  in
  remove_journal "crash.journal";
  Alcotest.(check int) "uninterrupted run" 0
    (out [ "serve"; hotel; "--script"; churn_script ] "full.txt");
  Alcotest.(check int) "crashed run exits 3" 3
    (out
       [ "serve"; hotel; "--script"; churn_script; "--journal"; "crash.journal";
         "--snapshot-every"; "4"; "--faults"; "crash@8" ]
       "pre.txt");
  Alcotest.(check bool) "snapshot written" true
    (Sys.file_exists "crash.journal.snapshot");
  Alcotest.(check int) "journal overwrite guarded" 2
    (run [ "serve"; hotel; "--script"; churn_script; "--journal"; "crash.journal" ]);
  Alcotest.(check int) "recovery resumes" 0
    (out
       [ "serve"; hotel; "--script"; churn_script; "--recover"; "--journal";
         "crash.journal" ]
       "post.txt");
  let full = response_lines "full.txt"
  and pre = response_lines "pre.txt"
  and post = response_lines "post.txt" in
  Alcotest.(check int) "prefix + suffix covers the run" (List.length full)
    (List.length pre + List.length post);
  Alcotest.(check (list string))
    "post-recovery responses equal the uninterrupted run's tail"
    (List.filteri (fun i _ -> i >= List.length pre) full)
    post;
  (* --force does overwrite *)
  Alcotest.(check int) "journal overwrite forced" 0
    (run
       [ "serve"; hotel; "--script"; churn_script; "--journal"; "crash.journal";
         "--force" ])

(* Regression: a rescue journaled after a live [policy floor LEVEL]
   change must record the broker's floor at rescue time, not the
   startup --floor value. Recovery re-runs the rescue at the journaled
   level, so a stale level shifts the recovered broker's
   strict/skip/affectible outcome mix away from the uninterrupted
   run's. *)
let test_serve_rescue_floor_change () =
  let read f = In_channel.with_open_text f In_channel.input_all in
  let out args file =
    Sys.command
      (Filename.quote_command susf args ^ " > " ^ file ^ " 2> /dev/null")
  in
  let response_lines f =
    read f |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] = '[')
  in
  (* the "strict A, skip B, affectible C" slice of the stats line *)
  let served_mix f =
    let line =
      read f |> String.split_on_char '\n'
      |> List.find_opt (fun l -> Astring.String.is_prefix ~affix:"-- " l)
      |> Option.value ~default:""
    in
    match Astring.String.cut ~sep:"; " line with
    | Some (_, rest) ->
        Option.fold ~none:rest ~some:fst (Astring.String.cut ~sep:")" rest)
    | None -> line
  in
  let script =
    write_log "rescue.script"
      "open c1 = open(1: phi({s1},45,100)){ req!.(cobo?.pay! + noav?) }\n\
       tick\n\
       policy floor affectible\n\
       tick\n\
       serve c1\n\
       serve c1\n\
       drain\n"
  in
  let base =
    [ "serve"; hotel; "--script"; script; "--queue"; "1"; "--floor"; "skip:1" ]
  in
  remove_journal "rescue.journal";
  Alcotest.(check int) "uninterrupted run" 0 (out base "rfull.txt");
  (* the workload must rescue at the script-set floor (not the startup
     one), or this test proves nothing *)
  Alcotest.(check string) "rescued at the live floor"
    "strict 1, skip 0, affectible 1" (served_mix "rfull.txt");
  Alcotest.(check int) "crashed run exits 3" 3
    (out
       (base @ [ "--journal"; "rescue.journal"; "--faults"; "crash@2" ])
       "rpre.txt");
  Alcotest.(check int) "recovery resumes" 0
    (out (base @ [ "--recover"; "--journal"; "rescue.journal" ]) "rpost.txt");
  let full = response_lines "rfull.txt" and pre = response_lines "rpre.txt" in
  Alcotest.(check (list string))
    "post-recovery responses equal the uninterrupted run's tail"
    (List.filteri (fun i _ -> i >= List.length pre) full)
    (response_lines "rpost.txt");
  Alcotest.(check string) "recovery replays the rescue at the journaled floor"
    (served_mix "rfull.txt") (served_mix "rpost.txt")

(* Numbers the serve loop cannot honour are usage errors, caught before
   any work starts: exit 2 with a one-line message, never an uncaught
   exception or a run that sheds or degrades everything. So is a
   --connect host that does not resolve (a refused port is too, but
   only after the driver's retries, so it is left out here). *)
let test_serve_bad_numbers () =
  List.iter
    (fun (flag, message) ->
      let code =
        Sys.command
          (Filename.quote_command susf
             [ "serve"; hotel; "--script"; churn_script; flag ]
          ^ " > /dev/null 2> bad-number.err")
      in
      Alcotest.(check int) (flag ^ " exit code") 2 code;
      Alcotest.(check string) (flag ^ " message") message
        (String.trim
           (In_channel.with_open_text "bad-number.err" In_channel.input_all)))
    [
      ("--conns=0", "--conns must be >= 1");
      ("--net-timeout=0", "--net-timeout must be > 0");
      ("--queue=0", "--queue must be >= 1");
      ("--budget=-5", "--budget must be >= 1");
      ("--shards=0", "--shards must be >= 1");
      ("--shards=128", "--shards must be <= 127");
      ( "--connect=nosuchhost.invalid:1",
        "--connect nosuchhost.invalid:1: unknown host" );
    ];
  (* more shards than the runtime has domains for: refused before any
     journal is created, not by the first request to queue *)
  remove_journal "too-many.journal";
  let code =
    Sys.command
      (Filename.quote_command susf
         [ "serve"; hotel; "--listen"; "0"; "--shards"; "128"; "--journal";
           "too-many.journal" ]
      ^ " > /dev/null 2> /dev/null")
  in
  Alcotest.(check int) "--listen --shards 128 exit code" 2 code;
  Alcotest.(check bool) "no journal created" false
    (Sys.file_exists "too-many.journal.0")

(* A flag the chosen mode would ignore is a usage error too: a --check
   that checks nothing, a snapshot or fault that never fires, a journal
   the --connect client never writes. *)
let test_serve_ignored_flags () =
  remove_journal "unchecked.journal";
  remove_journal "client.journal";
  let script = [ "--script"; churn_script ] in
  let client = script @ [ "--connect"; "127.0.0.1:1" ] in
  List.iter
    (fun (args, message) ->
      let what = String.concat " " args in
      let code =
        Sys.command
          (Filename.quote_command susf ([ "serve"; hotel ] @ args)
             ~stdout:"/dev/null" ~stderr:"ignored-flag.err")
      in
      Alcotest.(check int) (what ^ " exit code") 2 code;
      Alcotest.(check string) (what ^ " message") message
        (String.trim (read_file "ignored-flag.err")))
    [
      ( [ "--listen"; "0"; "--journal"; "unchecked.journal"; "--check" ],
        "--check needs --listen and --recover" );
      (script @ [ "--check" ], "--check needs --listen and --recover");
      ( [ "--listen"; "0"; "--snapshot-every"; "2" ],
        "--snapshot-every applies to --script runs, not --listen" );
      ( [ "--listen"; "0"; "--faults"; "crash@2" ],
        "--faults applies to --script runs, not --listen" );
      ( client @ [ "--journal"; "client.journal" ],
        "--journal applies to the server, not --connect" );
      (client @ [ "--recover" ], "--recover applies to the server, not --connect");
      (client @ [ "--force" ], "--force applies to the server, not --connect");
      ( client @ [ "--snapshot-every"; "2" ],
        "--snapshot-every applies to --script runs, not --connect" );
      ( client @ [ "--faults"; "crash@2" ],
        "--faults applies to --script runs, not --connect" );
    ];
  Alcotest.(check bool) "no journal created" false
    (Sys.file_exists "unchecked.journal.0")

let test_serve_script_diagnostics () =
  let bad = write_log "bad.script" "serve c1\nfrobnicate c1\n" in
  let code =
    Sys.command
      (Filename.quote_command susf [ "serve"; hotel; "--script"; bad ]
      ^ " > /dev/null 2> bad.err")
  in
  Alcotest.(check int) "malformed script exits 2" 2 code;
  let err = In_channel.with_open_text "bad.err" In_channel.input_all in
  Alcotest.(check bool) "error carries file:line:" true
    (Astring.String.is_infix ~affix:"bad.script:2:" err);
  Alcotest.(check bool) "error names the token" true
    (Astring.String.is_infix ~affix:"frobnicate" err)

let test_metrics_hold_no_durations () =
  (* the metrics registry is deterministic: no CPU-time readings *)
  Alcotest.(check int) "check with metrics" 0
    (run
       [ "check"; hotel; "-c"; "c1"; "-p"; "pi1"; "--metrics";
         "durations.json" ]);
  let m = In_channel.with_open_text "durations.json" In_channel.input_all in
  Alcotest.(check bool) "no *.time_us key" false
    (Astring.String.is_infix ~affix:".time_us\"" m)

(* ---- the repair ladder ------------------------------------------------ *)

(* A counter's value in a --metrics file, 0 when absent *)
let counter metrics name =
  match Astring.String.cut ~sep:(Fmt.str "%S:" name) metrics with
  | Some (_, rest) -> Scanf.sscanf rest " %d" Fun.id
  | None -> 0

(* The rung each client block of `susf plans` output settles on *)
let printed_rungs out =
  let blocks = ref [] in
  List.iter
    (fun l ->
      (* "client NAME:" heads a block; counterexample dumps also hold
         "client: ..." lines, which are not block heads *)
      match Scanf.sscanf_opt l "client %[^: ]:%!" Fun.id with
      | Some name when name <> "" -> blocks := (name, ref []) :: !blocks
      | _ -> ( match !blocks with (_, ls) :: _ -> ls := l :: !ls | [] -> ()))
    (String.split_on_char '\n' out);
  List.rev_map
    (fun (name, ls) ->
      let has affix = List.exists (Astring.String.is_infix ~affix) !ls in
      ( name,
        if has ": VALID (" then "planned"
        else if has "mediated triple re-verified" then "mediated"
        else if has "controller re-verified" then "orchestrated"
        else "declined" ))
    !blocks

(* One ladder, three front ends: for every client of every shipped spec,
   `susf plans --orchestrate`/`--mediate`, the broker's
   orchestrate/mediate verbs and the library (the first valid 1:1 plan,
   else [Repair.climb ~mediate]) settle on the same rung. *)
let test_one_ladder () =
  List.iter
    (fun path ->
      let spec = Syntax.Parser.spec_of_file path in
      let repo = Syntax.Spec.repo spec in
      List.iter
        (fun mediate ->
          let flag = if mediate then "--mediate" else "--orchestrate" in
          let library =
            List.map
              (fun (name, body) ->
                let client = (name, body) in
                ( name,
                  if Option.is_some (Core.Planner.first_valid repo ~client)
                  then "planned"
                  else
                    match Mediator.Repair.climb ~mediate repo ~client with
                    | Mediator.Repair.Planned _ -> "planned"
                    | Mediator.Repair.Orchestrated _ -> "orchestrated"
                    | Mediator.Repair.Mediated _ -> "mediated"
                    | Mediator.Repair.Declined _ -> "declined" ))
              spec.Syntax.Spec.clients
          in
          let broker =
            List.map
              (fun (client, body) ->
                let b = Broker.create repo in
                ignore (Broker.process b (Broker.Open { client; body }));
                let verb =
                  if mediate then Broker.Mediate { client }
                  else Broker.Orchestrate { client }
                in
                ( client,
                  match (Broker.process b verb).Broker.outcome with
                  | Broker.Served _ -> "planned"
                  | Broker.Orchestrated _ -> "orchestrated"
                  | Broker.Mediated _ -> "mediated"
                  | Broker.Rejected _ -> "declined"
                  | o -> Fmt.str "%a" Broker.pp_outcome o ))
              spec.Syntax.Spec.clients
          in
          let cli =
            Sys.command
              (Filename.quote_command susf [ "plans"; path; flag ]
                 ~stdout:"ladder.out" ~stderr:"/dev/null")
          in
          let printed = printed_rungs (read_file "ladder.out") in
          let rungs = Alcotest.(list (pair string string)) in
          Alcotest.check rungs (Fmt.str "%s %s: plans = library" path flag)
            library printed;
          Alcotest.check rungs (Fmt.str "%s %s: broker = library" path flag)
            library broker;
          Alcotest.(check int)
            (Fmt.str "%s %s: exit 1 exactly when a client is declined" path
               flag)
            (if List.exists (fun (_, r) -> r = "declined") library then 1
             else 0)
            cli)
        [ false; true ])
    (shipped_specs ())

(* orchestration.declined is counted inside the ladder, so every front
   end reports it: mismatched's shopper has no coalition (then an
   adapter heals it), once under plans, and twice in the broker script,
   which mediates the shopper twice *)
let test_ladder_counts_declines () =
  let mismatched = "../examples/data/mismatched.susf" in
  Alcotest.(check int) "plans --mediate" 0
    (run [ "plans"; mismatched; "--mediate"; "--metrics"; "ladder.json" ]);
  let metrics = read_file "ladder.json" in
  Alcotest.(check int) "plans: coalitions explored" 1
    (counter metrics "orchestration.coalitions.explored");
  Alcotest.(check int) "plans: coalition declines" 1
    (counter metrics "orchestration.declined");
  Alcotest.(check int) "serve --script" 0
    (run
       [ "serve"; mismatched; "--script"; "../examples/data/mismatched.script";
         "--metrics"; "ladder.json" ]);
  Alcotest.(check int) "broker: coalition declines" 2
    (counter (read_file "ladder.json") "orchestration.declined")

(* ---- a socket server in a subprocess ---------------------------------- *)

(* `susf serve --listen 0` runs as a child process, so a server that
   dies cannot take the test runner with it; with [limit] it runs under
   `ulimit -n`. [f] gets the port the server announced on stderr. The
   server must have exited by itself within a few seconds of [f]
   returning (it is killed otherwise); its exit code (-1 for a signal)
   and its metrics file are returned. *)
let with_server ?limit ?(args = []) name f =
  let err = name ^ ".err" and metrics = name ^ ".metrics.json" in
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ err; metrics ];
  let serve =
    Filename.quote_command susf
      ([ "serve"; hotel; "--listen"; "0"; "--metrics"; metrics ] @ args)
      ~stdout:"/dev/null" ~stderr:err
  in
  let script =
    match limit with
    | None -> "exec " ^ serve
    | Some n -> Fmt.str "ulimit -n %d && exec %s" n serve
  in
  let pid =
    (* an ignored signal stays ignored across exec: the server must
       start with SIGPIPE's default action, whatever this process set *)
    let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_default in
    Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe sigpipe)
    @@ fun () ->
    Unix.create_process "/bin/sh" [| "/bin/sh"; "-c"; script |] Unix.stdin
      Unix.stdout Unix.stderr
  in
  let rec wait_exit tries =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when tries > 0 ->
        Unix.sleepf 0.05;
        wait_exit (tries - 1)
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        snd (Unix.waitpid [] pid)
    | _, status -> status
  in
  let rec port tries =
    let text = if Sys.file_exists err then read_file err else "" in
    match Astring.String.cut ~sep:"listening on 127.0.0.1:" text with
    | Some (_, rest) -> Scanf.sscanf rest "%d" Fun.id
    | None when tries > 0 ->
        Unix.sleepf 0.02;
        port (tries - 1)
    | None -> Alcotest.failf "%s: the server did not start: %s" name text
  in
  let status =
    match f (port 250) with
    | () -> wait_exit 100
    | exception e ->
        ignore (wait_exit 0);
        raise e
  in
  let code =
    match status with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
  in
  (code, if Sys.file_exists metrics then read_file metrics else "")

(* A connection with a receive timeout, so a wedged server fails the
   test instead of hanging it; with SIGPIPE ignored, a dead one fails it
   instead of killing the runner. *)
let connect port =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
  fd

let ask fd line =
  let msg = line ^ "\n" in
  ignore (Unix.write_substring fd msg 0 (String.length msg));
  let b = Buffer.create 16 and c = Bytes.create 1 in
  let rec go () =
    match Unix.read fd c 0 1 with
    | 0 -> Buffer.contents b
    | _ when Bytes.get c 0 = '\n' -> Buffer.contents b
    | _ ->
        Buffer.add_bytes b c;
        go ()
  in
  go ()

let still_serves what port =
  let fd = connect port in
  Alcotest.(check string) (what ^ ": a new connection's ping") "ok pong"
    (ask fd "ping");
  Alcotest.(check string) (what ^ ": shutdown") "ok bye" (ask fd "shutdown");
  Unix.close fd

(* A client that sends a burst of pings and hangs up without reading
   them: the server's replies hit a closed socket, which must close that
   connection only, not kill the server with SIGPIPE. *)
let test_serve_survives_hangup () =
  let code, _ =
    with_server "hangup" (fun port ->
        let fd = connect port in
        let burst = String.concat "" (List.init 100 (fun _ -> "ping\n")) in
        ignore (Unix.write_substring fd burst 0 (String.length burst));
        Unix.close fd;
        Unix.sleepf 0.2;
        still_serves "after a hang-up" port)
  in
  Alcotest.(check int) "server exit code" 0 code

(* Out of descriptors: 30 connections under `ulimit -n 24`. A failed
   accept must not end the server; once the clients hang up it takes
   new connections again. *)
let test_serve_survives_fd_limit () =
  let code, metrics =
    with_server ~limit:24 "fdlimit" (fun port ->
        let fds = List.init 30 (fun _ -> connect port) in
        Alcotest.(check string) "the first connection is served" "ok pong"
          (ask (List.hd fds) "ping");
        Unix.sleepf 0.3;
        List.iter Unix.close fds;
        still_serves "after running out of descriptors" port)
  in
  Alcotest.(check int) "server exit code" 0 code;
  Alcotest.(check bool) "net.accept_errors counted" true
    (counter metrics "net.accept_errors" > 0)

(* A client that pipelines pings and never reads a reply: the server
   keeps the output that client's socket does not take, up to 1 MiB,
   then closes the connection and counts it, and all along another
   connection's ping is answered. The flood stops when the server hangs
   up, or when the server has not read from it for half a second. *)
let test_serve_survives_stalled_reader () =
  let code, metrics =
    with_server "stall" (fun port ->
        let flood = connect port in
        Unix.set_nonblock flood;
        let burst = String.concat "" (List.init 8192 (fun _ -> "ping\n")) in
        let start = Unix.gettimeofday () in
        let rec pipeline ~progress =
          let now = Unix.gettimeofday () in
          if now -. start < 5.0 && now -. progress < 0.5 then
            match
              Unix.single_write_substring flood burst 0 (String.length burst)
            with
            | _ -> pipeline ~progress:now
            | exception
                Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                Unix.sleepf 0.001;
                pipeline ~progress
            | exception Unix.Unix_error _ -> ()
        in
        pipeline ~progress:start;
        let fd = connect port in
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 1.0;
        let reply =
          try ask fd "ping"
          with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            "no reply within 1 s"
        in
        Alcotest.(check string) "another connection's ping" "ok pong" reply;
        Alcotest.(check string) "shutdown" "ok bye" (ask fd "shutdown");
        List.iter Unix.close [ fd; flood ])
  in
  Alcotest.(check int) "server exit code" 0 code;
  Alcotest.(check int) "net.overflows" 1 (counter metrics "net.overflows")

(* [ask] for a client that never sleeps while its request is in flight,
   as perfbench's closed-loop client does: it spins on a non-blocking
   socket until the reply line is in. *)
let ask_spinning fd line =
  let msg = line ^ "\n" in
  ignore (Unix.write_substring fd msg 0 (String.length msg));
  let b = Buffer.create 16 and chunk = Bytes.create 64 in
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents b
    | n when Bytes.get chunk (n - 1) = '\n' ->
        Buffer.add_subbytes b chunk 0 (n - 1);
        Buffer.contents b
    | n ->
        Buffer.add_subbytes b chunk 0 n;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        if Unix.gettimeofday () > deadline then
          Alcotest.failf "%s: no reply within 5 s" line;
        go ()
  in
  go ()

let pings fd n =
  Unix.set_nonblock fd;
  for _ = 1 to n do
    Alcotest.(check string) "ping" "ok pong" (ask_spinning fd "ping")
  done;
  Unix.clear_nonblock fd

(* The select thread polls only for a short window after a request: a
   server left idle after 1,000 closed-loop pings uses little CPU time
   (the child's, from [Unix.times]) over the second it waits. *)
let test_idle_server_sleeps () =
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_cutime +. t.Unix.tms_cstime
  in
  let before = cpu () in
  let code, _ =
    with_server "idle" (fun port ->
        let fd = connect port in
        pings fd 1000;
        Unix.sleepf 1.0;
        Alcotest.(check string) "shutdown" "ok bye" (ask fd "shutdown");
        Unix.close fd)
  in
  let used = cpu () -. before in
  Alcotest.(check int) "server exit code" 0 code;
  Alcotest.(check bool)
    (Fmt.str "server CPU time %.3f s < 0.5 s" used)
    true (used < 0.5)

(* A lone connection's closed-loop pings land inside the poll window;
   with a second connection open, the select thread never polls. *)
let test_poll_window_lone_connection () =
  let _, metrics =
    with_server "poll" (fun port ->
        let fd = connect port in
        pings fd 1000;
        Alcotest.(check string) "shutdown" "ok bye" (ask fd "shutdown");
        Unix.close fd)
  in
  Alcotest.(check bool) "one connection: net.poll.caught > 0" true
    (counter metrics "net.poll.caught" > 0);
  let _, metrics =
    with_server "nopoll" (fun port ->
        let fd = connect port and other = connect port in
        Alcotest.(check string) "the second connection is open" "ok pong"
          (ask other "ping");
        pings fd 1000;
        Alcotest.(check string) "shutdown" "ok bye" (ask fd "shutdown");
        List.iter Unix.close [ fd; other ])
  in
  List.iter
    (fun name ->
      Alcotest.(check int) ("two connections: " ^ name) 0
        (counter metrics name))
    [ "net.poll.caught"; "net.poll.slept" ]

(* A journal set belongs to the shard count it was written under: the
   pool creates JOURNAL.0 … JOURNAL.N-1 at start and routes clients by
   hash mod N. Recovering it with another --shards exits 2 and names
   the file, instead of ignoring journals (fewer shards) or re-routing
   every client (more). A forced fresh start at a smaller width removes
   the larger set's extra files, so its own recovery is not refused. *)
let test_recover_needs_same_shards () =
  let journal = "reshard.journal" in
  let file i = Fmt.str "%s.%d" journal i in
  remove_journal journal;
  let clients = [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ] in
  let serve_clients ?(force = []) shards =
    let args =
      [ "--shards"; string_of_int shards; "--journal"; journal ] @ force
    in
    let code, _ =
      with_server ~args "reshard" (fun port ->
          let fd = connect port in
          List.iter
            (fun c ->
              ignore
                (ask fd
                   (Fmt.str
                      "open %s = open(1: phi({s1},45,100)){ req!.(cobo?.pay! \
                       + noav?) }"
                      c));
              ignore (ask fd ("serve " ^ c)))
            clients;
          Alcotest.(check string) "shutdown" "ok bye" (ask fd "shutdown");
          Unix.close fd)
    in
    Alcotest.(check int) (Fmt.str "%d-shard server exit code" shards) 0 code
  in
  serve_clients 4;
  let recover shards =
    let code =
      Sys.command
        (Filename.quote_command susf
           [ "serve"; hotel; "--listen"; "0"; "--shards"; string_of_int shards;
             "--journal"; journal; "--recover"; "--check" ]
           ~stdout:"/dev/null" ~stderr:"reshard.recover.err")
    in
    (code, read_file "reshard.recover.err")
  in
  let has affix text = Astring.String.is_infix ~affix text in
  let code, err = recover 4 in
  Alcotest.(check int) "the same --shards recovers" 0 code;
  Alcotest.(check bool) "every client's verdict checked" true
    (has "-- 8 recovered verdicts checked" err);
  let code, err = recover 2 in
  Alcotest.(check int) "fewer shards exit code" 2 code;
  Alcotest.(check bool) "fewer shards name a journal left out" true
    (has "reshard.journal.2 exists" err);
  let code, err = recover 8 in
  Alcotest.(check int) "more shards exit code" 2 code;
  Alcotest.(check bool) "more shards name a missing journal" true
    (has "reshard.journal.4 is missing" err);
  serve_clients ~force:[ "--force" ] 2;
  Alcotest.(check bool) "the 4-shard set's extra files removed" false
    (Sys.file_exists (file 2) || Sys.file_exists (file 3));
  let code, err = recover 2 in
  Alcotest.(check int) "the forced 2-shard set recovers" 0 code;
  Alcotest.(check bool) "every client's verdict checked at 2 shards" true
    (has "-- 8 recovered verdicts checked" err)

(* `serve --connect` against a listener that reads the first request
   and hangs up: a diagnostic and exit 1, not an uncaught exception. *)
let test_connect_server_vanishes () =
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lsock 8;
  (* bounds the accept below, should the driver never connect *)
  Unix.setsockopt_float lsock Unix.SO_RCVTIMEO 5.0;
  let port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let fake =
    Domain.spawn (fun () ->
        match Unix.accept lsock with
        | fd, _ ->
            ignore (Unix.read fd (Bytes.create 4096) 0 4096);
            Unix.close fd
        | exception Unix.Unix_error _ -> ())
  in
  let code =
    Sys.command
      (Filename.quote_command susf
         [ "serve"; hotel; "--script"; churn_script; "--connect";
           Fmt.str "127.0.0.1:%d" port; "--conns"; "1" ]
         ~stdout:"/dev/null" ~stderr:"vanish.err")
  in
  Domain.join fake;
  Unix.close lsock;
  let requests =
    let spec = Syntax.Parser.spec_of_file hotel in
    match
      Broker.Script.parse
        ~hexpr_of_string:
          (Syntax.Parser.hexpr_of_string ~automata:spec.Syntax.Spec.automata)
        (read_file churn_script)
    with
    | Ok items ->
        List.length
          (List.filter
             (function Broker.Script.Submit _ -> true | _ -> false)
             items)
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check int) "exit code" 1 code;
  Alcotest.(check string) "diagnostic"
    (Fmt.str
       "--connect 127.0.0.1:%d: server closed the connection after 0 of %d \
        replies"
       port requests)
    (String.trim (read_file "vanish.err"))

let suite =
  [
    Alcotest.test_case "check valid plan" `Quick
      (check_exit 0 [ "check"; hotel; "-c"; "c1"; "-p"; "pi1" ]);
    Alcotest.test_case "serve replays the churn script" `Quick
      (check_exit 0 [ "serve"; hotel; "--script"; churn_script ]);
    Alcotest.test_case "serve rejects a missing script" `Quick
      (check_exit 124 [ "serve"; hotel; "--script"; "no-such.script" ]);
    Alcotest.test_case "serve obs and json outputs" `Quick test_serve_outputs;
    Alcotest.test_case "serve crash, guard, and recovery" `Quick
      test_serve_crash_recovery;
    Alcotest.test_case "serve rescue after live floor change" `Quick
      test_serve_rescue_floor_change;
    Alcotest.test_case "serve script diagnostics" `Quick
      test_serve_script_diagnostics;
    Alcotest.test_case "check invalid plan" `Quick
      (check_exit 1 [ "check"; hotel; "-c"; "c2"; "-p"; "pi1" ]);
    Alcotest.test_case "check json" `Quick
      (check_exit 0 [ "check"; hotel; "--json" ]);
    Alcotest.test_case "check-network" `Quick
      (check_exit 0 [ "check-network"; hotel; "both" ]);
    Alcotest.test_case "plans" `Quick (check_exit 0 [ "plans"; hotel ]);
    (* c1's own projection is ε (its session body is inside the open),
       so it trivially complies with the broker; two whole services
       facing each other both wait for input and are stuck *)
    Alcotest.test_case "compliance (yes)" `Quick
      (check_exit 0 [ "compliance"; hotel; "c1"; "br" ]);
    Alcotest.test_case "compliance (no)" `Quick
      (check_exit 1 [ "compliance"; hotel; "br"; "s2" ]);
    Alcotest.test_case "metrics snapshot holds no durations" `Quick
      test_metrics_hold_no_durations;
    Alcotest.test_case "subcontract" `Quick
      (check_exit 0 [ "subcontract"; hotel; "s2"; "s3" ]);
    Alcotest.test_case "validity" `Quick (check_exit 0 [ "validity"; hotel ]);
    Alcotest.test_case "simulate" `Quick
      (check_exit 0 [ "simulate"; hotel; "-c"; "c1"; "-p"; "pi1"; "--compact" ]);
    (* fault injection: no substitute for s3 in the hotel repo, so the
       run degrades (exit 1); the faulty mesh recovers through payC *)
    Alcotest.test_case "simulate faults degrade" `Quick
      (check_exit 1
         [ "simulate"; hotel; "-c"; "c1"; "-p"; "pi1";
           "--faults"; "crash:s3@4"; "--seed"; "1" ]);
    Alcotest.test_case "simulate faults json" `Quick
      (check_exit 1
         [ "simulate"; hotel; "-c"; "c1"; "-p"; "pi1";
           "--faults"; "crash:s3@4"; "--seed"; "1"; "--json" ]);
    Alcotest.test_case "simulate faults failover" `Quick
      (check_exit 0
         [ "simulate"; faulty_mesh; "-c"; "buyer"; "-p"; "primary";
           "--faults"; "crash:payA@3"; "--seed"; "1" ]);
    Alcotest.test_case "simulate bad fault spec" `Quick
      (check_exit 2 [ "simulate"; hotel; "--faults"; "boom:s3@4" ]);
    Alcotest.test_case "batch" `Quick
      (check_exit 0 [ "batch"; hotel; "-c"; "c1"; "-p"; "pi1"; "--runs"; "10" ]);
    Alcotest.test_case "coverage" `Quick
      (check_exit 0 [ "coverage"; hotel; "-c"; "c1"; "-p"; "pi1"; "--runs"; "5" ]);
    Alcotest.test_case "msc" `Quick
      (check_exit 0 [ "msc"; hotel; "-c"; "c1"; "-p"; "pi1" ]);
    Alcotest.test_case "cost" `Quick
      (check_exit 0 [ "cost"; hotel; "-c"; "c1"; "--model"; "sgn=1" ]);
    Alcotest.test_case "effects" `Quick (check_exit 0 [ "effects"; hotel ]);
    Alcotest.test_case "graph" `Quick
      (check_exit 0 [ "graph"; hotel; "c1"; "-p"; "pi1" ]);
    Alcotest.test_case "dot" `Quick (check_exit 0 [ "dot"; hotel; "c1"; "br" ]);
    Alcotest.test_case "dot-policy" `Quick
      (check_exit 0 [ "dot-policy"; hotel; "phi({s1},45,100)" ]);
    Alcotest.test_case "discover" `Quick
      (check_exit 0 [ "discover"; hotel; "idc!.(bok? + una?)" ]);
    Alcotest.test_case "diagnose (valid)" `Quick
      (check_exit 0 [ "diagnose"; hotel; "-c"; "c1"; "-p"; "pi1" ]);
    Alcotest.test_case "diagnose (invalid)" `Quick
      (check_exit 1 [ "diagnose"; hotel; "-c"; "c2"; "-p"; "pi1" ]);
    Alcotest.test_case "lint" `Quick (check_exit 0 [ "lint"; hotel ]);
    Alcotest.test_case "show" `Quick (check_exit 0 [ "show"; hotel ]);
    Alcotest.test_case "unknown file" `Quick
      (check_exit 124 [ "check"; "no-such-file.susf" ]);
    Alcotest.test_case "audit exit codes" `Quick test_audit_codes;
    Alcotest.test_case "trace and metrics outputs" `Quick test_obs_outputs;
    Alcotest.test_case "fmt round trip" `Quick test_fmt_reparses;
    Alcotest.test_case "serve --listen survives a client hanging up" `Quick
      test_serve_survives_hangup;
    Alcotest.test_case "serve --listen survives running out of descriptors"
      `Quick test_serve_survives_fd_limit;
    Alcotest.test_case "serve --listen: a client that never reads stalls no \
                        other"
      `Quick test_serve_survives_stalled_reader;
    Alcotest.test_case "an idle server does not poll" `Quick
      test_idle_server_sleeps;
    Alcotest.test_case "the poll window serves only a lone connection" `Quick
      test_poll_window_lone_connection;
    Alcotest.test_case "serve --connect reports a server that hangs up"
      `Quick test_connect_server_vanishes;
    Alcotest.test_case "integer overflow is a diagnostic" `Quick
      test_int_overflow;
    Alcotest.test_case "serve rejects out-of-range numbers" `Quick
      test_serve_bad_numbers;
    Alcotest.test_case "serve rejects flags its mode ignores" `Quick
      test_serve_ignored_flags;
    Alcotest.test_case "serve --recover needs the journals' --shards" `Quick
      test_recover_needs_same_shards;
    Alcotest.test_case "plans, broker and library climb one ladder" `Quick
      test_one_ladder;
    Alcotest.test_case "the ladder counts coalition declines" `Quick
      test_ladder_counts_declines;
    (* the mediation rung declines what the coalition rung cannot vouch
       for, too: no corpus expectation covers that rung *)
    Alcotest.test_case "coalition security declines (--mediate)" `Quick
      (check_exit 1 [ "plans"; "corpus/coalition_security.susf"; "--mediate" ]);
  ]
