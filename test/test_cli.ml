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

let test_fmt_reparses () =
  (* susf fmt output must be accepted by susf check *)
  let code =
    Sys.command
      (Filename.quote_command susf [ "fmt"; hotel ]
      ^ " > roundtrip.susf 2> /dev/null")
  in
  Alcotest.(check int) "fmt succeeds" 0 code;
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
    Alcotest.test_case "integer overflow is a diagnostic" `Quick
      test_int_overflow;
    Alcotest.test_case "serve rejects out-of-range numbers" `Quick
      test_serve_bad_numbers;
  ]
