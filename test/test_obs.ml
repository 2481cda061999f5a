(* The observability layer (lib/obs + Reports.Obs_encode): sinks must
   never change an observable result, spans must nest and be
   deterministic, histograms must bucket correctly, and the trace_event
   encoder must produce what Perfetto expects. *)

open Core
module Trace = Obs.Trace
module Metrics = Obs.Metrics

let no_sinks () =
  Trace.uninstall ();
  Metrics.uninstall ()

let with_sinks f =
  Trace.install ();
  Metrics.install ();
  Fun.protect ~finally:no_sinks f

(* -- sink identity: instrumentation changes nothing observable ----- *)

let render_trace t = Fmt.str "%a" Simulate.pp_trace t

let prop_simulate_sink_identity =
  QCheck.Test.make ~count:60
    ~name:"sinks do not change Simulate.run results"
    (QCheck.pair Testkit.Generators.hexpr_arb Testkit.Generators.hexpr_arb)
    (fun (h1, h2) ->
      no_sinks ();
      List.for_all
        (fun seed ->
          let go () =
            Simulate.run ~max_steps:200 []
              (Network.initial [ ("l1", h1); ("l2", h2) ])
              (Simulate.random ~seed)
          in
          let plain = render_trace (go ()) in
          let observed = with_sinks (fun () -> render_trace (go ())) in
          String.equal plain observed)
        [ 1; 2; 3 ])

let render_report r = Fmt.str "%a" Planner.pp_report r

let prop_planner_sink_identity =
  QCheck.Test.make ~count:60
    ~name:"sinks do not change Planner.analyze verdicts"
    Testkit.Generators.hexpr_arb
    (fun h ->
      no_sinks ();
      let repo = Scenarios.Hotel.repo in
      let client = ("c", h) in
      List.for_all
        (fun plan ->
          let go () = Planner.analyze repo ~client plan in
          let plain = render_report (go ()) in
          let observed = with_sinks (fun () -> render_report (go ())) in
          String.equal plain observed)
        [ Plan.empty; Scenarios.Hotel.plan1; Scenarios.Hotel.plan2_s4 ])

let test_runtime_sink_identity () =
  let clients =
    [ (Fixture.(plan redundant "pi1"), ("c1", Fixture.(client redundant "c1"))) ]
  in
  let faults =
    match Runtime.Faults.parse "crash:s3@4" with
    | Ok f -> f
    | Error e -> Alcotest.fail e
  in
  let go () =
    let r =
      Runtime.Engine.run ~seed:7 ~faults (Syntax.Spec.repo Fixture.redundant)
        clients
        (Simulate.random ~seed:7)
    in
    Fmt.str "%a%a" Simulate.pp_trace r.Runtime.Engine.trace
      Runtime.Engine.pp_report r
  in
  no_sinks ();
  let plain = go () in
  let observed = with_sinks (fun () -> go ()) in
  Alcotest.(check string) "identical recovery report" plain observed

(* -- span structure ------------------------------------------------ *)

let test_span_nesting () =
  Trace.install ();
  let r =
    Trace.with_span "outer" (fun () ->
        Trace.with_span "inner" (fun () -> 41) + 1)
  in
  Trace.uninstall ();
  Alcotest.(check int) "result threads through" 42 r;
  match Trace.spans () with
  | [ inner; outer ] ->
      Alcotest.(check string) "post-order: inner first" "inner" inner.Trace.name;
      Alcotest.(check string) "outer last" "outer" outer.Trace.name;
      Alcotest.(check (option int))
        "inner's parent is outer" (Some outer.Trace.id) inner.Trace.parent;
      Alcotest.(check (option int)) "outer is a root" None outer.Trace.parent;
      Alcotest.(check bool) "outer brackets inner" true
        (outer.Trace.start < inner.Trace.start
        && inner.Trace.stop < outer.Trace.stop)
  | spans ->
      Alcotest.failf "expected exactly two spans, got %d" (List.length spans)

let test_span_exception_safe () =
  Trace.install ();
  (try Trace.with_span "boom" (fun () -> failwith "boom") with Failure _ -> ());
  Trace.uninstall ();
  match Trace.spans () with
  | [ s ] ->
      Alcotest.(check string) "span recorded despite raise" "boom" s.Trace.name;
      Alcotest.(check bool) "closed" true (s.Trace.stop > s.Trace.start)
  | spans ->
      Alcotest.failf "expected exactly one span, got %d" (List.length spans)

let test_span_attrs () =
  Trace.install ();
  Trace.with_span ~attrs:[ ("k", Trace.Int 1) ] "s" (fun () ->
      Trace.add_attr "l" (Trace.Str "v"));
  Trace.uninstall ();
  match Trace.spans () with
  | [ s ] ->
      Alcotest.(check bool) "static attr kept" true
        (List.mem_assoc "k" s.Trace.attrs);
      Alcotest.(check bool) "dynamic attr kept" true
        (List.mem_assoc "l" s.Trace.attrs)
  | _ -> Alcotest.fail "expected one span"

let test_noop_when_uninstalled () =
  no_sinks ();
  let r = Trace.with_span "ghost" (fun () -> 7) in
  Trace.add_attr "ignored" (Trace.Bool true);
  Metrics.incr "ghost.counter";
  Alcotest.(check int) "thunk still runs" 7 r;
  Alcotest.(check bool) "trace inactive" false (Trace.active ());
  Alcotest.(check bool) "metrics inactive" false (Metrics.active ())

let test_trace_determinism () =
  let go () =
    Trace.install ();
    ignore
      (Planner.analyze Scenarios.Hotel.repo
         ~client:("c1", Scenarios.Hotel.client1)
         Scenarios.Hotel.plan1);
    let spans = Trace.spans () in
    Trace.uninstall ();
    spans
  in
  let a = go () and b = go () in
  Alcotest.(check bool) "two runs, identical spans" true (a = b);
  Alcotest.(check bool) "non-empty" true (a <> [])

(* The worked example of docs/OBSERVABILITY.md: run its snippet and
   check the listing it shows (but for its [...] lines, and up to column
   alignment) against the spans printed, in order, and every
   [`counter = N`] its prose quotes against the run's metrics. The
   listing is read from the doc, so the doc cannot drift again. *)
let test_worked_failover_trace () =
  let doc =
    In_channel.with_open_text "../docs/OBSERVABILITY.md" In_channel.input_all
  in
  let lines = String.split_on_char '\n' doc in
  let rec from_heading = function
    | [] -> Alcotest.fail "no worked example in docs/OBSERVABILITY.md"
    | l :: rest ->
        if String.starts_with ~prefix:"## Worked example" l then rest
        else from_heading rest
  in
  let section =
    let rec take acc = function
      | l :: rest when not (String.starts_with ~prefix:"## " l) ->
          take (l :: acc) rest
      | _ -> List.rev acc
    in
    take [] (from_heading lines)
  in
  let listing =
    let rec skip = function
      | [] -> Alcotest.fail "no text listing in the worked example"
      | l :: rest -> if String.equal l "```text" then rest else skip rest
    in
    let rec take acc = function
      | l :: rest when not (String.starts_with ~prefix:"```" l) ->
          take (l :: acc) rest
      | _ -> List.rev acc
    in
    take [] (skip section)
  in
  let squeeze l =
    String.split_on_char ' ' l
    |> List.filter (fun w -> w <> "")
    |> String.concat " "
  in
  let spec = Syntax.Parser.spec_of_file "corpus/redundant.susf" in
  let c1 = Option.get (Syntax.Spec.find_client spec "c1") in
  let pi1 = Option.get (Syntax.Spec.find_plan spec "pi1") in
  let printed, counters =
    with_sinks (fun () ->
        ignore
          (Runtime.Engine.run
             ~faults:[ Runtime.Faults.at 4 (Runtime.Faults.Crash "s3") ]
             (Syntax.Spec.repo spec)
             [ (pi1, ("c1", c1)) ]
             Simulate.first);
        ( List.map (Fmt.str "%a" Trace.pp_span) (Trace.spans ()),
          (Metrics.snapshot ()).Metrics.counters ))
  in
  let shown = List.filter (fun l -> l <> "...") (List.map squeeze listing) in
  Alcotest.(check bool) "the listing shows spans" true (List.length shown > 5);
  let rec in_order shown printed =
    match (shown, printed) with
    | [], _ -> ()
    | l :: _, [] -> Alcotest.failf "listing line not printed (in order): %s" l
    | l :: rest, p :: more ->
        if String.equal l p then in_order rest more else in_order shown more
  in
  in_order shown (List.map squeeze printed);
  let quoted =
    String.split_on_char '`' (String.concat "\n" section)
    |> List.filteri (fun i _ -> i mod 2 = 1)
    |> List.filter_map (fun code ->
           match String.split_on_char ' ' code with
           | [ name; "="; n ] ->
               Option.map (fun n -> (name, n)) (int_of_string_opt n)
           | _ -> None)
  in
  Alcotest.(check int) "the prose quotes four counters" 4 (List.length quoted);
  List.iter
    (fun (name, n) ->
      Alcotest.(check (option int)) name (Some n) (List.assoc_opt name counters))
    quoted

(* -- histograms ---------------------------------------------------- *)

let test_bucket_index () =
  let bounds = Metrics.default_bounds in
  let overflow = Array.length bounds in
  List.iter
    (fun (v, expected) ->
      Alcotest.(check int) (Printf.sprintf "bucket of %d" v) expected
        (Metrics.bucket_index ~bounds v))
    [
      (0, 0); (1, 0); (2, 1); (3, 2); (4, 2); (5, 3); (1024, 10);
      (1025, 11); (65536, overflow - 1); (65537, overflow);
      (max_int, overflow);
    ]

let test_observe_bucketing () =
  Metrics.install ();
  Metrics.observe "h" 1;
  Metrics.observe "h" 3;
  Metrics.observe "h" 100_000;
  Metrics.observe ~bounds:[| 10; 20 |] "custom" 15;
  let snap = Metrics.snapshot () in
  Metrics.uninstall ();
  let h = List.assoc "h" snap.Metrics.histograms in
  Alcotest.(check int) "count" 3 h.Metrics.count;
  Alcotest.(check int) "sum" 100_004 h.Metrics.sum;
  Alcotest.(check int) "max" 100_000 h.Metrics.max_value;
  Alcotest.(check int) "one bucket per edge plus overflow"
    (Array.length Metrics.default_bounds + 1)
    (List.length h.Metrics.counts);
  Alcotest.(check int) "1 lands in bucket 0" 1 (List.nth h.Metrics.counts 0);
  Alcotest.(check int) "3 lands in bucket 2" 1 (List.nth h.Metrics.counts 2);
  Alcotest.(check int) "100000 overflows" 1
    (List.nth h.Metrics.counts (Array.length Metrics.default_bounds));
  let c = List.assoc "custom" snap.Metrics.histograms in
  Alcotest.(check (list int)) "custom bounds honoured" [ 10; 20 ]
    c.Metrics.bounds;
  Alcotest.(check (list int)) "15 in (10,20]" [ 0; 1; 0 ] c.Metrics.counts

let test_counters_and_gauges () =
  Metrics.install ();
  Metrics.incr "c";
  Metrics.add "c" 4;
  Metrics.set "g" 9;
  Metrics.set_max "g" 3;
  Metrics.set_max "g" 12;
  let snap = Metrics.snapshot () in
  Metrics.uninstall ();
  Alcotest.(check int) "counter accumulates" 5
    (List.assoc "c" snap.Metrics.counters);
  Alcotest.(check int) "gauge high-water mark" 12
    (List.assoc "g" snap.Metrics.gauges)

(* -- JSON encoders ------------------------------------------------- *)

let assoc_exn k = function
  | Reports.Json.Obj fields -> List.assoc k fields
  | _ -> Alcotest.failf "expected an object with field %S" k

let test_trace_event_encoding () =
  let span =
    {
      Trace.id = 3;
      parent = Some 1;
      name = "planner.analyze";
      start = 10;
      stop = 14;
      attrs = [ ("client", Trace.Str "c1"); ("ok", Trace.Bool true) ];
    }
  in
  let j = Reports.Obs_encode.trace_event span in
  Alcotest.(check bool) "ph is a complete event" true
    (assoc_exn "ph" j = Reports.Json.String "X");
  Alcotest.(check bool) "ts is the start tick" true
    (assoc_exn "ts" j = Reports.Json.Int 10);
  Alcotest.(check bool) "dur is the tick extent" true
    (assoc_exn "dur" j = Reports.Json.Int 4);
  Alcotest.(check bool) "name" true
    (assoc_exn "name" j = Reports.Json.String "planner.analyze");
  let args = assoc_exn "args" j in
  Alcotest.(check bool) "parent in args" true
    (assoc_exn "parent" args = Reports.Json.Int 1);
  Alcotest.(check bool) "attrs in args" true
    (assoc_exn "client" args = Reports.Json.String "c1"
    && assoc_exn "ok" args = Reports.Json.Bool true);
  match Reports.Obs_encode.trace_events [ span; span ] with
  | Reports.Json.List [ _; _ ] -> ()
  | _ -> Alcotest.fail "trace_events must be a JSON array"

let test_metrics_encoding () =
  Metrics.install ();
  Metrics.incr "a.b";
  Metrics.observe "a.h" 5;
  let j = Reports.Obs_encode.metrics (Metrics.snapshot ()) in
  Metrics.uninstall ();
  Alcotest.(check bool) "counter encoded" true
    (assoc_exn "a.b" (assoc_exn "counters" j) = Reports.Json.Int 1);
  let h = assoc_exn "a.h" (assoc_exn "histograms" j) in
  Alcotest.(check bool) "histogram count encoded" true
    (assoc_exn "count" h = Reports.Json.Int 1);
  (* the whole snapshot must be serialisable *)
  Alcotest.(check bool) "prints" true
    (String.length (Reports.Json.to_string j) > 0)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_simulate_sink_identity;
    QCheck_alcotest.to_alcotest prop_planner_sink_identity;
    Alcotest.test_case "sink identity: runtime recovery" `Quick
      test_runtime_sink_identity;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span survives exceptions" `Quick
      test_span_exception_safe;
    Alcotest.test_case "span attributes" `Quick test_span_attrs;
    Alcotest.test_case "no-op without a sink" `Quick test_noop_when_uninstalled;
    Alcotest.test_case "traces are deterministic" `Quick test_trace_determinism;
    Alcotest.test_case "bucket_index" `Quick test_bucket_index;
    Alcotest.test_case "observe bucketing" `Quick test_observe_bucketing;
    Alcotest.test_case "counters and gauges" `Quick test_counters_and_gauges;
    Alcotest.test_case "trace_event encoding" `Quick test_trace_event_encoding;
    Alcotest.test_case "metrics encoding" `Quick test_metrics_encoding;
    Alcotest.test_case "worked failover trace matches the doc" `Quick
      test_worked_failover_trace;
  ]
