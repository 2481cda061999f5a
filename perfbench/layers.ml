(* The per-layer metrics of the traced run. Each workload's inputs are
   replayed twice in this process: once bare, with metrics off, and once
   traced, with Obs.Metrics installed and a span around every layer call;
   their wall times give trace.overhead_ratio, and their outputs must
   agree. The layers the workload's own path never reaches (the repair
   rungs on a socket workload, the serving path on cli-repair) are then
   timed by a probe on the same inputs, with its own metrics registry. *)

type t = {
  attempted : int;
  failed : int;
  human : string list;
  metrics : Report.metric list;
}

let timed f =
  let t0 = Proc.now () in
  let r = f () in
  (r, Proc.now () -. t0)

let counter (s : Obs.Metrics.snapshot) name =
  Option.value ~default:0 (List.assoc_opt name s.Obs.Metrics.counters)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* `susf` loads its spec with [Syntax.Parser.spec_of_file]: the median of
   a few parses, and the file's size. *)
let spec_parse file =
  let times =
    Array.init 5 (fun _ -> snd (timed (fun () -> Syntax.Parser.spec_of_file file)))
  in
  (Report.median times *. 1e6, String.length (Proc.read_file file))

let write_all_spans ~dir tracers =
  let path = Filename.concat dir "spans.tsv" in
  List.iteri
    (fun i tr -> Traced.write_spans tr (Printf.sprintf "%s.%d" path i))
    tracers

(* Every per-layer metric. [path] is the registry of the workload's own
   replay, [probe] the registry of the off-path probe; [on_path] names
   which counters the replay owns. [stage_us] is the untraced replay's
   wall time per request; transport is what the end-to-end mean adds to
   it (socket, shard queue and domain handoff; process start and output
   for the CLI). *)
let metrics ~self ~path ~probe ~on_path ~replayed ~spec_us ~spec_bytes
    ~mean_us ~stage_us ~overhead ~controllers ~misses_base =
  let calls name = fst (Option.value ~default:(0, 0.0) (Hashtbl.find_opt self name)) in
  let us_per_call name =
    match Hashtbl.find_opt self name with
    | Some (n, s) when n > 0 -> s *. 1e6 /. float_of_int n
    | _ -> 0.0
  in
  let c name =
    counter (if on_path name then path else probe) name
  in
  let count name = Report.m name "count" (float_of_int (c name)) in
  let us name = Report.m (name ^ ".us_per_call") "us" (us_per_call name) in
  let n_calls name = Report.m (name ^ ".calls") "count" (float_of_int (calls name)) in
  let hits = c "broker.cache.hit" and misses = c "broker.cache.miss" in
  [
    n_calls "script.parse"; us "script.parse";
    n_calls "engine.hit"; us "engine.hit";
    n_calls "engine.miss"; us "engine.miss";
    n_calls "engine.other"; us "engine.other";
    count "broker.cache.hit"; count "broker.cache.miss";
    Report.m "index.hit_ratio" "ratio" (ratio hits (hits + misses));
    count "broker.invalidations";
    us "journal.append"; us "journal.flush";
    count "broker.journal.appends"; count "broker.journal.group_commit.flushes";
    Report.m "journal.bytes_per_request" "B"
      (ratio (c "broker.journal.bytes") (calls "script.parse"));
    us "reply.render";
    Report.m "latency.mean_us" "us" mean_us;
    Report.m "stage.sum_us" "us" stage_us;
    Report.m "transport.us_per_request" "us" (mean_us -. stage_us);
    count "planner.analyze.calls";
    Report.m "planner.analyze.calls_per_miss" "ratio"
      (ratio (c "planner.analyze.calls") misses_base);
    count "planner.compliance_cache.hits"; count "planner.compliance_cache.misses";
    count "product.surveys"; count "netcheck.states.explored";
    count "validity.policy_steps";
    count "compile.lowerings"; count "compile.tables.hits";
    count "compile.tables.misses"; count "compile.minimize.shared";
    count "compile.policy_rows.grounded";
    count "contract.intern.hits"; count "contract.intern.misses";
    count "contract.transitions.hits"; count "contract.transitions.misses";
    count "repr.cache.invalidations";
    Report.m "spec.parse.us" "us" spec_us;
    Report.m "spec.bytes" "B" (float_of_int spec_bytes);
    Report.m "orchestrate.us_per_client" "us" (us_per_call "orchestrate");
    count "orchestration.coalitions.explored";
    count "orchestration.product.states.built";
    Report.m "orchestration.controller_ratio" "ratio"
      (ratio controllers (c "orchestration.coalitions.explored"));
    Report.m "mediator.heal.us_per_client" "us" (us_per_call "mediator.heal");
    count "mediator.synthesis.runs"; count "mediator.synthesis.declined";
    Report.m "mediator.heal_ratio" "ratio"
      (ratio (c "mediator.healed") (c "mediator.synthesis.runs"));
    Report.m "trace.overhead_ratio" "ratio" overhead;
    Report.m "replay.requests" "count" (float_of_int replayed);
  ]

let merge_self tracers =
  let all = Hashtbl.create 16 in
  List.iter
    (fun tr ->
      Hashtbl.iter
        (fun name (n, s) ->
          let n0, s0 = Option.value ~default:(0, 0.0) (Hashtbl.find_opt all name) in
          Hashtbl.replace all name (n0 + n, s0 +. s))
        (Traced.self_times tr))
    tracers;
  all

(* Up to [cap] request lines, interleaving the connections' streams in
   turn (each stream is client-affine, so per-client order holds). *)
let interleave ~cap (streams : string array array) =
  let out = ref [] and n = ref 0 and k = ref 0 in
  let longest = Array.fold_left (fun a s -> max a (Array.length s)) 0 streams in
  while !n < cap && !k < longest do
    Array.iter
      (fun s ->
        if !n < cap && !k < Array.length s then begin
          out := s.(!k) :: !out;
          incr n
        end)
      streams;
    incr k
  done;
  Array.of_list (List.rev !out)

let replay_cap = 20_000
let probe_clients = 4

(* ---- the socket workloads ---------------------------------------------- *)

let serve ~dir ~shards ~(load : Gen.serve_load) ~spec ~mean_us =
  let spec_us, spec_bytes = spec_parse spec in
  let repo = load.Gen.repo in
  let lines = interleave ~cap:replay_cap load.Gen.lines in
  Obs.Metrics.uninstall ();
  let plain, plain_s =
    timed (fun () ->
        Traced.serve_replay (Traced.tracer false) ~dir ~shards ~repo lines)
  in
  Obs.Metrics.install ();
  let tr = Traced.tracer true in
  let traced, traced_s =
    timed (fun () -> Traced.serve_replay tr ~dir ~shards ~repo lines)
  in
  let path = Obs.Metrics.snapshot () in
  (* the repair rungs, on the workload's first distinct client bodies *)
  let clients =
    Array.fold_left
      (fun acc stream ->
        Array.fold_left
          (fun acc r ->
            match r with
            | Broker.Open { client; body }
              when List.length acc < probe_clients
                   && not (List.exists (fun (_, b) -> Core.Hexpr.equal b body) acc)
              ->
                acc @ [ (client, body) ]
            | _ -> acc)
          acc stream)
      [] load.Gen.requests
  in
  Obs.Metrics.install ();
  let pr = Traced.tracer true in
  Traced.repair_rungs pr ~repo clients;
  let probe = Obs.Metrics.snapshot () in
  Obs.Metrics.uninstall ();
  write_all_spans ~dir [ tr; pr ];
  let diverged = ref 0 in
  Array.iteri (fun i l -> if not (String.equal l plain.(i)) then incr diverged) traced;
  let self = merge_self [ tr; pr ] in
  let on_path name =
    not
      (String.starts_with ~prefix:"orchestration." name
      || String.starts_with ~prefix:"mediator." name)
  in
  {
    attempted = Array.length lines;
    failed = !diverged;
    human =
      [
        Printf.sprintf
          "traced replay: %d requests in one domain over %d engine(s), %d \
           replies differing from the untraced replay; repair rungs probed \
           on %d client bodies"
          (Array.length lines) shards !diverged (List.length clients);
        Printf.sprintf "index.hit_ratio base: %d serves"
          (counter path "broker.cache.hit" + counter path "broker.cache.miss");
      ];
    metrics =
      metrics ~self ~path ~probe ~on_path ~replayed:(Array.length lines)
        ~spec_us ~spec_bytes ~mean_us
        ~stage_us:(plain_s *. 1e6 /. float_of_int (Array.length lines))
        ~overhead:(traced_s /. plain_s) ~controllers:pr.Traced.controllers
        ~misses_base:(counter path "broker.cache.miss");
  }

(* ---- the one-shot repair CLI ------------------------------------------- *)

let repair ~dir ~(spec : Gen.repair_spec) ~file ~oracle ~wall_s =
  let spec_us, spec_bytes = spec_parse file in
  let repo = spec.Gen.services and clients = spec.Gen.clients in
  Obs.Metrics.uninstall ();
  let plain, plain_s =
    timed (fun () -> Traced.ladder (Traced.tracer false) ~repo clients)
  in
  Obs.Metrics.install ();
  let tr = Traced.tracer true in
  let traced, traced_s = timed (fun () -> Traced.ladder tr ~repo clients) in
  let path = Obs.Metrics.snapshot () in
  (* the serving path on the same clients: open each, serve each twice *)
  let line r = Broker.Script.request_line ~hexpr_to_string:Gen.hexpr_to_string r in
  let lines =
    Array.of_list
      (List.map (fun (client, body) -> line (Broker.Open { client; body })) clients
      @ List.concat_map
          (fun _ -> List.map (fun (client, _) -> line (Broker.Serve { client })) clients)
          [ 1; 2 ])
  in
  Obs.Metrics.install ();
  let pr = Traced.tracer true in
  ignore (Traced.serve_replay pr ~dir ~shards:1 ~repo lines);
  let probe = Obs.Metrics.snapshot () in
  Obs.Metrics.uninstall ();
  write_all_spans ~dir [ tr; pr ];
  let off rungs =
    List.fold_left2 (fun n (_, want) got -> if want = got then n else n + 1) 0 oracle rungs
  in
  let failed = off plain + off traced in
  let self = merge_self [ tr; pr ] in
  let on_path name =
    not
      (String.starts_with ~prefix:"broker." name)
  in
  let n = List.length clients in
  {
    attempted = 2 * n;
    failed;
    human =
      [
        Printf.sprintf
          "traced ladder: %d clients in one domain, %d rungs off the oracle; \
           serving path probed with %d request lines"
          n failed (Array.length lines);
      ];
    metrics =
      metrics ~self ~path ~probe ~on_path ~replayed:n ~spec_us ~spec_bytes
        ~mean_us:(wall_s *. 1e6 /. float_of_int n)
        ~stage_us:(plain_s *. 1e6 /. float_of_int n)
        ~overhead:(traced_s /. plain_s)
        ~controllers:tr.Traced.controllers ~misses_base:n;
  }
