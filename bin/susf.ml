(* susf — secure and unfailing services: command-line front end.

   Subcommands:
     check      validate clients against plans (compliance + security)
     plans      enumerate all plans for a client, with verdicts
     compliance check two repository services for compliance
     validity   static validity of a client (direct and BPA engines)
     simulate   run the network and print a Fig.3-style trace
     dot        export a compliance product automaton to DOT
     show       pretty-print a parsed specification *)

open Cmdliner

let load file =
  try Syntax.Parser.spec_of_file file with
  | Syntax.Parser.Error (msg, line, col) ->
      Fmt.epr "%s:%d:%d: %s@." file line col msg;
      exit 2
  | Sys_error msg ->
      Fmt.epr "%s@." msg;
      exit 2

let client_of spec name =
  match Syntax.Spec.find_client spec name with
  | Some h -> (name, h)
  | None ->
      Fmt.epr "unknown client %s@." name;
      exit 2

let plan_of spec name =
  match Syntax.Spec.find_plan spec name with
  | Some p -> p
  | None ->
      Fmt.epr "unknown plan %s@." name;
      exit 2

let service_of spec name =
  match List.assoc_opt name (Syntax.Spec.repo spec) with
  | Some h -> h
  | None ->
      Fmt.epr "unknown service %s@." name;
      exit 2

(* a client of that name or, failing that, a service *)
let party_of spec name =
  match Syntax.Spec.find_client spec name with
  | Some h -> h
  | None -> service_of spec name

(* the party's contract; a body that projects to none (a [<+>] whose
   branches talk differently) is a usage error, not a crash *)
let contract_of spec name =
  match Core.Contract.project (party_of spec name) with
  | c -> c
  | exception Core.Contract.Unprojectable reason ->
      Fmt.epr "%s is outside the contract fragment: %s@." name reason;
      exit 2

(* a walk past its state bound is a diagnostic about that name, not a
   crash *)
let within_state_limit file name f =
  try f ()
  with Automata.Bfs.State_limit n ->
    Fmt.epr "%s: %s: more than %d reachable states@." file name n;
    exit 2

(* --- common arguments --- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Specification (.susf) file.")

let client_arg =
  Arg.(value & opt (some string) None & info [ "client"; "c" ] ~docv:"NAME" ~doc:"Client to analyse (default: every client).")

let plan_arg =
  Arg.(value & opt (some string) None & info [ "plan"; "p" ] ~docv:"NAME" ~doc:"Named plan to use (default: enumerate).")

let clients spec = function
  | Some name -> [ client_of spec name ]
  | None -> spec.Syntax.Spec.clients

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON output.")

let party_arg n =
  Arg.(required & pos n (some string) None & info [] ~docv:"SERVICE" ~doc:"Service or client name.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a span trace of the analysis and write it to $(docv) in \
           Chrome trace_event JSON (loadable in Perfetto or \
           chrome://tracing). Timestamps are deterministic logical ticks, \
           not wall time. See docs/OBSERVABILITY.md.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Collect metrics (counters, gauges, histograms) during the run and \
           write a JSON snapshot to $(docv). See docs/OBSERVABILITY.md.")

(* Install the requested observability sinks, run the command body (which
   returns the exit code instead of calling [exit]), flush the JSON
   files, and only then exit. *)
let with_obs ~trace ~metrics f =
  if trace <> None then Obs.Trace.install ();
  if metrics <> None then Obs.Metrics.install ();
  let code = f () in
  let dump file json =
    Out_channel.with_open_text file (fun oc ->
        Out_channel.output_string oc (Reports.Json.to_string json);
        Out_channel.output_char oc '\n')
  in
  Option.iter
    (fun file -> dump file (Reports.Obs_encode.trace_events (Obs.Trace.spans ())))
    trace;
  Option.iter
    (fun file -> dump file (Reports.Obs_encode.metrics (Obs.Metrics.snapshot ())))
    metrics;
  exit code

(* --- check --- *)

let report_exit ok = if ok then exit 0 else exit 1

let check_cmd =
  let run file client plan_name json trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    let spec = load file in
    let repo = Syntax.Spec.repo spec in
    let ok = ref true in
    let results = ref [] in
    List.iter
      (fun (name, h) ->
        let reports =
          match plan_name with
          | Some pn ->
              [ Core.Planner.analyze repo ~client:(name, h) (plan_of spec pn) ]
          | None -> Core.Planner.valid_plans ~all:false repo ~client:(name, h)
        in
        if reports = [] || List.exists (fun r -> Result.is_error r.Core.Planner.verdict) reports
        then ok := false;
        if json then
          results :=
            (name, Reports.Json.List (List.map Reports.Encode.planner_report reports))
            :: !results
        else if reports = [] then Fmt.pr "%s: NO valid plan@." name
        else
          List.iter
            (fun r -> Fmt.pr "%s: %a@." name Core.Planner.pp_report r)
            reports)
      (clients spec client);
    if json then Fmt.pr "%a@." Reports.Json.pp (Reports.Json.Obj (List.rev !results));
    if !ok then 0 else 1
  in
  let doc = "Verify clients: secure (validity) and unfailing (compliance)." in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const run $ file_arg $ client_arg $ plan_arg $ json_arg $ trace_arg
      $ metrics_arg)

(* --- check-network --- *)

let check_network_cmd =
  let name_arg =
    Arg.(value & pos 1 (some string) None & info [] ~docv:"NETWORK" ~doc:"Network name (default: every declared network).")
  in
  let run file name =
    let spec = load file in
    let repo = Syntax.Spec.repo spec in
    let selected =
      match name with
      | Some n -> [ n ]
      | None -> List.map fst spec.Syntax.Spec.networks
    in
    if selected = [] then begin
      Fmt.epr "no networks declared@.";
      exit 2
    end;
    let ok = ref true in
    List.iter
      (fun n ->
        match Syntax.Spec.resolve_network spec n with
        | Error msg ->
            ok := false;
            Fmt.pr "%s: %s@." n msg
        | Ok vector -> (
            match Core.Netcheck.check repo vector with
            | Core.Netcheck.Valid stats ->
                Fmt.pr "%s: VALID (%d abstract states)@." n
                  stats.Core.Netcheck.states
            | Core.Netcheck.Invalid stuck ->
                ok := false;
                Fmt.pr "%s: invalid — %a@." n Core.Netcheck.pp_stuck stuck))
      selected;
    report_exit !ok
  in
  let doc = "Verify a declared plan vector (~π): every client under its plan." in
  Cmd.v (Cmd.info "check-network" ~doc) Term.(const run $ file_arg $ name_arg)

(* --- plans --- *)

let plans_cmd =
  let orchestrate_arg =
    Arg.(
      value & flag
      & info [ "orchestrate" ]
          ~doc:
            "For clients with no valid 1:1 plan, fall back to the \
             orchestration tier: per request, synthesize the \
             most-permissive controller over a coalition of repository \
             services and re-verify it (lib/orchestration). A no-op — \
             byte-identical output — when a valid plan exists. Exits 1 \
             when some client gets neither a valid plan nor an \
             orchestrator.")
  in
  let mediate_arg =
    Arg.(
      value & flag
      & info [ "mediate" ]
          ~doc:
            "Run the full repair ladder for clients with no valid 1:1 \
             plan: coalition synthesis first (as $(b,--orchestrate)), \
             then mediator synthesis (lib/mediator) — a bounded-buffer \
             adapter that reorders, buffers, or renames within policy, \
             re-verified through the strict pipeline. Prints the \
             synthesized mediator and which stuck configuration each \
             repair step discharges. A no-op — byte-identical output — \
             when a valid plan exists. Exits 1 when some client gets \
             neither a plan, nor a coalition, nor a mediator.")
  in
  let run file client orchestrate mediate trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    let spec = load file in
    let repo = Syntax.Spec.repo spec in
    let ok = ref true in
    List.iter
      (fun (name, h) ->
        Fmt.pr "client %s:@." name;
        let reports = Core.Planner.valid_plans ~all:true repo ~client:(name, h) in
        List.iter (fun r -> Fmt.pr "  %a@." Core.Planner.pp_report r) reports;
        if
          (orchestrate || mediate)
          && not
               (List.exists
                  (fun r -> Result.is_ok r.Core.Planner.verdict)
                  reports)
        then
          match Mediator.Repair.climb ~mediate repo ~client:(name, h) with
          | Mediator.Repair.Orchestrated o ->
              List.iter
                (fun (c : Orchestration.Orchestrate.coalition) ->
                  Fmt.pr "  %a@." Orchestration.Orchestrate.pp_coalition c;
                  match Orchestration.Controller.verify c.controller with
                  | Ok () ->
                      Fmt.pr "  controller re-verified: agreement holds@."
                  | Error e ->
                      ok := false;
                      Fmt.pr "  controller FAILED re-verification: %s@." e)
                o.Orchestration.Orchestrate.coalitions
          | Mediator.Repair.Mediated m ->
              List.iter
                (fun (h : Mediator.Repair.healed) ->
                  Fmt.pr "  request %d: mediated %s via %s@." h.rid h.service
                    h.adapter_loc;
                  Fmt.pr "    %a@." Mediator.Synthesis.pp_mediator h.mediator;
                  List.iter
                    (fun s -> Fmt.pr "    %a@." Mediator.Synthesis.pp_step s)
                    h.mediator.Mediator.Synthesis.steps)
                m.Mediator.Repair.healed;
              List.iter
                (fun (rid, loc) ->
                  Fmt.pr "  request %d: bound directly to %s@." rid loc)
                m.Mediator.Repair.direct;
              Fmt.pr
                "  mediated triple re-verified: strict compliance + netcheck \
                 hold@."
          | Mediator.Repair.Declined { coalition; mediation } ->
              ok := false;
              Fmt.pr "  %a@." Orchestration.Orchestrate.pp_declined coalition;
              Option.iter (Fmt.pr "  %a@." Mediator.Repair.pp_declined) mediation
          | Mediator.Repair.Planned _ -> ())
      (clients spec client);
    if (not (orchestrate || mediate)) || !ok then 0 else 1
  in
  let doc = "Enumerate all plans and their verdicts." in
  Cmd.v (Cmd.info "plans" ~doc)
    Term.(
      const run $ file_arg $ client_arg $ orchestrate_arg $ mediate_arg
      $ trace_arg $ metrics_arg)

(* --- compliance --- *)

let compliance_cmd =
  let run file a b =
    let spec = load file in
    let ca = contract_of spec a in
    let cb = contract_of spec b in
    Fmt.pr "%s! = %a@.%s! = %a@." a Core.Contract.pp ca b Core.Contract.pp cb;
    match Core.Product.counterexample ca cb with
    | None ->
        Fmt.pr "compliant: %s |- %s@." a b;
        exit 0
    | Some ce ->
        Fmt.pr "NOT compliant:@.%a@." Core.Product.pp_counterexample ce;
        exit 1
  in
  let doc = "Decide compliance of two services (Theorem 1)." in
  Cmd.v (Cmd.info "compliance" ~doc)
    Term.(const run $ file_arg $ party_arg 1 $ party_arg 2)

(* --- validity --- *)

let validity_cmd =
  let run file client =
    let spec = load file in
    let ok = ref true in
    List.iter
      (fun (name, h) ->
        within_state_limit file name @@ fun () ->
        (match Core.Validity.check_expr h with
        | Ok () -> Fmt.pr "%s: valid (direct exploration)@." name
        | Error v ->
            ok := false;
            Fmt.pr "%s: INVALID — %a@." name Core.Validity.pp_violation v);
        match Bpa.Check.valid h with
        | Ok () -> Fmt.pr "%s: valid (BPA model checking)@." name
        | Error ce ->
            ok := false;
            Fmt.pr "%s: INVALID — %a@." name Bpa.Check.pp_counterexample ce)
      (clients spec client);
    report_exit !ok
  in
  let doc = "Static validity of clients (both §3.1 engines)." in
  Cmd.v (Cmd.info "validity" ~doc) Term.(const run $ file_arg $ client_arg)

(* --- simulate --- *)

let simulate_cmd =
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Random scheduler seed.")
  in
  let steps_arg =
    Arg.(value & opt int 200 & info [ "max-steps" ] ~docv:"N" ~doc:"Fuel.")
  in
  let compact_arg =
    Arg.(value & flag & info [ "compact" ] ~doc:"One line per transition.")
  in
  let faults_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Inject faults and run under the supervised runtime. SPEC is a \
             comma-separated list of KIND@TRIGGER items, e.g. \
             $(b,crash:s3@4) (crash location s3 at step 4), \
             $(b,crash:s3@p0.01) (per-step probability), $(b,drop:idc@7), \
             $(b,delay:req:3@p0.05), $(b,violate:s1@2).")
  in
  let retries_arg =
    Arg.(
      value & opt int Runtime.Supervisor.default.Runtime.Supervisor.max_retries
      & info [ "retries" ] ~docv:"K"
          ~doc:"Retry budget per request under $(b,--faults).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"With $(b,--faults), print the recovery report as JSON.")
  in
  let level_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "level" ] ~docv:"LEVEL"
          ~doc:
            "With $(b,--faults), the admission level the clients were served \
             at ($(b,strict), $(b,skip:K), $(b,affectible)). $(b,affectible) \
             arms reversible sessions: a wedged session is retracted to its \
             open-time checkpoint and retried.")
  in
  let run file client plan_name seed max_steps compact faults retries json
      level trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    let spec = load file in
    let repo = Syntax.Spec.repo spec in
    let cs = clients spec client in
    let plan =
      match plan_name with Some pn -> plan_of spec pn | None -> Core.Plan.empty
    in
    let level =
      match level with
      | None -> Core.Compliance.Strict
      | Some l -> (
          match Core.Compliance.level_of_string l with
          | Ok l -> l
          | Error e ->
              Fmt.epr "bad --level: %s@." e;
              exit 2)
    in
    match faults with
    | None ->
        let cfg = Core.Network.initial ~plan cs in
        let t =
          Core.Simulate.run ~max_steps repo cfg (Core.Simulate.random ~seed)
        in
        if compact then Core.Simulate.pp_trace_compact Fmt.stdout t
        else Core.Simulate.pp_trace Fmt.stdout t;
        (match t.Core.Simulate.outcome with
        | Core.Simulate.Completed -> 0
        | _ -> 1)
    | Some spec_str -> (
        match Runtime.Faults.parse spec_str with
        | Error e ->
            Fmt.epr "bad --faults spec: %s@." e;
            exit 2
        | Ok fspec ->
            let supervisor =
              { Runtime.Supervisor.default with max_retries = retries }
            in
            let r =
              Runtime.Engine.run ~max_steps ~supervisor ~faults:fspec ~seed
                ~level repo
                (List.map (fun c -> (plan, c)) cs)
                (Core.Simulate.random ~seed)
            in
            if json then
              Fmt.pr "%a@." Reports.Json.pp (Reports.Encode.runtime_report r)
            else begin
              if compact then
                Core.Simulate.pp_trace_compact Fmt.stdout r.Runtime.Engine.trace
              else Core.Simulate.pp_trace Fmt.stdout r.Runtime.Engine.trace;
              Runtime.Engine.pp_report Fmt.stdout r
            end;
            if Runtime.Engine.completed r then 0 else 1)
  in
  let doc = "Run the network under a plan with a random scheduler." in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(
      const run $ file_arg $ client_arg $ plan_arg $ seed_arg $ steps_arg
      $ compact_arg $ faults_arg $ retries_arg $ json_arg $ level_arg
      $ trace_arg $ metrics_arg)

(* --- dot --- *)

let dot_cmd =
  let run file a b =
    let spec = load file in
    let ca = contract_of spec a in
    let cb = contract_of spec b in
    Core.Export.product_dot Fmt.stdout (Core.Product.build ca cb);
    exit 0
  in
  let doc = "Export the compliance product automaton to DOT." in
  Cmd.v (Cmd.info "dot" ~doc)
    Term.(const run $ file_arg $ party_arg 1 $ party_arg 2)

(* --- subcontract --- *)

let subcontract_cmd =
  let run file a b =
    let spec = load file in
    let ca = contract_of spec a in
    let cb = contract_of spec b in
    let ab = Core.Subcontract.refines ca cb in
    let ba = Core.Subcontract.refines cb ca in
    Fmt.pr "%s <= %s : %b@.%s <= %s : %b@." a b ab b a ba;
    if ab && ba then Fmt.pr "equivalent@.";
    exit (if ab then 0 else 1)
  in
  let doc = "Decide the subcontract (substitutability) preorder." in
  Cmd.v (Cmd.info "subcontract" ~doc)
    Term.(const run $ file_arg $ party_arg 1 $ party_arg 2)

(* --- dot-policy --- *)

let dot_policy_cmd =
  let pol_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"POLICY" ~doc:"Policy reference, e.g. phi({s1},45,100).")
  in
  let run file polref =
    let spec = load file in
    match
      Core.Hexpr.node
        (Syntax.Parser.hexpr_of_string ~automata:spec.Syntax.Spec.automata
           (Printf.sprintf "%s[ eps ]" polref))
    with
    | Core.Hexpr.Frame (p, _) ->
        Usage.Policy_ops.pp_dot Fmt.stdout p;
        exit 0
    | _ | (exception Syntax.Parser.Error _) ->
        Fmt.epr "cannot resolve policy %s@." polref;
        exit 2
  in
  let doc = "Export an instantiated policy automaton to DOT." in
  Cmd.v (Cmd.info "dot-policy" ~doc) Term.(const run $ file_arg $ pol_arg)

(* --- cost --- *)

let cost_cmd =
  let model_arg =
    Arg.(
      value
      & opt (list ~sep:',' (pair ~sep:'=' string float)) []
      & info [ "model"; "m" ] ~docv:"EV=PRICE,.."
          ~doc:"Cost per event name (default price 1 for unlisted events).")
  in
  let default_arg =
    Arg.(value & opt float 1.0 & info [ "default" ] ~docv:"PRICE" ~doc:"Price of unlisted events.")
  in
  let run file client plan_name prices default =
    let spec = load file in
    let repo = Syntax.Spec.repo spec in
    let model = Quant.Model.of_list ~default prices in
    List.iter
      (fun (name, h) ->
        within_state_limit file name @@ fun () ->
        (match Quant.Cost.worst_case model h with
        | Some c -> Fmt.pr "%s: worst-case stand-alone cost %g@." name c
        | None -> Fmt.pr "%s: unbounded stand-alone cost@." name);
        match plan_name with
        | Some pn -> (
            let plan = plan_of spec pn in
            match Quant.Plan_cost.worst_case repo plan (name, h) model with
            | Some c -> Fmt.pr "%s under %s: worst-case cost %g@." name pn c
            | None -> Fmt.pr "%s under %s: unbounded cost@." name pn)
        | None -> (
            match Quant.Plan_cost.cheapest repo ~client:(name, h) model with
            | Some priced ->
                Fmt.pr "%s: cheapest valid plan %a@." name
                  Quant.Plan_cost.pp_priced priced
            | None -> Fmt.pr "%s: no valid plan@." name))
      (clients spec client);
    exit 0
  in
  let doc = "Worst-case event costs and cost-aware plan selection." in
  Cmd.v (Cmd.info "cost" ~doc)
    Term.(const run $ file_arg $ client_arg $ plan_arg $ model_arg $ default_arg)

(* --- diagnose --- *)

let diagnose_cmd =
  let limit_arg =
    Arg.(value & opt int 10 & info [ "limit" ] ~docv:"N" ~doc:"Maximum failures to report.")
  in
  let run file client plan_name limit =
    let spec = load file in
    let repo = Syntax.Spec.repo spec in
    let plan =
      match plan_name with
      | Some pn -> plan_of spec pn
      | None ->
          Fmt.epr "diagnose needs --plan@.";
          exit 2
    in
    let any = ref false in
    List.iter
      (fun (name, h) ->
        let fs = Core.Netcheck.failures ~limit repo plan (name, h) in
        if fs = [] then Fmt.pr "%s: no stuck states@." name
        else begin
          any := true;
          List.iteri
            (fun i s -> Fmt.pr "%s #%d: %a@." name (i + 1) Core.Netcheck.pp_stuck s)
            fs
        end)
      (clients spec client);
    exit (if !any then 1 else 0)
  in
  let doc = "Enumerate every distinct stuck state of a planned client." in
  Cmd.v (Cmd.info "diagnose" ~doc)
    Term.(const run $ file_arg $ client_arg $ plan_arg $ limit_arg)

(* --- coverage --- *)

let coverage_cmd =
  let runs_arg =
    Arg.(value & opt int 100 & info [ "runs" ] ~docv:"N" ~doc:"Number of random executions.")
  in
  let run file client plan_name runs =
    let spec = load file in
    let repo = Syntax.Spec.repo spec in
    let plan =
      match plan_name with Some pn -> plan_of spec pn | None -> Core.Plan.empty
    in
    let cs = clients spec client in
    let cov =
      Core.Simulate.coverage ~runs repo (fun () -> Core.Network.initial ~plan cs)
    in
    List.iter (fun (k, n) -> Fmt.pr "%-20s %6d@." k n) cov;
    exit 0
  in
  let doc = "Behavioural coverage over many random runs." in
  Cmd.v (Cmd.info "coverage" ~doc)
    Term.(const run $ file_arg $ client_arg $ plan_arg $ runs_arg)

(* --- msc --- *)

let msc_cmd =
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Random scheduler seed.")
  in
  let text_arg =
    Arg.(value & flag & info [ "text" ] ~doc:"Plain text instead of Mermaid.")
  in
  let run file client plan_name seed text =
    let spec = load file in
    let repo = Syntax.Spec.repo spec in
    let plan =
      match plan_name with Some pn -> plan_of spec pn | None -> Core.Plan.empty
    in
    let cfg = Core.Network.initial ~plan (clients spec client) in
    let t = Core.Simulate.run repo cfg (Core.Simulate.random ~seed) in
    let msc = Core.Msc.of_trace t in
    if text then Core.Msc.pp_text Fmt.stdout msc
    else Core.Msc.pp_mermaid Fmt.stdout msc;
    exit 0
  in
  let doc = "Render one run as a Mermaid message sequence chart." in
  Cmd.v (Cmd.info "msc" ~doc)
    Term.(const run $ file_arg $ client_arg $ plan_arg $ seed_arg $ text_arg)

(* --- graph --- *)

let graph_cmd =
  let what_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"NAME" ~doc:"Service, client, or (with --plan) planned client.")
  in
  let run file name plan_name =
    let spec = load file in
    match plan_name with
    | Some pn ->
        let plan = plan_of spec pn in
        let client = client_of spec name in
        Core.Export.client_graph_dot (Syntax.Spec.repo spec) plan client
          Fmt.stdout;
        exit 0
    | None ->
        within_state_limit file name (fun () ->
            Core.Export.hexpr_dot Fmt.stdout (party_of spec name));
        exit 0
  in
  let doc = "Export a transition system to DOT (LTS, or the abstract \
             configuration graph under --plan)." in
  Cmd.v (Cmd.info "graph" ~doc) Term.(const run $ file_arg $ what_arg $ plan_arg)

(* --- batch --- *)

let batch_cmd =
  let runs_arg =
    Arg.(value & opt int 100 & info [ "runs" ] ~docv:"N" ~doc:"Number of random executions.")
  in
  let run file client plan_name runs json =
    let spec = load file in
    let repo = Syntax.Spec.repo spec in
    let plan =
      match plan_name with Some pn -> plan_of spec pn | None -> Core.Plan.empty
    in
    let cs = clients spec client in
    let stats =
      Core.Simulate.batch ~runs repo (fun () -> Core.Network.initial ~plan cs)
    in
    if json then Fmt.pr "%a@." Reports.Json.pp (Reports.Encode.sim_stats stats)
    else Fmt.pr "%a@." Core.Simulate.pp_stats stats;
    exit (if stats.Core.Simulate.completed = stats.Core.Simulate.runs then 0 else 1)
  in
  let doc = "Drive many random executions and report outcome statistics." in
  Cmd.v (Cmd.info "batch" ~doc)
    Term.(const run $ file_arg $ client_arg $ plan_arg $ runs_arg $ json_arg)

(* --- effects --- *)

let effects_cmd =
  let program_arg =
    Arg.(value & opt (some string) None & info [ "program" ] ~docv:"NAME" ~doc:"Program to analyse (default: all).")
  in
  let plan_flag =
    Arg.(value & flag & info [ "plans" ] ~doc:"Also synthesise valid plans for each program's effect.")
  in
  let run file program plans =
    let spec = load file in
    let repo = Syntax.Spec.repo spec in
    let selected =
      match program with
      | Some n -> (
          match Syntax.Spec.find_program spec n with
          | Some t -> [ (n, t) ]
          | None ->
              Fmt.epr "unknown program %s@." n;
              exit 2)
      | None -> spec.Syntax.Spec.programs
    in
    let ok = ref true in
    List.iter
      (fun (name, t) ->
        match Lambda_sec.Infer.infer [] t with
        | Error e ->
            ok := false;
            Fmt.pr "%s: type error — %a@." name Lambda_sec.Infer.pp_error e
        | Ok (ty, eff) -> (
            let eff = Core.Hexpr.normalize eff in
            Fmt.pr "%s : %a@.%s ▷ %a@." name Lambda_sec.Ast.pp_ty ty name
              Core.Hexpr.pp eff;
            if plans then
              match Core.Hexpr.well_formed eff with
              | Error e ->
                  (* the planner's analyses assume guarded tail recursion *)
                  ok := false;
                  Fmt.pr "  not planned: the effect is not well formed (%a)@."
                    Core.Hexpr.pp_wf_error e
              | Ok () ->
                  List.iter
                    (fun r -> Fmt.pr "  %a@." Core.Planner.pp_report r)
                    (Core.Planner.valid_plans ~all:true repo
                       ~client:(name, eff))))
      selected;
    report_exit !ok
  in
  let doc = "Infer the types and effects of λ-calculus programs." in
  Cmd.v (Cmd.info "effects" ~doc)
    Term.(const run $ file_arg $ program_arg $ plan_flag)

(* --- discover --- *)

let discover_cmd =
  let body_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"BODY" ~doc:"Client-side request body, as a history expression.")
  in
  let policy_arg =
    Arg.(value & opt (some string) None & info [ "policy" ] ~docv:"POL" ~doc:"Policy reference, e.g. 'phi({s1},45,100)'.")
  in
  let run file body_src policy_src =
    let spec = load file in
    let repo = Syntax.Spec.repo spec in
    let parse_in_spec src =
      try Syntax.Parser.hexpr_of_string ~automata:spec.Syntax.Spec.automata src
      with Syntax.Parser.Error (msg, l, c) ->
        Fmt.epr "%s at %d:%d@." msg l c;
        exit 2
    in
    let body = parse_in_spec body_src in
    let policy =
      Option.map
        (fun src ->
          match Core.Hexpr.node (parse_in_spec (src ^ "[ eps ]")) with
          | Core.Hexpr.Frame (p, _) -> p
          | _ ->
              Fmt.epr "cannot resolve policy %s@." src;
              exit 2)
        policy_src
    in
    let candidates = Core.Discovery.query ?policy repo ~body in
    List.iter (fun c -> Fmt.pr "%a@." Core.Discovery.pp_candidate c) candidates;
    exit (if List.exists (fun c -> Result.is_ok c.Core.Discovery.verdict) candidates then 0 else 1)
  in
  let doc = "Call-by-contract discovery: which services can serve a request?" in
  Cmd.v (Cmd.info "discover" ~doc)
    Term.(const run $ file_arg $ body_arg $ policy_arg)

(* --- audit --- *)

let audit_cmd =
  let log_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"LOG" ~doc:"Event log, one event per line.")
  in
  let policies_arg =
    Arg.(non_empty & opt_all string [] & info [ "policy" ] ~docv:"POL" ~doc:"Policy reference (repeatable).")
  in
  let run file log policy_refs =
    let spec = load file in
    let policies =
      List.map
        (fun src ->
          match
            Core.Hexpr.node
              (Syntax.Parser.hexpr_of_string
                 ~automata:spec.Syntax.Spec.automata (src ^ "[ eps ]"))
          with
          | Core.Hexpr.Frame (p, _) -> p
          | _ | (exception Syntax.Parser.Error _) ->
              Fmt.epr "cannot resolve policy %s@." src;
              exit 2)
        policy_refs
    in
    let events =
      try Syntax.Audit.parse_log_file log
      with Syntax.Audit.Error (msg, line) ->
        Fmt.epr "%s:%d: %s@." log line msg;
        exit 2
    in
    let verdicts = Syntax.Audit.check policies events in
    List.iter (fun v -> Fmt.pr "%a@." Syntax.Audit.pp_verdict v) verdicts;
    exit
      (if List.for_all (fun v -> v.Syntax.Audit.violation_at = None) verdicts
       then 0
       else 1)
  in
  let doc = "Replay a recorded event log against policies." in
  Cmd.v (Cmd.info "audit" ~doc) Term.(const run $ file_arg $ log_arg $ policies_arg)

(* --- fmt --- *)

let fmt_cmd =
  let run file =
    let spec = load file in
    Syntax.Spec.to_susf Fmt.stdout spec;
    exit 0
  in
  let doc = "Re-emit a specification as normalised, parseable source." in
  Cmd.v (Cmd.info "fmt" ~doc) Term.(const run $ file_arg)

(* --- lint --- *)

let lint_cmd =
  let run file =
    let spec = load file in
    let findings = Syntax.Lint.spec spec in
    if findings = [] then begin
      Fmt.pr "no findings@.";
      exit 0
    end
    else begin
      List.iter (fun f -> Fmt.pr "%a@." Syntax.Lint.pp_finding f) findings;
      exit
        (if List.exists (fun f -> f.Syntax.Lint.severity = Syntax.Lint.Error) findings
         then 1
         else 0)
    end
  in
  let doc = "Static hygiene checks on a specification." in
  Cmd.v (Cmd.info "lint" ~doc) Term.(const run $ file_arg)

(* --- serve --- *)

let serve_cmd =
  let script_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "script" ] ~docv:"SCRIPT"
          ~doc:
            "Workload script to replay: one request per line ($(b,open c = \
             HEXPR), $(b,serve c), $(b,publish l = HEXPR), $(b,retract l), \
             $(b,update l = HEXPR), $(b,close c), $(b,run c seed N), \
             $(b,policy queue N budget N floor LEVEL)) plus \
             $(b,tick)/$(b,drain) processing boundaries. Required unless \
             $(b,--listen) is given (with $(b,--connect) it is the workload \
             to drive). See docs/BROKER.md and docs/SERVING.md.")
  in
  let listen_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "listen" ] ~docv:"PORT"
          ~doc:
            "Serve live connections on 127.0.0.1:$(docv) (0 picks a free \
             port) instead of replaying $(b,--script): the line protocol is \
             the script grammar, one $(b,ok)/$(b,err) response line per \
             request, $(b,shutdown) to stop. See docs/SERVING.md.")
  in
  let shards_arg =
    Arg.(
      value
      & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "With $(b,--listen): shard the broker across $(docv) worker \
             domains, at most 127. Session requests route by client \
             (FNV-1a mod N), repository mutations broadcast to every shard.")
  in
  let batch_arg =
    Arg.(
      value
      & opt int 1
      & info [ "batch" ] ~docv:"K"
          ~doc:
            "Journal group commit: buffer up to $(docv) entries per flush. \
             1 (the default) flushes per append. Responses are only sent \
             after the owning shard's batch is flushed, so an acknowledged \
             response always implies a durable journal entry.")
  in
  let connect_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"HOST:PORT"
          ~doc:
            "Act as a concurrent load driver instead of a server: partition \
             $(b,--script) into $(b,--conns) client-affine request streams \
             and drive them over that many connections, one request in \
             flight per connection.")
  in
  let conns_arg =
    Arg.(
      value
      & opt int 4
      & info [ "conns" ] ~docv:"M"
          ~doc:"With $(b,--connect): number of concurrent connections.")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "With $(b,--listen --recover): verify every recovered verdict \
             against the cold oracle at its recorded level and exit (0 on a \
             clean match, 1 on any mismatch) instead of serving.")
  in
  let shutdown_arg =
    Arg.(
      value & flag
      & info [ "shutdown" ]
          ~doc:
            "With $(b,--connect): send the $(b,shutdown) verb after the \
             workload completes, stopping the server (it drains, flushes \
             its journals and exits 0).")
  in
  let net_timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "net-timeout" ] ~docv:"SECS"
          ~doc:
            "With $(b,--listen): per-connection idle read timeout. A \
             connection with no input for $(docv) seconds is answered \
             $(b,err timeout) and closed, so a silent client cannot pin \
             its server slot forever. Off by default.")
  in
  let queue_arg =
    Arg.(
      value
      & opt int Broker.default_admission.Broker.queue_capacity
      & info [ "queue" ] ~docv:"N"
          ~doc:"Admission queue capacity (submissions beyond it are shed).")
  in
  let budget_arg =
    Arg.(
      value
      & opt int Broker.default_admission.Broker.plan_budget
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "Plan budget: fresh analyses allowed per cache-missing serve \
             before it degrades.")
  in
  let floor_arg =
    Arg.(
      value
      & opt string "strict"
      & info [ "floor" ] ~docv:"LEVEL"
          ~doc:
            "Degradation floor: the weakest compliance level the admission \
             ladder may serve at under queue pressure ($(b,strict), \
             $(b,skip:K), $(b,affectible)). With the default $(b,strict) the \
             ladder is disabled and a full queue sheds; with a weaker floor, \
             a full-queue serve is rescued at the floor level instead of \
             shed. See docs/BROKER.md.")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Write-ahead journal: append every accepted event to $(docv) \
             before applying it. Refuses to overwrite an existing journal \
             unless $(b,--force) or $(b,--recover) is given.")
  in
  let snapshot_every_arg =
    Arg.(
      value
      & opt int 0
      & info [ "snapshot-every" ] ~docv:"N"
          ~doc:
            "With $(b,--journal), write a snapshot (to $(i,JOURNAL).snapshot) \
             every $(docv) accepted events, so recovery replays only the \
             journal suffix. 0 disables snapshots.")
  in
  let recover_arg =
    Arg.(
      value & flag
      & info [ "recover" ]
          ~doc:
            "Recover from $(b,--journal) (and its snapshot, if one exists) \
             before replaying: restore the crashed broker's state, skip the \
             script prefix the journal already covers, and continue — \
             appending to the same journal.")
  in
  let force_arg =
    Arg.(
      value & flag
      & info [ "force" ]
          ~doc:
            "Overwrite an existing journal file. With $(b,--listen), \
             overwrite $(i,JOURNAL).0 … $(i,JOURNAL).N-1 and remove the \
             $(i,JOURNAL).k (k >= N) a server with more $(b,--shards) left.")
  in
  let serve_faults_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Serve-loop fault injection: comma-separated $(b,crash@K) / \
             $(b,torn@K) clauses, firing when event $(i,K) (0-based) is \
             about to be accepted. $(b,torn) additionally leaves an \
             unterminated garbage line in the journal. A fired fault stops \
             the run with exit code 3.")
  in
  let run file script queue budget floor json trace metrics journal
      snapshot_every recover force faults listen shards batch connect conns
      check do_shutdown net_timeout =
    with_obs ~trace ~metrics @@ fun () ->
    let spec = load file in
    let hexpr_of_string src =
      try Syntax.Parser.hexpr_of_string ~automata:spec.Syntax.Spec.automata src
      with Syntax.Parser.Error (msg, line, col) ->
        failwith (Fmt.str "%s (at %d:%d)" msg line col)
    in
    let hexpr_to_string = Core.Hexpr.to_string in
    let floor =
      match Core.Compliance.level_of_string floor with
      | Ok f -> f
      | Error e ->
          Fmt.epr "bad --floor: %s@." e;
          exit 2
    in
    let admission =
      { Broker.queue_capacity = queue; plan_budget = budget; floor }
    in
    let repo = Syntax.Spec.repo spec in
    List.iter
      (fun (flag, n) ->
        if n < 1 then begin
          Fmt.epr "%s must be >= 1@." flag;
          exit 2
        end)
      [
        ("--shards", shards);
        ("--batch", batch);
        ("--conns", conns);
        ("--queue", queue);
        ("--budget", budget);
      ];
    if shards > Broker.Shard.max_shards then begin
      Fmt.epr "--shards must be <= %d@." Broker.Shard.max_shards;
      exit 2
    end;
    (match net_timeout with
    | Some secs when not (secs > 0.0) ->
        Fmt.epr "--net-timeout must be > 0@.";
        exit 2
    | _ -> ());
    let load_script () =
      match script with
      | None ->
          Fmt.epr "--script is required in this mode@.";
          exit 2
      | Some script -> (
          let text =
            try In_channel.with_open_text script In_channel.input_all
            with Sys_error msg ->
              Fmt.epr "%s@." msg;
              exit 2
          in
          match Broker.Script.parse ~file:script ~hexpr_of_string text with
          | Error msg ->
              Fmt.epr "%s@." msg;
              exit 2
          | Ok items -> items)
    in
    (* --- socket server mode (--listen) --------------------------------- *)
    let serve_listen port =
      if Option.is_some script then begin
        Fmt.epr
          "--listen takes live connections; drop --script (or use --connect \
           to drive it)@.";
        exit 2
      end;
      let jpath j i = j ^ "." ^ string_of_int i in
      (* a fresh pool owns the whole JOURNAL.k set: without --force it
         clobbers none of it; with --force it also removes the files a
         larger pool left (a pool writes a gap-free set), which
         --recover would count as shards *)
      (match journal with
      | Some j when not recover ->
          let rec sweep i =
            let p = jpath j i in
            if Sys.file_exists p then begin
              if not force then begin
                Fmt.epr
                  "%s exists — pass --force to overwrite it, or --recover to \
                   resume from it@."
                  p;
                exit 2
              end;
              if i >= shards then Sys.remove p;
              sweep (i + 1)
            end
            else if i < shards then sweep (i + 1)
          in
          sweep 0
      | _ -> ());
      if recover && Option.is_none journal then begin
        Fmt.epr "--recover/--check need --journal@.";
        exit 2
      end;
      (* a journaled pool creates JOURNAL.0 … JOURNAL.N-1 when it starts,
         and clients route by hash mod N: recovering a set written under
         another --shards would lose or re-route sessions *)
      (match journal with
      | Some j when recover -> (
          let wrong i = Sys.file_exists (jpath j i) <> (i < shards) in
          match List.find_opt wrong (List.init (shards + 1) Fun.id) with
          | Some i ->
              Fmt.epr
                "--recover: %s %s — restart with the --shards the journals \
                 were written under@."
                (jpath j i)
                (if i < shards then "is missing" else "exists");
              exit 2
          | None -> ())
      | _ -> ());
      let engines =
        if not recover then
          Array.init shards (fun _ -> Broker.create ~admission repo)
        else
          let j = Option.get journal in
          Array.init shards (fun i ->
              let p = jpath j i in
              match
                Broker.Recovery.recover ~hexpr_of_string ~admission ~journal:p
                  repo
              with
              | Error msg ->
                  Fmt.epr "shard %d: recovery failed: %s@." i msg;
                  exit 2
              | Ok (b, r) ->
                  if r.Broker.Recovery.torn_dropped then
                    Broker.Journal.drop_torn_tail p;
                  Fmt.epr "-- shard %d: %a@." i Broker.Recovery.pp_report r;
                  b)
      in
      if recover then begin
        let checked = ref 0 and mismatches = ref 0 in
        Array.iteri
          (fun i b ->
            checked := !checked + List.length (Broker.served_clients b);
            List.iter
              (fun c ->
                incr mismatches;
                Fmt.epr "MISMATCH shard %d client %s@." i c)
              (Broker.Recovery.check_oracle b))
          engines;
        Fmt.epr
          "-- %d recovered verdicts checked against the cold oracle, %d \
           mismatches@."
          !checked !mismatches;
        if !mismatches > 0 then exit 1
      end;
      if check then 0
      else begin
        let jfn =
          Option.map
            (fun j i ->
              Broker.Journal.create ~hexpr_to_string ~append:recover ~batch
                (jpath j i))
            journal
        in
        let pool = Broker.Shard.of_engines ?journal:jfn engines in
        let server =
          Broker.Net.create ~hexpr_of_string ?idle_timeout:net_timeout ~port
            pool
        in
        Fmt.epr "-- listening on 127.0.0.1:%d (%d shard%s, journal batch %d)@."
          (Broker.Net.port server) shards
          (if shards = 1 then "" else "s")
          batch;
        Broker.Net.serve server;
        Array.iteri
          (fun i b ->
            Fmt.pr "-- shard %d: %a@." i Broker.pp_stats (Broker.stats b))
          engines;
        0
      end
    in
    (* --- concurrent load-driver mode (--connect) ------------------------ *)
    let serve_connect hostport =
      let host, port =
        let bad () =
          Fmt.epr "--connect wants HOST:PORT@.";
          exit 2
        in
        match String.rindex_opt hostport ':' with
        | None -> bad ()
        | Some i -> (
            let h = String.sub hostport 0 i in
            match
              int_of_string_opt
                (String.sub hostport (i + 1) (String.length hostport - i - 1))
            with
            | None -> bad ()
            | Some p -> (h, p))
      in
      let items = load_script () in
      let streams = Broker.Script.partition ~streams:conns items in
      let total = Array.fold_left (fun n s -> n + List.length s) 0 streams in
      let t0 = Unix.gettimeofday () in
      let open_conns, driven =
        let fail why =
          Fmt.epr "--connect %s: %s@." hostport why;
          exit 2
        in
        try Broker.Net.drive ~host ~port ~hexpr_to_string streams with
        | Failure why -> fail why
        | Unix.Unix_error (e, _, _) -> fail (Unix.error_message e)
        | Broker.Net.Closed { replies; requests } ->
            (* the workload did not complete: not a usage error *)
            Fmt.epr
              "--connect %s: server closed the connection after %d of %d \
               replies@."
              hostport replies requests;
            exit 1
      in
      let dt = Unix.gettimeofday () -. t0 in
      let errs =
        List.filter
          (fun (d : Broker.Net.driven) ->
            String.length d.Broker.Net.reply < 2
            || String.sub d.Broker.Net.reply 0 2 <> "ok")
          driven
      in
      List.iter
        (fun (d : Broker.Net.driven) ->
          Fmt.epr "stream %d: %a -> %s@." d.Broker.Net.stream Broker.pp_request
            d.Broker.Net.request d.Broker.Net.reply)
        errs;
      Fmt.pr
        "-- drove %d requests over %d connections in %.3fs (%.0f events/s), \
         %d errors@."
        total conns dt
        (float_of_int total /. dt)
        (List.length errs);
      if do_shutdown then Broker.Net.shutdown_conns open_conns
      else
        Array.iter
          (fun (fd, _, _) ->
            try Unix.close fd with Unix.Unix_error _ -> ())
          open_conns;
      if errs = [] then 0 else 1
    in
    (* a flag its mode would ignore is a usage error, not a silent
       no-op: a --check that checked nothing must not exit 0 *)
    List.iter
      (fun (ignored, why) ->
        if ignored then begin
          Fmt.epr "%s@." why;
          exit 2
        end)
      [
        ( Option.is_some listen && Option.is_some connect,
          "--listen and --connect are mutually exclusive" );
        ( check && not (Option.is_some listen && recover),
          "--check needs --listen and --recover" );
        ( Option.is_some listen && snapshot_every > 0,
          "--snapshot-every applies to --script runs, not --listen" );
        ( Option.is_some listen && Option.is_some faults,
          "--faults applies to --script runs, not --listen" );
        ( Option.is_some connect && Option.is_some journal,
          "--journal applies to the server, not --connect" );
        ( Option.is_some connect && recover,
          "--recover applies to the server, not --connect" );
        ( Option.is_some connect && force,
          "--force applies to the server, not --connect" );
        ( Option.is_some connect && snapshot_every > 0,
          "--snapshot-every applies to --script runs, not --connect" );
        ( Option.is_some connect && Option.is_some faults,
          "--faults applies to --script runs, not --connect" );
      ];
    match (listen, connect) with
    | Some port, _ -> serve_listen port
    | None, Some hostport -> serve_connect hostport
    | None, None ->
      let items = load_script () in
      let sfaults =
        match faults with
        | None -> []
        | Some s -> (
            match Runtime.Faults.parse_serve s with
            | Ok fs -> fs
            | Error msg ->
                Fmt.epr "--faults: %s@." msg;
                exit 2)
      in
      (match journal with
      | Some j when (not recover) && (not force) && Sys.file_exists j ->
          Fmt.epr
            "%s exists — pass --force to overwrite it, or --recover to \
             resume from it@."
            j;
          exit 2
      | _ -> ());
      (* A fresh journaled run must not inherit a previous run's
         snapshot: --recover pairs FILE with FILE.snapshot
         unconditionally, and a stale snapshot whose [upto] happens
         to fit the new journal would silently restore the wrong
         run's state. *)
      (match journal with
      | Some j when not recover ->
          let snap = j ^ ".snapshot" in
          if Sys.file_exists snap then Sys.remove snap
      | _ -> ());
      let broker, recovered =
        if not recover then (Broker.create ~admission repo, None)
        else
          match journal with
          | None ->
              Fmt.epr "--recover needs --journal@.";
              exit 2
          | Some j -> (
              match
                Broker.Recovery.recover ~hexpr_of_string
                  ~snapshot:(j ^ ".snapshot") ~admission ~journal:j repo
              with
              | Error msg ->
                  Fmt.epr "recovery failed: %s@." msg;
                  exit 2
              | Ok (b, r) ->
                  if r.Broker.Recovery.torn_dropped then
                    Broker.Journal.drop_torn_tail j;
                  Fmt.epr "-- %a@." Broker.Recovery.pp_report r;
                  (b, Some r))
      in
      (* resume: skip the script submissions the journal already
         covers — keyed on the recorded submission index, not a
         count, because shed markers interleave with submissions that
         were still queued at the crash and must be re-submitted —
         and verify each skipped one against its journal entry *)
      let items =
        let covered =
          match recovered with
          | Some r -> r.Broker.Recovery.events
          | None -> []
        in
        match
          Broker.Recovery.resume_script ~hexpr_to_string ~covered items
        with
        | Ok items -> items
        | Error msg ->
            Fmt.epr "--recover: %s@." msg;
            exit 2
      in
      let writer =
        Option.map
          (fun j ->
            Broker.Journal.create ~hexpr_to_string ~append:recover ~batch j)
          journal
      in
      (* [accepted] counts processed events (the fault trigger and the
         snapshot cadence); journal entries are the recovered ones plus
         those appended since *)
      let recovered_entries, accepted =
        match recovered with
        | Some r ->
            ( r.Broker.Recovery.entries,
              ref (r.Broker.Recovery.entries - r.Broker.Recovery.sheds) )
        | None -> (0, ref 0)
      in
      let last_snap = ref !accepted in
      let exception Crashed of Runtime.Faults.serve_kind in
      let accept () =
        match Runtime.Faults.serve_fires sfaults ~accepted:!accepted with
        | Some k -> raise (Crashed k)
        | None -> incr accepted
      in
      let after () =
        match (journal, writer) with
        | Some j, Some w
          when snapshot_every > 0 && !accepted - !last_snap >= snapshot_every ->
            (* the snapshot's [upto] claims those entries are on disk,
               so a group-commit buffer must be flushed first *)
            Broker.Journal.flush w;
            Broker.Recovery.write ~hexpr_to_string (j ^ ".snapshot")
              (Broker.Recovery.snapshot_of broker
                 ~upto:(recovered_entries + Broker.Journal.appended w));
            last_snap := !accepted
        | _ -> ()
      in
      let responses = ref [] in
      let crashed =
        match
          Broker.Journal.run
            (Broker.Journal.feed ?writer ~accept broker)
            ~after
            ~emit:(fun r -> responses := r :: !responses)
            items
        with
        | () -> None
        | exception Crashed k -> Some k
      in
      (match (crashed, writer) with
      | Some Runtime.Faults.Torn_write, Some w -> Broker.Journal.tear w
      | _ -> ());
      Option.iter Broker.Journal.close writer;
      let responses = List.rev !responses in
      let stats = Broker.stats broker in
      if json then
        Fmt.pr "%a@." Reports.Json.pp
          (Reports.Json.Obj
             [
               ( "responses",
                 Reports.Json.List
                   (List.map Reports.Encode.broker_response responses) );
               ("stats", Reports.Encode.broker_stats stats);
             ])
      else begin
        List.iter (fun r -> Fmt.pr "%a@." Broker.pp_response r) responses;
        Fmt.pr "-- %a@." Broker.pp_stats stats
      end;
      (match crashed with
      | None -> 0
      | Some k ->
          Fmt.epr "-- crashed (%s) after %d accepted events%s@."
            (match k with
            | Runtime.Faults.Crash_serve -> "crash"
            | Runtime.Faults.Torn_write -> "torn write")
            !accepted
            (match journal with
            | Some j -> Fmt.str "; resume with --recover --journal %s" j
            | None -> "");
          3)
  in
  let doc =
    "Run the orchestration broker over a workload script: a long-lived \
     serving loop with dependency-tracked cache invalidation, admission \
     control, and (with $(b,--journal)) crash-durable write-ahead logging."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ file_arg $ script_arg $ queue_arg $ budget_arg $ floor_arg
      $ json_arg $ trace_arg $ metrics_arg $ journal_arg $ snapshot_every_arg
      $ recover_arg $ force_arg $ serve_faults_arg $ listen_arg $ shards_arg
      $ batch_arg $ connect_arg $ conns_arg $ check_arg $ shutdown_arg
      $ net_timeout_arg)

(* --- show --- *)

let show_cmd =
  let run file =
    let spec = load file in
    Syntax.Spec.pp Fmt.stdout spec;
    exit 0
  in
  let doc = "Pretty-print the parsed specification." in
  Cmd.v (Cmd.info "show" ~doc) Term.(const run $ file_arg)

let () =
  let doc = "secure and unfailing services: verification of service compositions" in
  let info = Cmd.info "susf" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info
    [ check_cmd; check_network_cmd; plans_cmd; compliance_cmd; validity_cmd; simulate_cmd;
      dot_cmd; subcontract_cmd; dot_policy_cmd; cost_cmd; effects_cmd;
      graph_cmd; batch_cmd; coverage_cmd; msc_cmd; diagnose_cmd; lint_cmd;
      fmt_cmd;
      discover_cmd; audit_cmd; serve_cmd; show_cmd ]))
