type move = int * Network.glabel * Network.config
type scheduler = step:int -> move list -> move option

let first ~step:_ = function [] -> None | m :: _ -> Some m

let random ~seed =
  let state = Random.State.make [| seed |] in
  fun ~step:_ moves ->
    match moves with
    | [] -> None
    | _ -> Some (List.nth moves (Random.State.int state (List.length moves)))

let prefer preds ~step:_ moves =
  match moves with
  | [] -> None
  | default :: _ ->
      let rec pick = function
        | [] -> Some default
        | p :: rest -> (
            match List.find_opt (fun (_, g, _) -> p g) moves with
            | Some m -> Some m
            | None -> pick rest)
      in
      pick preds

let script preds ~step moves =
  match List.nth_opt preds step with
  | None -> None
  | Some p -> List.find_opt (fun (_, g, _) -> p g) moves

type outcome =
  | Completed
  | Stuck of string list
  | Degraded of { completed : string list; abandoned : (string * string) list }
  | Out_of_fuel
  | Stopped

type trace = {
  steps : (Network.glabel * Network.config) list;
  final : Network.config;
  outcome : outcome;
}

let unfinished cfg =
  List.filter_map
    (fun c ->
      if Network.terminated c.Network.comp then None
      else Some (Network.client_location c.Network.comp))
    cfg

let outcome_tag = function
  | Completed -> "completed"
  | Stuck _ -> "stuck"
  | Degraded _ -> "degraded"
  | Out_of_fuel -> "out-of-fuel"
  | Stopped -> "stopped"

let run ?(max_steps = 1000) ?(monitored = true) repo cfg0 (sched : scheduler) =
  Obs.Trace.with_span "simulate.run" @@ fun () ->
  Obs.Metrics.incr "simulate.runs";
  let finish acc cfg outcome =
    let steps = List.rev acc in
    if Obs.Metrics.active () then begin
      Obs.Metrics.observe "simulate.steps.per_run" (List.length steps);
      Obs.Metrics.incr ("simulate.outcome." ^ outcome_tag outcome)
    end;
    if Obs.Trace.active () then begin
      Obs.Trace.add_attr "steps" (Obs.Trace.Int (List.length steps));
      Obs.Trace.add_attr "outcome" (Obs.Trace.Str (outcome_tag outcome))
    end;
    { steps; final = cfg; outcome }
  in
  let rec go acc step cfg =
    if step >= max_steps then finish acc cfg Out_of_fuel
    else
      match Network.steps ~monitored repo cfg with
      | [] ->
          finish acc cfg
            (if Network.config_done cfg then Completed else Stuck (unfinished cfg))
      | moves -> (
          match sched ~step moves with
          | None ->
              finish acc cfg
                (if Network.config_done cfg then Completed else Stopped)
          | Some (_, g, cfg') ->
              Obs.Metrics.incr "simulate.transitions";
              go ((g, cfg') :: acc) (step + 1) cfg')
  in
  go [] 0 cfg0

let pp_outcome ppf = function
  | Completed -> Fmt.string ppf "completed"
  | Stuck [] -> Fmt.string ppf "stuck"
  | Stuck unfinished ->
      Fmt.pf ppf "stuck (unfinished: %a)"
        Fmt.(list ~sep:(any ", ") string)
        unfinished
  | Degraded { completed; abandoned } ->
      Fmt.pf ppf "degraded (completed: %a; abandoned: %a)"
        Fmt.(list ~sep:(any ", ") string)
        completed
        Fmt.(
          list ~sep:(any ", ") (fun ppf (l, why) -> pf ppf "%s — %s" l why))
        abandoned
  | Out_of_fuel -> Fmt.string ppf "out of fuel"
  | Stopped -> Fmt.string ppf "stopped by scheduler"

let pp_trace ppf t =
  List.iter
    (fun (g, cfg) ->
      Fmt.pf ppf "  --%a-->@.%a@." Network.pp_glabel g Network.pp_config cfg)
    t.steps;
  Fmt.pf ppf "outcome: %a@." pp_outcome t.outcome

let pp_trace_compact ppf t =
  List.iteri
    (fun i (g, _) -> Fmt.pf ppf "%3d. %a@." (i + 1) Network.pp_glabel g)
    t.steps;
  Fmt.pf ppf "outcome: %a@." pp_outcome t.outcome

let follow ?max_steps repo cfg labels =
  let preds = List.map (fun g g' -> Network.glabel_equal g g') labels in
  run ?max_steps repo cfg (script preds)

type stats = {
  runs : int;
  completed : int;
  stuck : int;
  out_of_fuel : int;
  avg_steps : float;
  avg_events : float;
  outcomes_valid : int;
}

let batch ?(runs = 100) ?(max_steps = 1000) repo mk_config =
  let completed = ref 0 and stuck = ref 0 and fuel = ref 0 in
  let steps = ref 0 and events = ref 0 and valid = ref 0 in
  for seed = 1 to runs do
    let t = run ~max_steps repo (mk_config ()) (random ~seed) in
    (match t.outcome with
    | Completed -> incr completed
    | Stuck _ | Degraded _ -> incr stuck
    | Out_of_fuel -> incr fuel
    | Stopped -> ());
    steps := !steps + List.length t.steps;
    List.iter
      (fun (g, _) ->
        match g with Network.L_event _ -> incr events | _ -> ())
      t.steps;
    if
      List.for_all
        (fun c -> Validity.valid (Validity.Monitor.history c.Network.monitor))
        t.final
    then incr valid
  done;
  {
    runs;
    completed = !completed;
    stuck = !stuck;
    out_of_fuel = !fuel;
    avg_steps = float_of_int !steps /. float_of_int (max 1 runs);
    avg_events = float_of_int !events /. float_of_int (max 1 runs);
    outcomes_valid = !valid;
  }

let pp_stats ppf s =
  Fmt.pf ppf
    "%d runs: %d completed, %d stuck, %d out-of-fuel; avg %.1f steps, %.1f \
     events; %d with valid histories"
    s.runs s.completed s.stuck s.out_of_fuel s.avg_steps s.avg_events
    s.outcomes_valid

let coverage ?(runs = 100) ?(max_steps = 1000) repo mk_config =
  let counts = Hashtbl.create 17 in
  let bump key =
    Hashtbl.replace counts key (1 + Option.value (Hashtbl.find_opt counts key) ~default:0)
  in
  for seed = 1 to runs do
    let t = run ~max_steps repo (mk_config ()) (random ~seed) in
    List.iter
      (fun (g, _) ->
        match (g : Network.glabel) with
        | Network.L_sync (_, _, a) -> bump ("chan:" ^ a)
        | Network.L_event (_, e) -> bump ("event:" ^ e.Usage.Event.name)
        | Network.L_open (r, _, _) -> bump (Printf.sprintf "open:%d" r.Hexpr.rid)
        | Network.L_close _ | Network.L_frame_open _ | Network.L_frame_close _
        | Network.L_commit _ | Network.L_crash _ | Network.L_abort _ ->
            ())
      t.steps
  done;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
