type site = { req : Hexpr.req; body : Hexpr.t; owner : string }

type reason =
  | Unserved of int
  | Not_compliant of {
      rid : int;
      loc : string;
      counterexample : Product.counterexample;
    }
  | Insecure of Netcheck.stuck
  | Outside_fragment of { rid : int; loc : string; reason : string }

type report = { plan : Plan.t; verdict : (Netcheck.stats, reason) result }

let rec open_sites owner (h : Hexpr.t) =
  match Hexpr.node h with
  | Hexpr.Open (r, b) -> { req = r; body = b; owner } :: open_sites owner b
  | Hexpr.Nil | Hexpr.Var _ | Hexpr.Ev _ | Hexpr.Close _ | Hexpr.Frame_close _
    ->
      []
  | Hexpr.Mu (_, b) | Hexpr.Frame (_, b) -> open_sites owner b
  | Hexpr.Ext bs | Hexpr.Int bs ->
      List.concat_map (fun (_, k) -> open_sites owner k) bs
  | Hexpr.Seq (a, b) | Hexpr.Choice (a, b) ->
      open_sites owner a @ open_sites owner b

let dedup_sites sites =
  let seen = Hashtbl.create 17 in
  List.filter
    (fun s ->
      if Hashtbl.mem seen s.req.Hexpr.rid then false
      else begin
        Hashtbl.replace seen s.req.Hexpr.rid ();
        true
      end)
    sites

let sites repo (cloc, ch) =
  dedup_sites
    (open_sites cloc ch
    @ List.concat_map (fun (loc, h) -> open_sites loc h) repo)

let client_sites (cloc, ch) = dedup_sites (open_sites cloc ch)

(* Sites actually reachable under a plan: the client's own, plus those of
   every service the plan pulls in, transitively. *)
let reachable_sites repo plan (cloc, ch) =
  let rec go acc done_locs frontier =
    match frontier with
    | [] -> List.rev acc
    | s :: rest -> (
        let acc =
          if List.exists (fun s' -> s'.req.Hexpr.rid = s.req.Hexpr.rid) acc
          then acc
          else s :: acc
        in
        match Plan.find plan s.req.Hexpr.rid with
        | None -> go acc done_locs rest
        | Some loc ->
            if List.mem loc done_locs then go acc done_locs rest
            else
              let extra =
                match List.assoc_opt loc repo with
                | None -> []
                | Some h -> open_sites loc h
              in
              go acc (loc :: done_locs) (rest @ extra))
  in
  go [] [] (open_sites cloc ch)

let analyze ?(level = Compliance.Strict) repo ~client plan =
  Obs.Trace.with_span "planner.analyze" @@ fun () ->
  if Obs.Trace.active () then begin
    Obs.Trace.add_attr "client" (Obs.Trace.Str (fst client));
    Obs.Trace.add_attr "plan" (Obs.Trace.Str (Fmt.str "%a" Plan.pp plan));
    Obs.Trace.add_attr "level" (Obs.Trace.Str (Compliance.level_to_string level))
  end;
  Obs.Metrics.incr "planner.analyze.calls";
  let sites = reachable_sites repo plan client in
  if Obs.Metrics.active () then
    Obs.Metrics.observe "planner.sites.per_analyze" (List.length sites);
  let survey body hs =
    let cb = Contract.project body and cs = Contract.project hs in
    Product.survey cb cs
  in
  let rec check_compliance = function
    | [] -> None
    | s :: rest -> (
        let rid = s.req.Hexpr.rid in
        match Plan.find plan rid with
        | None -> Some (Unserved rid)
        | Some loc -> (
            match List.assoc_opt loc repo with
            | None -> Some (Unserved rid)
            | Some hs -> (
                match survey s.body hs with
                | sv when Product.admits level sv -> check_compliance rest
                | sv -> (
                    (* inadmissible at any level implies a reachable
                       stuck state, so the counterexample exists *)
                    match sv.Product.first_counterexample with
                    | Some ce ->
                        Some (Not_compliant { rid; loc; counterexample = ce })
                    | None ->
                        invalid_arg
                          "Planner.analyze: inadmissible survey without \
                           counterexample")
                | exception Contract.Unprojectable why ->
                    Some (Outside_fragment { rid; loc; reason = why }))))
  in
  match check_compliance sites with
  | Some r -> { plan; verdict = Error r }
  | None -> (
      match Netcheck.check_client ~level repo plan client with
      | Netcheck.Valid stats -> { plan; verdict = Ok stats }
      | Netcheck.Invalid stuck -> { plan; verdict = Error (Insecure stuck) })

(* The plans in enumeration order, produced lazily: a depth-first search
   that binds each pending request to every location in repository
   order, queueing the sites the chosen service opens. *)
let plans repo ~client:(cloc, ch) =
  ignore cloc;
  let locs = List.to_seq (List.map fst repo) in
  let reqs_of loc =
    match List.assoc_opt loc repo with
    | None -> []
    | Some h -> List.map (fun s -> s.req.Hexpr.rid) (open_sites loc h)
  in
  let rec go plan pending () =
    match pending with
    | [] -> Seq.Cons (plan, Seq.empty)
    | r :: rest ->
        if Plan.find plan r <> None then go plan rest ()
        else
          Seq.concat_map
            (fun loc ->
              let fresh =
                reqs_of loc
                |> List.filter (fun r' ->
                       Plan.find plan r' = None && not (List.mem r' rest)
                       && r' <> r)
              in
              go (Plan.add r loc plan) (rest @ fresh))
            locs ()
  in
  go Plan.empty (List.map (fun s -> s.req.Hexpr.rid) (open_sites cloc ch))

let enumerate repo ~client = List.of_seq (plans repo ~client)

(* A location appended to the repository comes last at every decision,
   so the probe's first plan marks where the plans through an appended
   location start. The name has a space in it, which neither the .susf
   nor the script grammar lets a location have. *)
let exposed repo ~client plan =
  let probe = " appended" in
  let rec scan s =
    match s () with
    | Seq.Nil -> true (* not a plan of [repo]: nothing vouches for it *)
    | Seq.Cons (p, rest) ->
        if Plan.equal p plan then false
        else if
          List.exists (fun (_, l) -> String.equal l probe) (Plan.bindings p)
        then true
        else scan rest
  in
  scan (plans (repo @ [ (probe, Hexpr.nil) ]) ~client)

let valid_plans ?(all = true) repo ~client =
  Obs.Trace.with_span "planner.valid_plans" @@ fun () ->
  let plans = enumerate repo ~client in
  Obs.Metrics.add "planner.plans.explored" (List.length plans);
  plans
  |> List.map (fun plan -> analyze repo ~client plan)
  |> List.filter (fun r -> all || Result.is_ok r.verdict)

let first_valid ?level repo ~client =
  Seq.find_map
    (fun plan ->
      let r = analyze ?level repo ~client plan in
      if Result.is_ok r.verdict then Some r else None)
    (plans repo ~client)

let pp_reason ppf = function
  | Unserved r -> Fmt.pf ppf "request %d is not served by the plan" r
  | Outside_fragment { rid; loc; reason } ->
      Fmt.pf ppf
        "request %d against %s falls outside the compliance fragment: %s" rid
        loc reason
  | Not_compliant { rid; loc; counterexample } ->
      Fmt.pf ppf "request %d against %s is not compliant:@ %a" rid loc
        Product.pp_counterexample counterexample
  | Insecure stuck -> Netcheck.pp_stuck ppf stuck

let pp_report ppf r =
  match r.verdict with
  | Ok stats ->
      Fmt.pf ppf "plan %a: VALID (%d states)" Plan.pp r.plan stats.states
  | Error reason ->
      Fmt.pf ppf "plan %a: invalid — %a" Plan.pp r.plan pp_reason reason
