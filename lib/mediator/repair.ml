open Core

(* The planner-level auto-repair path: the last rung of the repair
   ladder (direct plan -> coalition -> mediation -> decline-with-trace).
   [heal] synthesizes an adapter per client request site against the
   same eligibility filter the orchestration tier applies, then
   re-verifies the whole mediated triple through the {e unchanged}
   strict pipeline: the adapters join the repository as ordinary
   services, the mediated plan binds each site to its adapter, and
   [Planner.analyze] runs strict Compliance + Netcheck + Validity over
   it — so security conditions are exactly those of a direct plan. The
   healed service's own event behaviour is held
   to the imposed policy by the eligibility check
   ([Validity.check_expr] on [φ[h]]), the same discipline coalition
   members answer to. *)

type healed = {
  rid : int;
  service : string;  (** the location whose mismatch was repaired *)
  adapter_loc : string;  (** where the synthesized adapter is published *)
  mediator : Synthesis.mediator;
}

type mediated = {
  client : string;
  healed : healed list;  (** sites that needed an adapter, site order *)
  direct : (int * string) list;  (** sites bound without repair *)
  repo : Network.repo;  (** the repository extended with the adapters *)
  plan : Plan.t;  (** over the extended repository *)
  report : Planner.report;  (** the strict re-verification *)
}

type declined =
  | No_candidates of { rid : int }
  | Unmediable of {
      rid : int;
      service : string;  (** the last candidate tried *)
      counterexample : Synthesis.counterexample;
    }
  | Outside_fragment of { rid : int; reason : string }
  | Not_reverified of { rid : int; service : string; reason : string }

type verdict =
  | Planned of Planner.report
  | Orchestrated of Orchestration.Orchestrate.orchestrated
  | Mediated of mediated
  | Declined of {
      coalition : Orchestration.Orchestrate.declined;
      mediation : declined;
    }

let adapter_loc ~service ~rid = Fmt.str "%s~med%d" service rid

(* Channel names the rename repair must keep its hands off: every event
   name watched by a policy in scope (the site's imposed policy, the
   client's own framings, the candidate's). Renaming such a channel
   could shift which events a mediated run performs relative to what
   the policy was written against, so it is simply forbidden — the
   security conditions are never weakened, not even structurally. *)
let reserved_channels ~site_policy client_h service_h =
  let of_policy p =
    Usage.Policy.automaton p
    |> Usage.Policy.A.transitions
    |> List.map (fun (_, (l : Usage.Policy.Label.t), _) -> l.Usage.Policy.Label.ev_name)
  in
  let policies =
    (match site_policy with Some p -> [ p ] | None -> [])
    @ Hexpr.policies client_h @ Hexpr.policies service_h
  in
  List.concat_map of_policy policies |> List.sort_uniq String.compare

type site_result =
  | Bound_direct of string
  | Healed_via of healed

let heal_site ?(capacity = Synthesis.default_capacity) repo ~client_h
    (site : Planner.site) =
  let rid = site.Planner.req.Hexpr.rid in
  match Contract.project site.Planner.body with
  | exception Contract.Unprojectable reason ->
      Error (Outside_fragment { rid; reason })
  | cb -> (
      let cands = Orchestration.Orchestrate.candidates repo site in
      if cands = [] then Error (No_candidates { rid })
      else
        let rec try_cands last = function
          | [] -> (
              match last with
              | Some (service, counterexample) ->
                  Error (Unmediable { rid; service; counterexample })
              | None -> Error (No_candidates { rid }))
          | (loc, h) :: rest -> (
              let cs = Contract.project h in
              if (Product.survey cb cs).Product.stuck_states = 0 then
                (* strictly compliant as-is: bind directly, no adapter —
                   the minimal repair is no repair *)
                Ok (Bound_direct loc)
              else
                let reserved =
                  reserved_channels ~site_policy:site.Planner.req.Hexpr.policy
                    client_h h
                in
                let config = { Synthesis.capacity; reserved } in
                match
                  Synthesis.synthesize ~config ~client:cb ~service:cs ()
                with
                | Ok mediator ->
                    Ok
                      (Healed_via
                         {
                           rid;
                           service = loc;
                           adapter_loc = adapter_loc ~service:loc ~rid;
                           mediator;
                         })
                | Error ce -> try_cands (Some (loc, ce)) rest)
        in
        try_cands None cands)

let heal ?capacity repo ~client:(cloc, ch) =
  Obs.Trace.with_span "mediator.heal" @@ fun () ->
  if Obs.Trace.active () then Obs.Trace.add_attr "client" (Obs.Trace.Str cloc);
  let sites = Planner.client_sites (cloc, ch) in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | site :: rest -> (
        match heal_site ?capacity repo ~client_h:ch site with
        | Ok r -> go ((site.Planner.req.Hexpr.rid, r) :: acc) rest
        | Error d -> Error d)
  in
  match go [] sites with
  | Error d -> Error d
  | Ok bound -> (
      let healed =
        List.filter_map
          (function _, Healed_via hd -> Some hd | _, Bound_direct _ -> None)
          bound
      in
      let direct =
        List.filter_map
          (function rid, Bound_direct l -> Some (rid, l) | _ -> None)
          bound
      in
      match healed with
      | [] ->
          (* nothing to repair per site, yet no valid plan existed: the
             mismatch is global (security/progress), which mediation
             must not paper over *)
          let rid =
            match sites with
            | s :: _ -> s.Planner.req.Hexpr.rid
            | [] -> 0
          in
          Error
            (Not_reverified
               {
                 rid;
                 service = "-";
                 reason =
                   "every site binds directly, but the network-level check \
                    fails — not a communication mismatch";
               })
      | first :: _ -> (
          let repo' =
            repo
            @ List.map
                (fun hd ->
                  ( hd.adapter_loc,
                    Synthesis.hexpr_of_contract hd.mediator.Synthesis.adapter
                  ))
                healed
          in
          let plan =
            Plan.of_list
              (direct
              @ List.map (fun hd -> (hd.rid, hd.adapter_loc)) healed)
          in
          (* the strict re-verification: the existing pipeline, level
             Strict, no special cases — a mediated triple that does not
             survive it is declined, never admitted weakened. On top of
             the pipeline, every adapter is re-walked by the
             independent verifier against its service. *)
          Obs.Metrics.incr "mediator.reverify.runs";
          let report = Planner.analyze ~level:Compliance.Strict repo'
              ~client:(cloc, ch) plan
          in
          let verified hd =
            match List.assoc_opt hd.service repo with
            | None -> false
            | Some h ->
                let reserved =
                  let site =
                    List.find_opt
                      (fun (s : Planner.site) ->
                        s.Planner.req.Hexpr.rid = hd.rid)
                      sites
                  in
                  reserved_channels
                    ~site_policy:
                      (Option.bind site (fun (s : Planner.site) ->
                           s.Planner.req.Hexpr.policy))
                    ch h
                in
                let config =
                  {
                    Synthesis.capacity = hd.mediator.Synthesis.capacity;
                    reserved;
                  }
                in
                let cb =
                  match
                    List.find_opt
                      (fun (s : Planner.site) ->
                        s.Planner.req.Hexpr.rid = hd.rid)
                      sites
                  with
                  | Some s -> Contract.project s.Planner.body
                  | None -> Contract.nil
                in
                Synthesis.verify ~config ~client:cb
                  ~service:(Contract.project h) hd.mediator
          in
          match report.Planner.verdict with
          | Ok _ when List.for_all verified healed ->
              Obs.Metrics.incr "mediator.healed";
              Ok { client = cloc; healed; direct; repo = repo'; plan; report }
          | Ok _ ->
              Error
                (Not_reverified
                   {
                     rid = first.rid;
                     service = first.service;
                     reason = "independent adapter verification failed";
                   })
          | Error reason ->
              Error
                (Not_reverified
                   {
                     rid = first.rid;
                     service = first.service;
                     reason = Fmt.str "%a" Planner.pp_reason reason;
                   })))

(* ---- the full repair ladder ------------------------------------------- *)

let analyze ?max_parties ?capacity repo ~client =
  match Orchestration.Orchestrate.analyze ?max_parties repo ~client with
  | Orchestration.Orchestrate.Planned r -> Planned r
  | Orchestration.Orchestrate.Orchestrated o -> Orchestrated o
  | Orchestration.Orchestrate.Declined coalition -> (
      match heal ?capacity repo ~client with
      | Ok m -> Mediated m
      | Error mediation -> Declined { coalition; mediation })

let pp_healed ppf hd =
  Fmt.pf ppf "request %d: healed %s via %s — %a" hd.rid hd.service
    hd.adapter_loc Synthesis.pp_mediator hd.mediator

let pp_declined ppf = function
  | No_candidates { rid } ->
      Fmt.pf ppf
        "request %d: no eligible mediation candidates (policy, fragment and \
         session-flatness filters left none)"
        rid
  | Outside_fragment { rid; reason } ->
      Fmt.pf ppf "request %d falls outside the compliance fragment: %s" rid
        reason
  | Unmediable { rid; service; counterexample } ->
      Fmt.pf ppf "request %d: %s is unmediable — %a" rid service
        Synthesis.pp_counterexample counterexample
  | Not_reverified { rid; service; reason } ->
      Fmt.pf ppf "request %d: mediation via %s did not re-verify: %s" rid
        service reason

let pp_mediated ppf m =
  Fmt.pf ppf "client %s mediated:@,%a%a@,mediated triple re-verified: %s"
    m.client
    Fmt.(list ~sep:(any "@,") pp_healed)
    m.healed
    Fmt.(
      list ~sep:nop (fun ppf (rid, loc) ->
          Fmt.pf ppf "@,request %d: bound directly to %s" rid loc))
    m.direct
    (match m.report.Planner.verdict with
    | Ok _ -> "strict compliance + netcheck hold"
    | Error _ -> "FAILED")

let pp_verdict ppf = function
  | Planned r -> Fmt.pf ppf "1:1 %a" Planner.pp_report r
  | Orchestrated o -> Orchestration.Orchestrate.pp_verdict ppf
      (Orchestration.Orchestrate.Orchestrated o)
  | Mediated m -> pp_mediated ppf m
  | Declined { coalition; mediation } ->
      Fmt.pf ppf "no repair:@,%a@,%a"
        Orchestration.Orchestrate.pp_declined coalition pp_declined mediation
