open Core

(* The planner-level auto-repair path: the last rung of the repair
   ladder (direct plan -> coalition -> mediation -> decline-with-trace).
   [heal] synthesizes an adapter per client request site against the
   same eligibility filter the orchestration tier applies, then
   re-verifies the whole mediated triple through the {e unchanged}
   strict pipeline: the adapters join the repository as ordinary
   services, the mediated plan binds each site to its adapter, and
   [Planner.analyze] runs strict Compliance + Netcheck + Validity over
   it.

   The re-verification sees the adapter in the service's place, and the
   adapter performs none of the service's events, so the service's
   security is vouched for before synthesis: the imposed policy by the
   eligibility check ([Validity.check_expr] on [φ[h]]), and every other
   policy by leaving out a candidate that a policy of the client or of
   its own watches across parties ([Orchestrate.unwatched] on the
   candidate alone), and by declining when the services bound at two
   sites watch each other's events. *)

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
  | Unvouched of { rid : int; reason : string }

type verdict =
  | Planned of Planner.report
  | Orchestrated of Orchestration.Orchestrate.orchestrated
  | Mediated of mediated
  | Declined of {
      coalition : Orchestration.Orchestrate.declined;
      mediation : declined option;
          (** [None]: the climb stopped at coalitions, or the client
              itself is unfit *)
    }

let adapter_loc ~service ~rid = Fmt.str "%s~med%d" service rid

type site_result =
  | Bound_direct of string
  | Healed_via of healed

let event_names h =
  List.sort_uniq String.compare
    (List.map (fun (e : Usage.Event.t) -> e.name) (Hexpr.events h))

let inter a b = List.filter (fun x -> List.mem x b) a

(* The events of [h] and [h'] that a policy of the other, or of [h]
   itself, watches. *)
let crossing h h' =
  let w = Orchestration.Orchestrate.watched in
  List.sort_uniq String.compare
    (inter (event_names h) (w [ h; h' ]) @ inter (event_names h') (w [ h ]))

let names = Fmt.(list ~sep:(any ", ") string)

let heal_site repo ~client_h (site : Planner.site) =
  let rid = site.Planner.req.Hexpr.rid in
  match Contract.project site.Planner.body with
  | exception Contract.Unprojectable reason ->
      Error (Outside_fragment { rid; reason })
  | cb -> (
      let eligible = Orchestration.Orchestrate.candidates repo site in
      let cands =
        List.filter
          (fun c -> Orchestration.Orchestrate.unwatched client_h [ c ] <> [])
          eligible
      in
      if eligible = [] then Error (No_candidates { rid })
      else if cands = [] then
        Error
          (Unvouched
             {
               rid;
               reason =
                 Fmt.str
                   "policies watch %a across parties for every eligible \
                    candidate (%a)"
                   names
                   (List.sort_uniq String.compare
                      (List.concat_map
                         (fun (_, h) -> crossing h client_h)
                         eligible))
                   names (List.map fst eligible);
             })
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
                (* the rename repair keeps its hands off every event name a
                   policy in scope watches (the client's framings and
                   request policies, the site's among them, and the
                   candidate's): renaming one could shift which events a
                   mediated run performs relative to what the policy was
                   written against, so security is never weakened, not
                   even structurally *)
                let reserved =
                  Orchestration.Orchestrate.watched [ client_h; h ]
                in
                let config =
                  { Synthesis.capacity = Synthesis.default_capacity; reserved }
                in
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

let heal repo ~client:(cloc, ch) =
  Obs.Trace.with_span "mediator.heal" @@ fun () ->
  if Obs.Trace.active () then Obs.Trace.add_attr "client" (Obs.Trace.Str cloc);
  let sites = Planner.client_sites (cloc, ch) in
  (* the services bound at two sites must not watch each other's events:
     the re-verification sees neither *)
  let rec unvouched = function
    | [] -> None
    | (rid, loc, h) :: rest -> (
        match List.find_opt (fun (_, _, h') -> crossing h h' <> []) rest with
        | Some (rid', loc', h') ->
            Some
              (Unvouched
                 {
                   rid = rid';
                   reason =
                     Fmt.str
                       "the services bound at requests %d (%s) and %d (%s) \
                        watch each other's %a"
                       rid loc rid' loc' names (crossing h h');
                 })
        | None -> unvouched rest)
  in
  let service = function
    | rid, (Bound_direct loc | Healed_via { service = loc; _ }) ->
        (rid, loc, List.assoc loc repo)
  in
  let rec go acc = function
    | [] -> (
        let bound = List.rev acc in
        match unvouched (List.map service bound) with
        | Some d -> Error d
        | None -> Ok bound)
    | site :: rest -> (
        match heal_site repo ~client_h:ch site with
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
                    (hd.mediator.Synthesis.adapter :> Hexpr.t) ))
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
                let config =
                  {
                    Synthesis.capacity = hd.mediator.Synthesis.capacity;
                    reserved = Orchestration.Orchestrate.watched [ ch; h ];
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

(* ---- the repair ladder ------------------------------------------------ *)

(* Rungs 2-3 for a client that rung 1 (a valid 1:1 plan) left unserved:
   coalition synthesis; then, with [mediate], adapter synthesis; else a
   decline carrying each rung's trace. A client the coalition rung
   declines for its own conduct ([Unfit_client]) is declined at once:
   no adapter mends it. Every front end climbs through here: [susf plans
   --orchestrate/--mediate], the broker's [orchestrate]/[mediate] verbs
   and [analyze]. Never answers [Planned]. *)
let climb ~mediate repo ~client =
  Obs.Trace.with_span "orchestration.analyze" @@ fun () ->
  let traced = Obs.Trace.active () in
  if traced then Obs.Trace.add_attr "client" (Obs.Trace.Str (fst client));
  let verdict, tag =
    match Orchestration.Orchestrate.synthesize_client repo ~client with
    | Ok o -> (Orchestrated o, "orchestrated")
    | Error coalition -> (
        Obs.Metrics.incr "orchestration.declined";
        let declined mediation =
          (Declined { coalition; mediation }, "declined")
        in
        match coalition with
        | Orchestration.Orchestrate.Unfit_client _ -> declined None
        | _ when not mediate -> declined None
        | _ -> (
            match heal repo ~client with
            | Ok m -> (Mediated m, "mediated")
            | Error d -> declined (Some d)))
  in
  if traced then Obs.Trace.add_attr "verdict" (Obs.Trace.Str tag);
  verdict

(* The whole ladder: the first valid 1:1 plan, else [climb] through
   mediation. *)
let analyze repo ~client =
  match Planner.first_valid repo ~client with
  | Some r -> Planned r
  | None -> climb ~mediate:true repo ~client

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
  | Unvouched { rid; reason } ->
      Fmt.pf ppf "request %d: no mediation can be vouched for: %s" rid reason

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
  | Orchestrated o ->
      Fmt.pf ppf "client %s orchestrated:@,%a" o.client
        Fmt.(list ~sep:(any "@,") Orchestration.Orchestrate.pp_coalition)
        o.coalitions
  | Mediated m -> pp_mediated ppf m
  | Declined { coalition; mediation } ->
      Fmt.pf ppf "no repair:@,%a%a" Orchestration.Orchestrate.pp_declined
        coalition
        Fmt.(option (any "@," ++ pp_declined))
        mediation
