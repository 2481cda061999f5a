open Core

type coalition = { rid : int; members : string list; controller : Controller.t }
type orchestrated = { client : string; coalitions : coalition list }

type declined =
  | No_candidates of { rid : int }
  | No_controller of {
      rid : int;
      explored : int;
      counterexample : Controller.counterexample;
    }
  | Outside_fragment of { rid : int; reason : string }

type verdict =
  | Planned of Planner.report
  | Orchestrated of orchestrated
  | Declined of declined

let default_max_parties = 6

let projectable h =
  match Contract.project h with
  | _ -> true
  | exception Contract.Unprojectable _ -> false

(* Eligible coalition members for one request site: policy-respecting
   (as Discovery filters candidates), projectable, and session-flat —
   projection erases a member's own [open]s, so a member with nested
   requests belongs to the 1:1 planner, not a coalition. *)
let candidates repo (site : Planner.site) =
  List.filter
    (fun (_, h) ->
      Hexpr.requests h = []
      && projectable h
      && (match site.Planner.req.Hexpr.policy with
         | None -> true
         | Some phi -> Result.is_ok (Validity.check_expr (Hexpr.frame phi h))))
    repo

(* Size-k sublists preserving order — coalition enumeration is smallest
   size first, repository order within a size. *)
let rec choose k lst =
  if k = 0 then [ [] ]
  else
    match lst with
    | [] -> []
    | x :: rest ->
        List.map (fun c -> x :: c) (choose (k - 1) rest) @ choose k rest

let synthesize_site ~max_parties repo ~cloc (site : Planner.site) =
  let rid = site.Planner.req.Hexpr.rid in
  match Contract.project site.Planner.body with
  | exception Contract.Unprojectable reason ->
      Error (Outside_fragment { rid; reason })
  | cb ->
      let cands = candidates repo site in
      if cands = [] then Error (No_candidates { rid })
      else begin
        let explored = ref 0 and last_ce = ref None in
        let max_members = max 1 (max_parties - 1) in
        let rec try_size k =
          if k > max_members || k > List.length cands then
            match !last_ce with
            | Some counterexample ->
                Error (No_controller { rid; explored = !explored; counterexample })
            | None -> Error (No_candidates { rid })
          else
            let rec try_coalitions = function
              | [] -> try_size (k + 1)
              | members :: rest -> (
                  incr explored;
                  Obs.Metrics.incr "orchestration.coalitions.explored";
                  let parties =
                    { Automaton.name = cloc; contract = cb }
                    :: List.map
                         (fun (loc, h) ->
                           {
                             Automaton.name = loc;
                             contract = Contract.project h;
                           })
                         members
                  in
                  match Controller.synthesize (Automaton.build parties) with
                  | Ok controller ->
                      Ok { rid; members = List.map fst members; controller }
                  | Error ce ->
                      last_ce := Some ce;
                      try_coalitions rest)
            in
            try_coalitions (choose k cands)
        in
        try_size 1
      end

let synthesize_client ?(max_parties = default_max_parties) repo
    ~client:(cloc, ch) =
  let sites = Planner.client_sites (cloc, ch) in
  let rec go acc = function
    | [] -> Ok { client = cloc; coalitions = List.rev acc }
    | s :: rest -> (
        match synthesize_site ~max_parties repo ~cloc s with
        | Ok c -> go (c :: acc) rest
        | Error d -> Error d)
  in
  go [] sites

let analyze ?max_parties repo ~client =
  Obs.Trace.with_span "orchestration.analyze" @@ fun () ->
  if Obs.Trace.active () then
    Obs.Trace.add_attr "client" (Obs.Trace.Str (fst client));
  match Planner.first_valid repo ~client with
  | Some r ->
      Obs.Metrics.incr "orchestration.fallback.planned";
      if Obs.Trace.active () then
        Obs.Trace.add_attr "verdict" (Obs.Trace.Str "planned");
      Planned r
  | None -> (
      match synthesize_client ?max_parties repo ~client with
      | Ok o ->
          if Obs.Trace.active () then
            Obs.Trace.add_attr "verdict" (Obs.Trace.Str "orchestrated");
          Orchestrated o
      | Error d ->
          Obs.Metrics.incr "orchestration.declined";
          if Obs.Trace.active () then
            Obs.Trace.add_attr "verdict" (Obs.Trace.Str "declined");
          Declined d)

let pp_coalition ppf c =
  Fmt.pf ppf "request %d: orchestrated via {%a} — controller %d states, %d transitions"
    c.rid
    Fmt.(list ~sep:(any ", ") string)
    c.members c.controller.Controller.states c.controller.Controller.transitions

let pp_declined ppf = function
  | No_candidates { rid } ->
      Fmt.pf ppf
        "request %d: no eligible coalition members (policy, fragment and \
         session-flatness filters left none)"
        rid
  | Outside_fragment { rid; reason } ->
      Fmt.pf ppf "request %d falls outside the compliance fragment: %s" rid
        reason
  | No_controller { rid; explored; counterexample } ->
      Fmt.pf ppf "request %d: no orchestrator after %d coalition%s — %a" rid
        explored
        (if explored = 1 then "" else "s")
        Controller.pp_counterexample counterexample

let pp_verdict ppf = function
  | Planned r -> Fmt.pf ppf "1:1 %a" Planner.pp_report r
  | Orchestrated o ->
      Fmt.pf ppf "client %s orchestrated:@,%a" o.client
        Fmt.(list ~sep:(any "@,") pp_coalition)
        o.coalitions
  | Declined d -> pp_declined ppf d
