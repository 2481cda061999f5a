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
  | Unvouched of { rid : int; reason : string }
  | Unfit_client of { reason : string }

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

(* The event names the policies of [hs] watch, framings and request
   policies alike. *)
let watched hs =
  List.concat_map Hexpr.policies hs
  |> List.concat_map (fun p ->
         Usage.Policy.automaton p |> Usage.Policy.A.transitions
         |> List.map (fun (_, (l : Usage.Policy.Label.t), _) ->
                l.Usage.Policy.Label.ev_name))
  |> List.sort_uniq String.compare

(* The controller decides communication only, so the rung keeps
   security by letting no policy see into a member: a candidate is left
   out when a policy of the client or of any candidate watches an event
   it performs, or one of its own policies watches an event the client
   or any candidate performs. "Any candidate" includes itself: its run
   lands in the shared history, where its own framing may also see a
   second session of its own. *)
let unwatched ch cands =
  let profile h =
    (List.map (fun (e : Usage.Event.t) -> e.name) (Hexpr.events h), watched [ h ])
  in
  let meets a b = List.exists (fun x -> List.mem x b) a in
  let sees (ev, w) (ev', w') = meets ev w' || meets w ev' in
  let client = profile ch in
  let profiles = List.map (fun (_, h) -> profile h) cands in
  List.filter
    (fun (_, h) ->
      let p = profile h in
      not (sees p client || List.exists (sees p) profiles))
    cands

(* Whether [h] sends or receives outside every session: no coalition
   partners such an action. *)
let rec talks_outside_sessions (h : Hexpr.t) =
  match Hexpr.node h with
  | Hexpr.Ext _ | Hexpr.Int _ -> true
  | Hexpr.Open _ | Hexpr.Nil | Hexpr.Var _ | Hexpr.Ev _ | Hexpr.Close _
  | Hexpr.Frame_close _ ->
      false
  | Hexpr.Mu (_, b) | Hexpr.Frame (_, b) -> talks_outside_sessions b
  | Hexpr.Seq (a, b) | Hexpr.Choice (a, b) ->
      talks_outside_sessions a || talks_outside_sessions b

(* Size-k sublists preserving order — coalition enumeration is smallest
   size first, repository order within a size. *)
let rec choose k lst =
  if k = 0 then [ [] ]
  else
    match lst with
    | [] -> []
    | x :: rest ->
        List.map (fun c -> x :: c) (choose (k - 1) rest) @ choose k rest

(* A coalition holds the client and at most five members. *)
let max_members = 5

let synthesize_site repo ~client:(cloc, ch) (site : Planner.site) =
  let rid = site.Planner.req.Hexpr.rid in
  match Contract.project site.Planner.body with
  | exception Contract.Unprojectable reason ->
      Error (Outside_fragment { rid; reason })
  | cb ->
      let eligible = candidates repo site in
      let cands = unwatched ch eligible in
      if eligible = [] then Error (No_candidates { rid })
      else if cands = [] then
        Error
          (Unvouched
             {
               rid;
               reason =
                 Fmt.str
                   "policies watch events across parties for every eligible \
                    member (%a)"
                   Fmt.(list ~sep:(any ", ") string)
                   (List.map fst eligible);
             })
      else begin
        let explored = ref 0 and last_ce = ref None in
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

let synthesize_client repo ~client:(cloc, ch) =
  let sites = Planner.client_sites (cloc, ch) in
  let unfit reason = Error (Unfit_client { reason }) in
  let rec go acc = function
    | [] -> Ok { client = cloc; coalitions = List.rev acc }
    | s :: rest -> (
        match synthesize_site repo ~client:(cloc, ch) s with
        | Ok c -> go (c :: acc) rest
        | Error d -> Error d)
  in
  (* what no controller can mend: the client's own conduct *)
  if sites = [] then unfit "it has no request site"
  else if Result.is_error (Validity.check_expr ch) then
    unfit "it is not valid on its own"
  else if talks_outside_sessions ch then
    unfit "it communicates outside every session"
  else go [] sites

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
  | Unvouched { rid; reason } ->
      Fmt.pf ppf "request %d: no coalition can be vouched for: %s" rid reason
  | Unfit_client { reason } ->
      Fmt.pf ppf "no coalition or adapter can mend the client itself: %s"
        reason
  | No_controller { rid; explored; counterexample } ->
      Fmt.pf ppf "request %d: no orchestrator after %d coalition%s — %a" rid
        explored
        (if explored = 1 then "" else "s")
        Controller.pp_counterexample counterexample
