type severity = Error | Warning | Info

type finding = { severity : severity; subject : string; message : string }

let pp_severity ppf = function
  | Error -> Fmt.string ppf "error"
  | Warning -> Fmt.string ppf "warning"
  | Info -> Fmt.string ppf "info"

let pp_finding ppf f =
  Fmt.pf ppf "%a: %s: %s" pp_severity f.severity f.subject f.message

let duplicates names =
  let sorted = List.sort String.compare names in
  let rec go = function
    | a :: (b :: _ as rest) -> if String.equal a b then a :: go rest else go rest
    | _ -> []
  in
  List.sort_uniq String.compare (go sorted)

(* every (direction, channel) pair used anywhere in an expression,
   added to the [uses] table in one walk *)
let rec channel_uses uses (h : Core.Hexpr.t) =
  let prefixed dir =
    List.iter (fun (a, k) ->
        Hashtbl.replace uses (dir, a) ();
        channel_uses uses k)
  in
  match Core.Hexpr.node h with
  | Core.Hexpr.Nil | Core.Hexpr.Var _ | Core.Hexpr.Ev _ | Core.Hexpr.Close _
  | Core.Hexpr.Frame_close _ ->
      ()
  | Core.Hexpr.Mu (_, b)
  | Core.Hexpr.Open (_, b)
  | Core.Hexpr.Frame (_, b) ->
      channel_uses uses b
  | Core.Hexpr.Ext bs -> prefixed `In bs
  | Core.Hexpr.Int bs -> prefixed `Out bs
  | Core.Hexpr.Seq (a, b) | Core.Hexpr.Choice (a, b) ->
      channel_uses uses a;
      channel_uses uses b

let spec (s : Spec.t) =
  let findings = ref [] in
  let add severity subject message =
    findings := { severity; subject; message } :: !findings
  in
  let exprs =
    List.map (fun (n, h) -> ("service " ^ n, h)) s.Spec.services
    @ List.map (fun (n, h) -> ("client " ^ n, h)) s.Spec.clients
  in

  (* duplicate names *)
  List.iter
    (fun (kind, names) ->
      List.iter
        (fun n -> add Error (kind ^ " " ^ n) "declared more than once")
        (duplicates names))
    [
      ("service", List.map fst s.Spec.services);
      ("client", List.map fst s.Spec.clients);
      ("plan", List.map fst s.Spec.plans);
      ("program", List.map fst s.Spec.programs);
    ];

  (* plans *)
  let known_rids =
    List.concat_map
      (fun (_, h) -> List.map (fun r -> r.Core.Hexpr.rid) (Core.Hexpr.requests h))
      exprs
    |> List.sort_uniq Int.compare
  in
  List.iter
    (fun (pname, plan) ->
      List.iter
        (fun (rid, loc) ->
          if not (List.mem_assoc loc s.Spec.services) then
            add Error ("plan " ^ pname)
              (Printf.sprintf "request %d bound to unknown service %s" rid loc);
          if not (List.mem rid known_rids) then
            add Warning ("plan " ^ pname)
              (Printf.sprintf "request %d is not opened by any declaration" rid))
        (Core.Plan.bindings plan))
    s.Spec.plans;

  (* client requests with no plan coverage *)
  List.iter
    (fun (cname, h) ->
      List.iter
        (fun r ->
          let rid = r.Core.Hexpr.rid in
          let covered =
            List.exists
              (fun (_, plan) -> Core.Plan.find plan rid <> None)
              s.Spec.plans
          in
          if not covered then
            add Warning ("client " ^ cname)
              (Printf.sprintf "request %d is not covered by any declared plan" rid);
          if r.Core.Hexpr.policy = None then
            add Info ("client " ^ cname)
              (Printf.sprintf "request %d imposes no policy" rid))
        (Core.Hexpr.requests h))
    s.Spec.clients;

  (* policies vs the spec's ground events *)
  let ground_events =
    List.concat_map (fun (_, h) -> Core.Hexpr.events h) exprs
    |> List.sort_uniq Usage.Event.compare
  in
  let ground_names =
    List.map (fun (e : Usage.Event.t) -> e.name) ground_events
    |> List.sort_uniq String.compare
  in
  let policies =
    List.concat_map (fun (_, h) -> Core.Hexpr.policies h) exprs
    |> List.sort_uniq Usage.Policy.compare
  in
  List.iter
    (fun p ->
      let observed = Usage.Policy_ops.event_names p in
      let unheard =
        List.filter (fun n -> not (List.mem n ground_names)) observed
      in
      List.iter
        (fun n ->
          add Warning
            ("policy " ^ Usage.Policy.id p)
            (Printf.sprintf "observes event %s, which nothing in this specification fires" n))
        unheard;
      if
        ground_events <> []
        && Usage.Policy_ops.vacuous ~alphabet:ground_events p
      then
        add Warning
          ("policy " ^ Usage.Policy.id p)
          "cannot be violated by any event of this specification (vacuous)")
    policies;

  (* channel polarity coverage *)
  let uses = Hashtbl.create 64 in
  List.iter (fun (_, h) -> channel_uses uses h) exprs;
  let chans =
    Hashtbl.fold (fun (_, c) () acc -> c :: acc) uses []
    |> List.sort_uniq String.compare
  in
  List.iter
    (fun c ->
      let has d = Hashtbl.mem uses (d, c) in
      if has `Out && not (has `In) then
        add Warning ("channel " ^ c) "has outputs but no input anywhere";
      if has `In && not (has `Out) then
        add Warning ("channel " ^ c) "has inputs but no output anywhere")
    chans;

  (* networks *)
  List.iter
    (fun (n, _) ->
      match Spec.resolve_network s n with
      | Ok _ -> ()
      | Error msg -> add Error ("network " ^ n) msg)
    s.Spec.networks;

  let rank f = match f.severity with Error -> 0 | Warning -> 1 | Info -> 2 in
  List.stable_sort (fun a b -> Int.compare (rank a) (rank b)) (List.rev !findings)
