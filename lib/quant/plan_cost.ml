let glabel_weight model = function
  | Core.Network.L_event (_, e) -> Model.cost model e
  | Core.Network.L_open _ | Core.Network.L_close _ | Core.Network.L_sync _
  | Core.Network.L_frame_open _ | Core.Network.L_frame_close _
  | Core.Network.L_commit _ | Core.Network.L_crash _ | Core.Network.L_abort _ ->
      0.

let worst_case repo plan client model =
  let g = Core.Netcheck.graph repo plan client in
  Graph.supremum
    ~n:(Array.length g.Core.Netcheck.nodes)
    ~edges:
      (List.map
         (fun (i, l, j) -> (i, glabel_weight model l, j))
         g.Core.Netcheck.edges)
    ~init:0

type priced = { plan : Core.Plan.t; cost : float option }

let cheapest repo ~client model =
  let valid = Core.Planner.valid_plans ~all:false repo ~client in
  let priced =
    List.map
      (fun (r : Core.Planner.report) ->
        { plan = r.Core.Planner.plan;
          cost = worst_case repo r.Core.Planner.plan client model })
      valid
  in
  let better a b =
    match (a.cost, b.cost) with
    | Some x, Some y -> if x <= y then a else b
    | Some _, None -> a
    | None, Some _ -> b
    | None, None -> a
  in
  match priced with
  | [] -> None
  | p :: rest -> Some (List.fold_left better p rest)

let pp_priced ppf p =
  match p.cost with
  | Some c -> Fmt.pf ppf "%a at worst-case cost %g" Core.Plan.pp p.plan c
  | None -> Fmt.pf ppf "%a with unbounded cost" Core.Plan.pp p.plan
