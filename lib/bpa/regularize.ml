module H = Core.Hexpr

let rec go active (h : H.t) : H.t =
  match H.node h with
  | H.Nil -> H.nil
  | H.Var x -> H.var x
  | H.Mu (x, b) -> H.mu x (go active b)
  | H.Ext bs -> H.branch (List.map (fun (a, k) -> (a, go active k)) bs)
  | H.Int bs -> H.select (List.map (fun (a, k) -> (a, go active k)) bs)
  | H.Ev e -> H.event e
  | H.Seq (a, b) -> H.seq (go active a) (go active b)
  | H.Open ({ rid; policy = Some p }, b) ->
      let id = Usage.Policy.id p in
      if List.mem id active then H.open_ ~rid (go active b)
      else H.open_ ~rid ~policy:p (go (id :: active) b)
  | H.Open ({ rid; policy = None }, b) -> H.open_ ~rid (go active b)
  | H.Close { rid; policy } -> H.close ~rid ?policy ()
  | H.Frame (p, b) ->
      let id = Usage.Policy.id p in
      if List.mem id active then go active b
      else H.frame p (go (id :: active) b)
  | H.Frame_close p -> H.frame_close p
  | H.Choice (a, b) -> H.choice (go active a) (go active b)

let regularize h = go [] h

let rec depth active (h : H.t) : int =
  match H.node h with
  | H.Nil | H.Var _ | H.Ev _ | H.Close _ | H.Frame_close _ -> 0
  | H.Mu (_, b) -> depth active b
  | H.Ext bs | H.Int bs ->
      List.fold_left (fun m (_, k) -> max m (depth active k)) 0 bs
  | H.Seq (a, b) | H.Choice (a, b) -> max (depth active a) (depth active b)
  | H.Open ({ policy = Some p; _ }, b) | H.Frame (p, b) ->
      let id = Usage.Policy.id p in
      let here = 1 + List.length (List.filter (String.equal id) active) in
      max here (depth (id :: active) b)
  | H.Open ({ policy = None; _ }, b) -> depth active b

let max_nesting h = max 1 (depth [] h)
