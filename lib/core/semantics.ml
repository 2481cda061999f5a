module Map = Map.Make (Hexpr)
module Set = Set.Make (Hexpr)

let is_terminated h = Hexpr.equal h Hexpr.nil

let rec transitions (h : Hexpr.t) : (Action.t * Hexpr.t) list =
  match h with
  | Nil | Var _ -> []
  | Ev e -> [ (Action.Evt e, Hexpr.nil) ]
  | Ext bs -> List.map (fun (a, k) -> (Action.In a, k)) bs
  | Int bs -> List.map (fun (a, k) -> (Action.Out a, k)) bs
  | Mu (x, b) -> transitions (Hexpr.unfold x b)
  | Seq (h1, h2) ->
      (* [seq] keeps sequences ε-free on the left, so only the Conc rule
         applies. *)
      List.map (fun (l, h1') -> (l, Hexpr.seq h1' h2)) (transitions h1)
  | Open (r, b) -> [ (Action.Op r, Hexpr.seq b (Hexpr.close ~rid:r.rid ?policy:r.policy ())) ]
  | Close r -> [ (Action.Cl r, Hexpr.nil) ]
  | Frame (p, b) -> [ (Action.Frm_open p, Hexpr.seq b (Hexpr.frame_close p)) ]
  | Frame_close p -> [ (Action.Frm_close p, Hexpr.nil) ]
  | Choice (a, b) -> [ (Action.Tau, a); (Action.Tau, b) ]

let step h l =
  transitions h
  |> List.filter_map (fun (l', h') -> if Action.equal l l' then Some h' else None)

let reachable ?(limit = 100_000) h0 =
  let rec loop seen = function
    | [] -> seen
    | h :: todo ->
        if Set.cardinal seen > limit then
          failwith "Semantics.reachable: state limit exceeded (ill-formed recursion?)"
        else
          let succs =
            transitions h |> List.map snd
            |> List.filter (fun k -> not (Set.mem k seen))
            |> List.sort_uniq Hexpr.compare
          in
          let seen = List.fold_left (fun s k -> Set.add k s) seen succs in
          loop seen (succs @ todo)
  in
  Set.elements (loop (Set.singleton h0) [ h0 ])

let lts h0 =
  let states = Array.of_list (reachable h0) in
  let index =
    Array.to_seqi states
    |> Seq.fold_left (fun m (i, s) -> Map.add s i m) Map.empty
  in
  let id s = Map.find s index in
  ( id h0,
    Array.map
      (fun s -> (s, List.map (fun (l, s') -> (l, id s')) (transitions s)))
      states )

let traces ~depth h0 =
  let rec go d h =
    if d = 0 then [ [] ]
    else
      match transitions h with
      | [] -> [ [] ]
      | ts ->
          List.concat_map
            (fun (l, h') -> List.map (fun tr -> l :: tr) (go (d - 1) h'))
            ts
  in
  go depth h0
