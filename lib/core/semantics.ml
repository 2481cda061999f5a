let is_terminated h = Hexpr.equal h Hexpr.nil

let rec transitions (h : Hexpr.t) : (Action.t * Hexpr.t) list =
  match Hexpr.node h with
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

module Walk = Automata.Bfs.Make (Hexpr)

(* Well-formed expressions have finitely many reachable states, but a
   long client has many: the walks stop past this bound instead of
   filling memory. *)
let limit = 100_000
let reachable h0 = Walk.states ~limit transitions [ h0 ]

(* One walk numbers the states and reports their moves, expanded state
   by state in discovery order, so prepending them from the newest
   keeps each state's moves in [transitions] order. *)
let lts h0 =
  let rev_states = ref [] and rev_edges = ref [] in
  let _, n =
    Walk.run ~limit [ h0 ]
      ~edge:(fun i l j -> rev_edges := (i, l, j) :: !rev_edges)
      (fun _ _ s ->
        rev_states := s :: !rev_states;
        Automata.Bfs.Expand (transitions s))
  in
  let moves = Array.make n [] in
  List.iter (fun (i, l, j) -> moves.(i) <- (l, j) :: moves.(i)) !rev_edges;
  Array.of_list (List.rev !rev_states) |> Array.mapi (fun i s -> (s, moves.(i)))

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
