let weight model (act : Core.Action.t) =
  match act with
  | Core.Action.Evt e -> Model.cost model e
  | Core.Action.In _ | Core.Action.Out _ | Core.Action.Tau
  | Core.Action.Op _ | Core.Action.Cl _ | Core.Action.Frm_open _
  | Core.Action.Frm_close _ ->
      0.

(* State 0 of the LTS is the expression itself. *)
let graph_of model h0 =
  let states = Core.Semantics.lts h0 in
  let edges =
    Array.to_list states
    |> List.mapi (fun i (_, moves) ->
           List.map (fun (act, j) -> (i, weight model act, j)) moves)
    |> List.concat
  in
  (Array.length states, edges, states)

let worst_case model h0 =
  let n, edges, _ = graph_of model h0 in
  Graph.supremum ~n ~edges ~init:0

let best_case model h0 =
  let n, edges, states = graph_of model h0 in
  Graph.shortest_to ~n ~edges ~init:0 ~target:(fun v ->
      Core.Semantics.is_terminated (fst states.(v)))

let expected ?(fuel = 64) model h0 =
  (* value iteration over the finite LTS: V_0 = 0;
     V_{k+1}(s) = mean over enabled moves of (weight + V_k(s')) *)
  let states = Core.Semantics.lts h0 in
  let moves =
    Array.map
      (fun (_, ms) -> List.map (fun (act, j) -> (weight model act, j)) ms)
      states
  in
  let n = Array.length states in
  let v = ref (Array.make n 0.) in
  for _ = 1 to fuel do
    let v' = Array.make n 0. in
    Array.iteri
      (fun i outs ->
        match outs with
        | [] -> v'.(i) <- 0.
        | _ ->
            let total =
              List.fold_left (fun acc (w, j) -> acc +. w +. !v.(j)) 0. outs
            in
            v'.(i) <- total /. float_of_int (List.length outs))
      moves;
    v := v'
  done;
  !v.(0)
