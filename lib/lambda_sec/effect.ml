module H = Core.Hexpr

let rec push_seq (h : H.t) : H.t =
  match H.node h with
  | H.Seq (g, k) -> (
      match H.node g with
      | H.Ext bs ->
          H.branch (List.map (fun (a, c) -> (a, push_seq (H.seq c k))) bs)
      | H.Int bs ->
          H.select (List.map (fun (a, c) -> (a, push_seq (H.seq c k))) bs)
      | _ -> h)
  | _ -> h

let join h1 h2 =
  let h1 = push_seq h1 and h2 = push_seq h2 in
  match (H.node h1, H.node h2) with
  | H.Int bs1, H.Int bs2
    when List.for_all (fun (a, _) -> not (List.mem_assoc a bs2)) bs1 ->
      H.select (bs1 @ bs2)
  | _ -> H.choice h1 h2

let item_of_action (a : Core.Action.t) : Core.History.item option =
  match a with
  | Core.Action.Evt e -> Some (Core.History.Ev e)
  | Core.Action.Frm_open p -> Some (Core.History.Op p)
  | Core.Action.Frm_close p -> Some (Core.History.Cl p)
  | Core.Action.Op { policy = Some p; _ } -> Some (Core.History.Op p)
  | Core.Action.Cl { policy = Some p; _ } -> Some (Core.History.Cl p)
  | Core.Action.Op { policy = None; _ }
  | Core.Action.Cl { policy = None; _ }
  | Core.Action.In _ | Core.Action.Out _ | Core.Action.Tau ->
      None

let item_equal a b =
  match ((a : Core.History.item), (b : Core.History.item)) with
  | Core.History.Ev e, Core.History.Ev f -> Usage.Event.equal e f
  | Core.History.Op p, Core.History.Op q
  | Core.History.Cl p, Core.History.Cl q ->
      Usage.Policy.equal p q
  | (Core.History.Ev _ | Core.History.Op _ | Core.History.Cl _), _ -> false

(* A state of [admits]: an expression and the number of items consumed. *)
module Walk = Automata.Bfs.Make (struct
  type t = H.t * int

  let equal (h1, i1) (h2, i2) = i1 = i2 && H.equal h1 h2
  let hash (h, i) = ((H.hash h * 19) + i) land max_int
end)

(* A walk over (expression state, items consumed); communications are
   ε-moves, and it stops once every item is consumed. *)
let admits h0 items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let consumed, _ =
    Walk.run [ (h0, 0) ] (fun _ _ (h, i) ->
        if i = n then Automata.Bfs.Stop ()
        else
          Automata.Bfs.Expand
            (List.filter_map
               (fun (act, h') ->
                 match item_of_action act with
                 | None -> Some ((), (h', i))
                 | Some item when item_equal item arr.(i) ->
                     Some ((), (h', i + 1))
                 | Some _ -> None)
               (Core.Semantics.transitions h)))
  in
  Option.is_some consumed
