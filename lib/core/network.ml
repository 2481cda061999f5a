type component = Leaf of string * Hexpr.t | Session of component * component

type repo = (string * Hexpr.t) list
type client = { monitor : Validity.Monitor.t; plan : Plan.t; comp : component }
type config = client list

type glabel =
  | L_open of Hexpr.req * string * string
  | L_close of Hexpr.req * string
  | L_sync of string * string * string
  | L_event of string * Usage.Event.t
  | L_frame_open of string * Usage.Policy.t
  | L_frame_close of string * Usage.Policy.t
  | L_commit of string
  | L_crash of string
  | L_abort of Hexpr.req * string * string

let initial_vector clients =
  List.map
    (fun (plan, (loc, h)) ->
      { monitor = Validity.Monitor.empty; plan; comp = Leaf (loc, h) })
    clients

let initial ?(plan = Plan.empty) clients =
  initial_vector (List.map (fun c -> (plan, c)) clients)

let rec locations = function
  | Leaf (l, _) -> [ l ]
  | Session (a, b) -> locations a @ locations b

(* The leftmost leaf: sessions are built as [Session (client side,
   joined service)], so the original top-level client stays leftmost. *)
let rec client_location = function
  | Leaf (l, _) -> l
  | Session (a, _) -> client_location a

let terminated = function
  | Leaf (_, h) -> Semantics.is_terminated h
  | Session _ -> false

let config_done cfg = List.for_all (fun c -> terminated c.comp) cfg

let rec phi (h : Hexpr.t) =
  match Hexpr.node h with
  | Hexpr.Seq (a, b) -> phi a @ phi b
  | Hexpr.Frame_close p -> [ p ]
  | Hexpr.Nil | Hexpr.Var _ | Hexpr.Mu _ | Hexpr.Ext _ | Hexpr.Int _
  | Hexpr.Ev _ | Hexpr.Open _ | Hexpr.Close _ | Hexpr.Frame _
  | Hexpr.Choice _ ->
      []

(* Equality and hash through the interned residuals: O(1) per leaf. The
   hash is the terms' structural one, so it does not depend on what
   else the process has interned. *)
let rec equal_component a b =
  match (a, b) with
  | Leaf (l1, h1), Leaf (l2, h2) -> Hexpr.equal h1 h2 && String.equal l1 l2
  | Session (x1, y1), Session (x2, y2) ->
      equal_component x1 x2 && equal_component y1 y2
  | Leaf _, Session _ | Session _, Leaf _ -> false

let rec hash_component = function
  | Leaf (l, h) -> ((Hashtbl.hash l * 19) + Hexpr.hash h) land max_int
  | Session (a, b) ->
      ((((13 * 19) + hash_component a) * 19) + hash_component b) land max_int

(* Moves of a leaf alone: Access (events and framings), Open, and the
   commit of an unguarded choice. Communications and closes need a
   session context and are handled in [component_moves] below. *)
let leaf_moves repo plan l h =
  Semantics.transitions h
  |> List.filter_map (fun (act, h') ->
         match act with
         | Action.Evt e -> Some (L_event (l, e), [ History.Ev e ], Leaf (l, h'))
         | Action.Frm_open p ->
             Some (L_frame_open (l, p), [ History.Op p ], Leaf (l, h'))
         | Action.Frm_close p ->
             Some (L_frame_close (l, p), [ History.Cl p ], Leaf (l, h'))
         | Action.Tau -> Some (L_commit l, [], Leaf (l, h'))
         | Action.Op r -> (
             match Plan.find plan r.rid with
             | None -> None
             | Some lj -> (
                 match List.assoc_opt lj repo with
                 | None -> None
                 | Some hj ->
                     let items =
                       match r.policy with
                       | Some p -> [ History.Op p ]
                       | None -> []
                     in
                     Some
                       ( L_open (r, l, lj),
                         items,
                         Session (Leaf (l, h'), Leaf (lj, hj)) )))
         | Action.Cl _ | Action.In _ | Action.Out _ -> None)

(* Close moves of the session [me, partner]: [me] fires close_{r,φ}; the
   partner's remnant is discarded, its pending framings are closed
   (Φ(H'')·Mφ). *)
let close_moves me partner =
  match (me, partner) with
  | Leaf (l, h), Leaf (_, h'') ->
      Semantics.transitions h
      |> List.filter_map (fun (act, h') ->
             match act with
             | Action.Cl r ->
                 let closes =
                   List.map (fun p -> History.Cl p) (phi h'')
                   @
                   match r.policy with
                   | Some p -> [ History.Cl p ]
                   | None -> []
                 in
                 Some (L_close (r, l), closes, Leaf (l, h'))
             | Action.In _ | Action.Out _ | Action.Tau | Action.Evt _
             | Action.Op _ | Action.Frm_open _ | Action.Frm_close _ ->
                 None)
  | _ -> []

(* Synch: both parties are leaves of the same session node and offer
   complementary actions. *)
let sync_moves s1 s2 rebuild =
  match (s1, s2) with
  | Leaf (l1, h1), Leaf (l2, h2) ->
      let t1 = Semantics.transitions h1 and t2 = Semantics.transitions h2 in
      List.concat_map
        (fun (a1, h1') ->
          List.filter_map
            (fun (a2, h2') ->
              match (a1, a2) with
              | Action.Out a, Action.In b when String.equal a b ->
                  (* sender first *)
                  Some
                    ( L_sync (l1, l2, a),
                      [],
                      rebuild (Leaf (l1, h1')) (Leaf (l2, h2')) )
              | Action.In a, Action.Out b when String.equal a b ->
                  Some
                    ( L_sync (l2, l1, a),
                      [],
                      rebuild (Leaf (l1, h1')) (Leaf (l2, h2')) )
              | _ -> None)
            t2)
        t1
  | _ -> []

let rec component_moves repo plan comp =
  match comp with
  | Leaf (l, h) -> leaf_moves repo plan l h
  | Session (s1, s2) ->
      let inner1 =
        component_moves repo plan s1
        |> List.map (fun (g, items, s1') -> (g, items, Session (s1', s2)))
      in
      let inner2 =
        component_moves repo plan s2
        |> List.map (fun (g, items, s2') -> (g, items, Session (s1, s2')))
      in
      let syncs = sync_moves s1 s2 (fun a b -> Session (a, b)) in
      let closes1 = close_moves s1 s2 in
      let closes2 = close_moves s2 s1 in
      inner1 @ inner2 @ syncs @ closes1 @ closes2

let push_items monitor items =
  List.fold_left
    (fun acc item ->
      match acc with
      | Error _ as e -> e
      | Ok m -> Validity.Monitor.push m item)
    (Ok monitor) items

let steps ?(monitored = true) repo cfg =
  List.concat
    (List.mapi
       (fun i c ->
         component_moves repo c.plan c.comp
         |> List.filter_map (fun (g, items, comp') ->
                let next =
                  if monitored then
                    match push_items c.monitor items with
                    | Error _ -> None
                    | Ok monitor -> Some monitor
                  else
                    Some
                      (List.fold_left Validity.Monitor.push_unchecked
                         c.monitor items)
                in
                match next with
                | None -> None
                | Some monitor ->
                    let cfg' =
                      List.mapi
                        (fun j cj ->
                          if i = j then { c with monitor; comp = comp' } else cj)
                        cfg
                    in
                    Some (i, g, cfg')))
       cfg)

let blocked repo cfg =
  List.concat
    (List.mapi
       (fun i c ->
         component_moves repo c.plan c.comp
         |> List.filter_map (fun (g, items, _) ->
                match push_items c.monitor items with
                | Error v -> Some (i, g, v)
                | Ok _ -> None))
       cfg)

let glabel_equal a b =
  match (a, b) with
  | L_open (r1, i1, j1), L_open (r2, i2, j2) ->
      Hexpr.compare_req r1 r2 = 0 && String.equal i1 i2 && String.equal j1 j2
  | L_close (r1, l1), L_close (r2, l2) ->
      Hexpr.compare_req r1 r2 = 0 && String.equal l1 l2
  | L_sync (s1, d1, a1), L_sync (s2, d2, a2) ->
      String.equal s1 s2 && String.equal d1 d2 && String.equal a1 a2
  | L_event (l1, e1), L_event (l2, e2) ->
      String.equal l1 l2 && Usage.Event.equal e1 e2
  | L_frame_open (l1, p1), L_frame_open (l2, p2)
  | L_frame_close (l1, p1), L_frame_close (l2, p2) ->
      String.equal l1 l2 && Usage.Policy.equal p1 p2
  | L_commit l1, L_commit l2 -> String.equal l1 l2
  | L_crash l1, L_crash l2 -> String.equal l1 l2
  | L_abort (r1, c1, l1), L_abort (r2, c2, l2) ->
      Hexpr.compare_req r1 r2 = 0 && String.equal c1 c2 && String.equal l1 l2
  | ( ( L_open _ | L_close _ | L_sync _ | L_event _ | L_frame_open _
      | L_frame_close _ | L_commit _ | L_crash _ | L_abort _ ),
      _ ) ->
      false

let rec pp_component ppf = function
  | Leaf (l, h) -> Fmt.pf ppf "%s: %a" l Hexpr.pp h
  | Session (a, b) -> Fmt.pf ppf "[%a, %a]" pp_component a pp_component b

let pp_glabel ppf = function
  | L_open (r, li, lj) ->
      Fmt.pf ppf "open_%a %s->%s" Hexpr.pp_req r li lj
  | L_close (r, l) -> Fmt.pf ppf "close_%a @@%s" Hexpr.pp_req r l
  | L_sync (l1, l2, a) -> Fmt.pf ppf "tau(%s) %s->%s" a l1 l2
  | L_event (l, e) -> Fmt.pf ppf "%a @@%s" Usage.Event.pp e l
  | L_frame_open (l, p) -> Fmt.pf ppf "[%s @@%s" (Usage.Policy.id p) l
  | L_frame_close (l, p) -> Fmt.pf ppf "%s] @@%s" (Usage.Policy.id p) l
  | L_commit l -> Fmt.pf ppf "commit @@%s" l
  | L_crash l -> Fmt.pf ppf "crash @@%s" l
  | L_abort (r, lc, ls) ->
      Fmt.pf ppf "abort_%a %s-x->%s" Hexpr.pp_req r lc ls

let pp_config ppf cfg =
  Fmt.pf ppf "@[<v>%a@]"
    Fmt.(
      list ~sep:cut (fun ppf c ->
          pf ppf "%a, %a"
            History.pp
            (Validity.Monitor.history c.monitor)
            pp_component c.comp))
    cfg
