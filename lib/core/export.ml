let escaped pp_v v = String.escaped (Fmt.str "%a" pp_v v)

(* The one DOT printer: the nodes by number with their shape and label,
   the arrow into the initial state when the graph names one, then the
   edges with their attributes. *)
let pp_graph ppf ~name ?init nodes edges =
  Fmt.pf ppf "digraph %s {@.  rankdir=LR;@." name;
  Array.iteri
    (fun i (shape, label) ->
      Fmt.pf ppf "  %d [shape=%s,label=\"%s\"];@." i shape label)
    nodes;
  Option.iter (Fmt.pf ppf "  init [shape=point]; init -> %d;@.") init;
  List.iter (fun (i, attrs, j) -> Fmt.pf ppf "  %d -> %d [%s];@." i j attrs) edges;
  Fmt.pf ppf "}@."

let label s = Fmt.str "label=\"%s\"" s

let hexpr_dot ppf h0 =
  let states = Semantics.lts h0 in
  pp_graph ppf ~name:"hexpr" ~init:0
    (Array.map
       (fun (s, _) ->
         ( (if Semantics.is_terminated s then "doublecircle" else "circle"),
           escaped Hexpr.pp s ))
       states)
    (List.concat
       (List.mapi
          (fun i (_, moves) ->
            List.map (fun (l, j) -> (i, label (escaped Action.pp l), j)) moves)
          (Array.to_list states)))

let product_dot ppf (p : Product.t) =
  let final = Array.make (Array.length p.states) false in
  List.iter (fun (i, _) -> final.(i) <- true) p.finals;
  pp_graph ppf ~name:"product"
    (Array.mapi
       (fun i (c1, c2) ->
         ( (if final.(i) then "doublecircle" else "circle"),
           String.escaped (Contract.to_string c1)
           ^ " | "
           ^ String.escaped (Contract.to_string c2) ))
       p.states)
    (List.map (fun (i, a, j) -> (i, label (Fmt.str "tau(%s)" a), j)) p.delta)

let client_graph_dot repo plan client ppf =
  let g = Netcheck.graph repo plan client in
  pp_graph ppf ~name:"client" ~init:0
    (Array.map
       (fun (comp, stuck) ->
         ( (if Option.is_none stuck then "circle" else "doublecircle,color=red"),
           escaped Network.pp_component comp ))
       g.Netcheck.nodes)
    (List.map
       (fun (i, l, j) -> (i, label (escaped Network.pp_glabel l), j))
       g.Netcheck.edges
    @ List.map
        (fun (i, l, p) ->
          ( i,
            Fmt.str "style=dashed,color=red,%s"
              (label
                 (Fmt.str "%s blocked by %s"
                    (escaped Network.pp_glabel l)
                    (String.escaped (Usage.Policy.id p)))),
            i ))
        g.Netcheck.blocked)
