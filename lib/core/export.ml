let escaped pp_v v = String.escaped (Fmt.str "%a" pp_v v)

let hexpr_dot ppf h0 =
  let init, states = Semantics.lts h0 in
  Fmt.pf ppf "digraph hexpr {@.  rankdir=LR;@.";
  Array.iteri
    (fun i (s, _) ->
      let shape = if Semantics.is_terminated s then "doublecircle" else "circle" in
      Fmt.pf ppf "  %d [shape=%s,label=\"%s\"];@." i shape
        (escaped Hexpr.pp s))
    states;
  Fmt.pf ppf "  init [shape=point]; init -> %d;@." init;
  Array.iteri
    (fun i (_, moves) ->
      List.iter
        (fun (l, j) ->
          Fmt.pf ppf "  %d -> %d [label=\"%s\"];@." i j (escaped Action.pp l))
        moves)
    states;
  Fmt.pf ppf "}@."

let client_graph_dot repo plan client ppf =
  let g = Netcheck.graph repo plan client in
  Fmt.pf ppf "digraph client {@.  rankdir=LR;@.";
  Array.iteri
    (fun i (comp, stuck) ->
      let shape =
        if Option.is_none stuck then "circle" else "doublecircle,color=red"
      in
      Fmt.pf ppf "  %d [shape=%s,label=\"%s\"];@." i shape
        (escaped Network.pp_component comp))
    g.Netcheck.nodes;
  Fmt.pf ppf "  init [shape=point]; init -> 0;@.";
  List.iter
    (fun (i, l, j) ->
      Fmt.pf ppf "  %d -> %d [label=\"%s\"];@." i j
        (escaped Network.pp_glabel l))
    g.Netcheck.edges;
  List.iter
    (fun (i, l, p) ->
      Fmt.pf ppf
        "  %d -> %d [style=dashed,color=red,label=\"%s blocked by %s\"];@." i i
        (escaped Network.pp_glabel l)
        (String.escaped (Usage.Policy.id p)))
    g.Netcheck.blocked;
  Fmt.pf ppf "}@."
