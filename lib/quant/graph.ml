let out_edges n edges =
  let adj = Array.make n [] in
  List.iter
    (fun (s, w, d) ->
      if w < 0. then invalid_arg "Quant.Graph: negative weight";
      adj.(s) <- (w, d) :: adj.(s))
    edges;
  adj

let reachable_from adj init =
  let n = Array.length adj in
  let seen = Array.make n false in
  let rec go s =
    if not seen.(s) then begin
      seen.(s) <- true;
      List.iter (fun (_, d) -> go d) adj.(s)
    end
  in
  go init;
  seen

let supremum ~n ~edges ~init =
  if n = 0 then Some 0.
  else begin
    let adj = out_edges n edges in
    let reach = reachable_from adj init in
    let comp, n_comps = Core.Scc.components adj in
    (* unbounded iff a positive edge joins two nodes of one reachable SCC *)
    let unbounded =
      List.exists
        (fun (s, w, d) ->
          w > 0. && reach.(s) && comp.(s) = comp.(d))
        edges
    in
    if unbounded then None
    else begin
      (* longest path on the condensation: process components in reverse
         topological order ([Core.Scc] numbers components in completion
         order, so increasing component id = reverse topological). *)
      let best = Array.make n_comps neg_infinity in
      best.(comp.(init)) <- 0.;
      (* components are numbered such that edges go from higher to lower
         completion; iterate in decreasing discovery: simple fixpoint is
         safest for clarity *)
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun (s, w, d) ->
            if reach.(s) && best.(comp.(s)) > neg_infinity then begin
              let cand = best.(comp.(s)) +. w in
              if comp.(s) <> comp.(d) && cand > best.(comp.(d)) then begin
                best.(comp.(d)) <- cand;
                changed := true
              end
            end)
          edges
      done;
      let sup = Array.fold_left max 0. best in
      Some sup
    end
  end

module Pq = Map.Make (struct
  type t = float * int

  let compare = compare
end)

let shortest_to ~n ~edges ~init ~target =
  let adj = out_edges n edges in
  let dist = Array.make n infinity in
  dist.(init) <- 0.;
  let q = ref (Pq.singleton (0., init) ()) in
  let result = ref None in
  (try
     while not (Pq.is_empty !q) do
       let (d, v), () = Pq.min_binding !q in
       q := Pq.remove (d, v) !q;
       if d <= dist.(v) then begin
         if target v then begin
           result := Some d;
           raise Exit
         end;
         List.iter
           (fun (w, u) ->
             let nd = d +. w in
             if nd < dist.(u) then begin
               dist.(u) <- nd;
               q := Pq.add (nd, u) () !q
             end)
           adj.(v)
       end
     done
   with Exit -> ());
  !result
