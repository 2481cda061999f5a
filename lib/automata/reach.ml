let states (type a) ~(compare : a -> a -> int) ?limit succ roots =
  let module S = Set.Make (struct
    type t = a

    let compare = compare
  end) in
  (* [found] counts [seen], so the limit costs no [S.cardinal] per state *)
  let rec loop seen found = function
    | [] -> seen
    | s :: todo ->
        (match limit with
        | Some (n, msg) when found > n -> failwith msg
        | _ -> ());
        let fresh =
          succ s
          |> List.filter (fun q -> not (S.mem q seen))
          |> List.sort_uniq compare
        in
        let seen = List.fold_left (fun acc q -> S.add q acc) seen fresh in
        loop seen (found + List.length fresh) (fresh @ todo)
  in
  let seen = List.fold_left (fun acc s -> S.add s acc) S.empty roots in
  S.elements (loop seen (S.cardinal seen) roots)
