module type ALPHABET = sig
  type t

  val compare : t -> t -> int
  val pp : t Fmt.t
end

module Make (A : ALPHABET) = struct
  type symbol = A.t
  type state = int

  module States = Set.Make (Int)
  module SMap = Map.Make (Int)
  module AMap = Map.Make (A)
  module ASet = Set.Make (A)

  type t = {
    states : States.t;
    init : States.t;
    finals : States.t;
    delta : States.t AMap.t SMap.t;
  }

  let empty =
    {
      states = States.empty;
      init = States.empty;
      finals = States.empty;
      delta = SMap.empty;
    }

  let add_trans delta (src, sym, dst) =
    let row = Option.value (SMap.find_opt src delta) ~default:AMap.empty in
    let tgt = Option.value (AMap.find_opt sym row) ~default:States.empty in
    SMap.add src (AMap.add sym (States.add dst tgt) row) delta

  let create ~init ~finals ~trans =
    let states =
      List.fold_left
        (fun acc (s, _, d) -> States.add s (States.add d acc))
        (States.of_list (init @ finals))
        trans
    in
    {
      states;
      init = States.of_list init;
      finals = States.of_list finals;
      delta = List.fold_left add_trans SMap.empty trans;
    }

  let states a = a.states
  let initials a = a.init
  let finals a = a.finals
  let size a = States.cardinal a.states

  let transitions a =
    SMap.fold
      (fun src row acc ->
        AMap.fold
          (fun sym tgts acc ->
            States.fold (fun dst acc -> (src, sym, dst) :: acc) tgts acc)
          row acc)
      a.delta []
    |> List.rev

  let alphabet a =
    SMap.fold
      (fun _ row acc -> AMap.fold (fun sym _ acc -> ASet.add sym acc) row acc)
      a.delta ASet.empty
    |> ASet.elements

  let step a set sym =
    States.fold
      (fun s acc ->
        match SMap.find_opt s a.delta with
        | None -> acc
        | Some row -> (
            match AMap.find_opt sym row with
            | None -> acc
            | Some tgts -> States.union tgts acc))
      set States.empty

  let run a word = List.fold_left (step a) a.init word
  let accepts a word = not (States.disjoint (run a word) a.finals)

  let successors a s =
    match SMap.find_opt s a.delta with
    | None -> []
    | Some row ->
        AMap.fold
          (fun sym tgts acc ->
            States.fold (fun d acc -> (sym, d) :: acc) tgts acc)
          row []

  module Walk = Bfs.Make (Int)

  let reachable a =
    States.of_list (Walk.states (successors a) (States.elements a.init))

  let is_language_empty a = States.disjoint (reachable a) a.finals

  let shortest_accepted a =
    fst
      (Walk.run (States.elements a.init) (fun w i s ->
           if States.mem s a.finals then Bfs.Stop (Walk.path w i)
           else Bfs.Expand (successors a s)))

  module Pairs = Bfs.Make (struct
    type t = state * state

    let equal (a, b) (c, d) = a = c && b = d
    let hash (a, b) = ((a * 0x9e3779b1) + b) land max_int
  end)

  (* Pair states are numbered in discovery order, so products of
     products stay cheap. *)
  let product ~final a b =
    let roots =
      List.concat_map
        (fun sa -> List.map (fun sb -> (sa, sb)) (States.elements b.init))
        (States.elements a.init)
    in
    let finals = ref [] and trans = ref [] in
    ignore
      (Pairs.run roots
         ~edge:(fun i sym j -> trans := (i, sym, j) :: !trans)
         (fun _ i (sa, sb) ->
           if
             final ~left_final:(States.mem sa a.finals)
               ~right_final:(States.mem sb b.finals)
           then finals := i :: !finals;
           let row_b =
             Option.value (SMap.find_opt sb b.delta) ~default:AMap.empty
           in
           Bfs.Expand
             (successors a sa
             |> List.concat_map (fun (sym, da) ->
                    match AMap.find_opt sym row_b with
                    | None -> []
                    | Some tgts_b ->
                        List.map (fun db -> (sym, (da, db)))
                          (States.elements tgts_b)))));
    create ~init:(List.mapi (fun i _ -> i) roots) ~finals:!finals ~trans:!trans

  let intersect a b =
    product ~final:(fun ~left_final ~right_final -> left_final && right_final)
      a b

  module Subsets = Bfs.Make (struct
    type t = States.t

    let equal = States.equal
    let hash s = States.fold (fun q h -> ((h * 31) + q) land max_int) s 0
  end)

  let determinize a =
    let sigma = alphabet a in
    let finals = ref [] and trans = ref [] in
    ignore
      (Subsets.run [ a.init ]
         ~edge:(fun i sym j -> trans := (i, sym, j) :: !trans)
         (fun _ i set ->
           if not (States.disjoint set a.finals) then finals := i :: !finals;
           Bfs.Expand (List.map (fun sym -> (sym, step a set sym)) sigma)));
    create ~init:[ 0 ] ~finals:!finals ~trans:!trans

  let complete ~alphabet:sigma a =
    (* Add a non-final sink so every state has an outgoing transition for
       every symbol of [sigma]. *)
    let sink = (match States.max_elt_opt a.states with None -> 0 | Some m -> m + 1) in
    let missing =
      States.fold
        (fun s acc ->
          let row = Option.value (SMap.find_opt s a.delta) ~default:AMap.empty in
          List.fold_left
            (fun acc sym ->
              if AMap.mem sym row then acc else (s, sym, sink) :: acc)
            acc sigma)
        (States.add sink a.states) []
    in
    if missing = [] then a
    else
      create
        ~init:(States.elements a.init)
        ~finals:(States.elements a.finals)
        ~trans:(transitions a @ missing)

  let complement ~alphabet:sigma a =
    let d = determinize a in
    let d = complete ~alphabet:sigma d in
    { d with finals = States.diff d.states d.finals }
end
