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

  let reachable a =
    let rec loop seen = function
      | [] -> seen
      | s :: rest ->
          let fresh =
            successors a s
            |> List.filter_map (fun (_, d) ->
                   if States.mem d seen then None else Some d)
          in
          let seen = List.fold_left (fun acc d -> States.add d acc) seen fresh in
          loop seen (fresh @ rest)
    in
    loop a.init (States.elements a.init)

  let is_language_empty a = States.disjoint (reachable a) a.finals

  let shortest_accepted a =
    (* Breadth-first search from the initial states; the first final state
       dequeued yields a shortest witness. *)
    let parent = Hashtbl.create 97 in
    let q = Queue.create () in
    States.iter
      (fun s ->
        Hashtbl.replace parent s None;
        Queue.add s q)
      a.init;
    let rec word_of s acc =
      match Hashtbl.find parent s with
      | None -> acc
      | Some (sym, pred) -> word_of pred (sym :: acc)
    in
    let rec bfs () =
      if Queue.is_empty q then None
      else
        let s = Queue.pop q in
        if States.mem s a.finals then Some (word_of s [])
        else begin
          List.iter
            (fun (sym, d) ->
              if not (Hashtbl.mem parent d) then begin
                Hashtbl.replace parent d (Some (sym, s));
                Queue.add d q
              end)
            (successors a s);
          bfs ()
        end
    in
    bfs ()

  let trim a =
    let keep = reachable a in
    {
      states = States.inter a.states keep;
      init = States.inter a.init keep;
      finals = States.inter a.finals keep;
      delta =
        SMap.filter_map
          (fun src row ->
            if not (States.mem src keep) then None
            else
              let row =
                AMap.filter_map
                  (fun _ tgts ->
                    let tgts = States.inter tgts keep in
                    if States.is_empty tgts then None else Some tgts)
                  row
              in
              if AMap.is_empty row then None else Some row)
          a.delta;
    }

  (* Pair states of a product automaton are encoded through a table built
     on the fly, so products of products stay cheap. *)
  let product ~final a b =
    let code = Hashtbl.create 97 in
    let next = ref 0 in
    let id p =
      match Hashtbl.find_opt code p with
      | Some i -> i
      | None ->
          let i = !next in
          incr next;
          Hashtbl.replace code p i;
          i
    in
    let init =
      States.fold
        (fun sa acc ->
          States.fold (fun sb acc -> id (sa, sb) :: acc) b.init acc)
        a.init []
    in
    let trans = ref [] in
    let finals = ref [] in
    let seen = Hashtbl.create 97 in
    let rec explore ((sa, sb) as p) =
      if not (Hashtbl.mem seen p) then begin
        Hashtbl.replace seen p ();
        if final ~left_final:(States.mem sa a.finals)
             ~right_final:(States.mem sb b.finals)
        then finals := id p :: !finals;
        let row_a =
          Option.value (SMap.find_opt sa a.delta) ~default:AMap.empty
        in
        AMap.iter
          (fun sym tgts_a ->
            match SMap.find_opt sb b.delta with
            | None -> ()
            | Some row_b -> (
                match AMap.find_opt sym row_b with
                | None -> ()
                | Some tgts_b ->
                    States.iter
                      (fun da ->
                        States.iter
                          (fun db ->
                            trans := (id p, sym, id (da, db)) :: !trans;
                            explore (da, db))
                          tgts_b)
                      tgts_a))
          row_a
      end
    in
    States.iter
      (fun sa -> States.iter (fun sb -> explore (sa, sb)) b.init)
      a.init;
    create ~init ~finals:!finals ~trans:!trans

  let intersect a b =
    product ~final:(fun ~left_final ~right_final -> left_final && right_final)
      a b

  let union a b =
    (* Disjoint renaming of [b], then juxtaposition. *)
    let off = match States.max_elt_opt a.states with None -> 0 | Some m -> m + 1 in
    let shift s = s + off in
    let trans_b =
      transitions b |> List.map (fun (s, x, d) -> (shift s, x, shift d))
    in
    create
      ~init:(States.elements a.init @ List.map shift (States.elements b.init))
      ~finals:
        (States.elements a.finals @ List.map shift (States.elements b.finals))
      ~trans:(transitions a @ trans_b)

  (* Concatenation and star need ε-glue; since the representation has no
     ε-transitions, we splice: every transition into a final state of [a]
     also enters the initial states of [b] (plus initial overlap when [a]
     accepts ε). *)
  let concat a b =
    let off = match States.max_elt_opt a.states with None -> 0 | Some m -> m + 1 in
    let shift s = s + off in
    let b_init = List.map shift (States.elements b.init) in
    let b_trans =
      transitions b |> List.map (fun (s, x, d) -> (shift s, x, shift d))
    in
    let glue =
      transitions a
      |> List.concat_map (fun (s, x, d) ->
             if States.mem d a.finals then
               List.map (fun bi -> (s, x, bi)) b_init
             else [])
    in
    let init =
      States.elements a.init
      @ if States.disjoint a.init a.finals then [] else b_init
    in
    let finals = List.map shift (States.elements b.finals) in
    let finals =
      (* if b accepts ε, a's finals are accepting too *)
      if States.disjoint b.init b.finals then finals
      else finals @ States.elements a.finals
    in
    create ~init ~finals ~trans:(transitions a @ b_trans @ glue)

  let star a =
    (* a fresh state [q0], both initial and accepting, acting as the loop
       point: entries from the old initial states leave from [q0], and
       transitions into old finals may also land on [q0]. *)
    let q0 = (match States.max_elt_opt a.states with None -> 0 | Some m -> m + 1) in
    let t = transitions a in
    let extra =
      List.concat_map
        (fun (s, x, d) ->
          let from_init = States.mem s a.init in
          let to_final = States.mem d a.finals in
          (if from_init then [ (q0, x, d) ] else [])
          @ (if to_final then [ (s, x, q0) ] else [])
          @ if from_init && to_final then [ (q0, x, q0) ] else [])
        t
    in
    create ~init:[ q0 ] ~finals:[ q0 ] ~trans:(t @ extra)

  let reverse a =
    create
      ~init:(States.elements a.finals)
      ~finals:(States.elements a.init)
      ~trans:(transitions a |> List.map (fun (s, x, d) -> (d, x, s)))

  let enumerate ?(max_length = 6) ?(limit = 100) a =
    let sigma = alphabet a in
    (* frontier entries carry the word reversed; [rev_acc] collects the
       results newest-first *)
    let rec bfs rev_acc count frontier len =
      if len > max_length || count >= limit then List.rev rev_acc
      else
        let rev_acc, count =
          List.fold_left
            (fun (acc, c) (word, set) ->
              if c < limit && not (States.disjoint set a.finals) then
                (List.rev word :: acc, c + 1)
              else (acc, c))
            (rev_acc, count) frontier
        in
        let next =
          List.concat_map
            (fun (word, set) ->
              List.filter_map
                (fun x ->
                  let set' = step a set x in
                  if States.is_empty set' then None
                  else Some (x :: word, set'))
                sigma)
            frontier
        in
        if next = [] then List.rev rev_acc else bfs rev_acc count next (len + 1)
    in
    bfs [] 0 [ ([], a.init) ] 0

  let determinize a =
    let sigma = alphabet a in
    let code = Hashtbl.create 97 in
    let next = ref 0 in
    let id set =
      let key = States.elements set in
      match Hashtbl.find_opt code key with
      | Some i -> i
      | None ->
          let i = !next in
          incr next;
          Hashtbl.replace code key i;
          i
    in
    let trans = ref [] in
    let finals = ref [] in
    let seen = Hashtbl.create 97 in
    let rec explore set =
      let i = id set in
      if not (Hashtbl.mem seen i) then begin
        Hashtbl.replace seen i ();
        if not (States.disjoint set a.finals) then finals := i :: !finals;
        List.iter
          (fun sym ->
            let tgt = step a set sym in
            trans := (i, sym, id tgt) :: !trans;
            explore tgt)
          sigma
      end
    in
    explore a.init;
    create ~init:[ id a.init ] ~finals:!finals ~trans:!trans

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

  let equivalent ~alphabet:sigma a b =
    let ca = complement ~alphabet:sigma a in
    let cb = complement ~alphabet:sigma b in
    is_language_empty (intersect a cb) && is_language_empty (intersect b ca)

  let pp ppf a =
    Fmt.pf ppf "@[<v>states: %d, init: {%a}, finals: {%a}@,%a@]"
      (size a)
      Fmt.(list ~sep:comma int)
      (States.elements a.init)
      Fmt.(list ~sep:comma int)
      (States.elements a.finals)
      Fmt.(
        list ~sep:cut (fun ppf (s, x, d) -> pf ppf "%d -%a-> %d" s A.pp x d))
      (transitions a)

  let pp_dot ?(name = "nfa") () ppf a =
    Fmt.pf ppf "digraph %s {@." name;
    Fmt.pf ppf "  rankdir=LR;@.";
    States.iter
      (fun s ->
        let shape = if States.mem s a.finals then "doublecircle" else "circle" in
        Fmt.pf ppf "  %d [shape=%s];@." s shape)
      a.states;
    States.iter (fun s -> Fmt.pf ppf "  init%d [shape=point]; init%d -> %d;@." s s s) a.init;
    List.iter
      (fun (s, x, d) -> Fmt.pf ppf "  %d -> %d [label=\"%a\"];@." s d A.pp x)
      (transitions a);
    Fmt.pf ppf "}@."
end
