type violation = { policy : Usage.Policy.t; prefix : History.t }

let pp_violation ppf v =
  Fmt.pf ppf "policy %s violated by prefix @[%a@]" (Usage.Policy.id v.policy)
    History.pp v.prefix

let valid eta =
  List.for_all
    (fun prefix ->
      let flat = History.flatten prefix in
      List.for_all
        (fun p -> Usage.Policy.respects p flat)
        (History.active prefix))
    (History.prefixes eta)

module Monitor = struct
  type t = {
    rev_history : History.item list;
    rev_events : Usage.Event.t list;
    active : (Usage.Policy.t * Usage.Policy.cursor) list;
  }

  let empty = { rev_history = []; rev_events = []; active = [] }
  let history m = List.rev m.rev_history

  let violation m p =
    { policy = p; prefix = List.rev m.rev_history }

  let push m item =
    Obs.Metrics.incr "validity.monitor.pushes";
    let m = { m with rev_history = item :: m.rev_history } in
    match item with
    | History.Ev e ->
        let m = { m with rev_events = e :: m.rev_events } in
        let active =
          List.map (fun (p, c) -> (p, Usage.Policy.advance p c e)) m.active
        in
        let m = { m with active } in
        let offender =
          List.find_opt (fun (p, c) -> Usage.Policy.offending p c) active
        in
        (match offender with
        | Some (p, _) -> Error (violation m p)
        | None -> Ok m)
    | History.Op p ->
        (* Retroactive activation: replay the whole flat past. *)
        let c = Usage.Policy.replay p (List.rev m.rev_events) in
        if Usage.Policy.offending p c then Error (violation m p)
        else Ok { m with active = (p, c) :: m.active }
    | History.Cl p ->
        let rec remove acc = function
          | [] ->
              invalid_arg
                (Fmt.str "Validity.Monitor.push: closing inactive policy %s"
                   (Usage.Policy.id p))
          | (q, c) :: rest ->
              if Usage.Policy.equal p q then List.rev_append acc rest
              else remove ((q, c) :: acc) rest
        in
        Ok { m with active = remove [] m.active }

  let push_unchecked m item =
    match push m item with
    | Ok m -> m
    | Error _ -> (
        (* Re-run the bookkeeping of [push] while discarding the verdict:
           the violating item still extends the history and the cursors. *)
        let m = { m with rev_history = item :: m.rev_history } in
        match item with
        | History.Ev e ->
            {
              m with
              rev_events = e :: m.rev_events;
              active =
                List.map
                  (fun (p, c) -> (p, Usage.Policy.advance p c e))
                  m.active;
            }
        | History.Op p ->
            let c = Usage.Policy.replay p (List.rev m.rev_events) in
            { m with active = (p, c) :: m.active }
        | History.Cl _ -> m)
end

let check eta =
  let rec go m = function
    | [] -> Ok ()
    | item :: rest -> (
        match Monitor.push m item with
        | Ok m -> go m rest
        | Error v -> Error v)
  in
  go Monitor.empty eta

module Abstract = struct
  (* Sorted association list keyed by policy id; the policy value is kept
     alongside to drive the automaton. [active] is a sorted multiset of
     ids. *)
  type t = {
    cursors : (string * (Usage.Policy.t * int list)) list;
    active : string list;
  }

  let init universe =
    let cursors =
      universe
      |> List.map (fun p ->
             ( Usage.Policy.id p,
               (p, Usage.Policy.cursor_states (Usage.Policy.start p)) ))
      |> List.sort_uniq (fun (a, _) (b, _) -> String.compare a b)
    in
    { cursors; active = [] }

  let offending_states p states =
    let a = Usage.Policy.automaton p in
    let finals = Usage.Policy.A.finals a in
    List.exists (fun s -> Usage.Policy.A.States.mem s finals) states

  let step_states p states e =
    Obs.Metrics.incr "validity.policy_steps";
    let a = Usage.Policy.automaton p in
    Usage.Policy.A.step a (Usage.Policy.A.States.of_list states) e
    |> Usage.Policy.A.States.elements

  let active t = t.active

  let push t item =
    match item with
    | History.Ev e ->
        let cursors =
          List.map
            (fun (id, (p, states)) -> (id, (p, step_states p states e)))
            t.cursors
        in
        let offender =
          List.find_opt
            (fun id ->
              match List.assoc_opt id cursors with
              | Some (p, states) -> offending_states p states
              | None -> false)
            t.active
        in
        (match offender with
        | Some id ->
            let p, _ = List.assoc id cursors in
            Error p
        | None -> Ok { t with cursors })
    | History.Op p -> (
        let id = Usage.Policy.id p in
        match List.assoc_opt id t.cursors with
        | None ->
            invalid_arg
              (Fmt.str "Validity.Abstract.push: policy %s not in universe" id)
        | Some (p, states) ->
            if offending_states p states then Error p
            else
              Ok { t with active = List.sort String.compare (id :: t.active) })
    | History.Cl p ->
        let id = Usage.Policy.id p in
        let rec remove acc = function
          | [] ->
              invalid_arg
                (Fmt.str "Validity.Abstract.push: closing inactive policy %s" id)
          | x :: rest ->
              if String.equal x id then List.rev_append acc rest
              else remove (x :: acc) rest
        in
        Ok { t with active = remove [] t.active }

  let compare a b =
    let cmp_cursor (ida, (_, sa)) (idb, (_, sb)) =
      match String.compare ida idb with
      | 0 -> List.compare Int.compare sa sb
      | c -> c
    in
    match List.compare cmp_cursor a.cursors b.cursors with
    | 0 -> List.compare String.compare a.active b.active
    | c -> c

  let equal a b = compare a b = 0

  let pp ppf t =
    Fmt.pf ppf "@[active: {%a}; cursors: %a@]"
      Fmt.(list ~sep:comma string)
      t.active
      Fmt.(
        list ~sep:semi (fun ppf (id, (_, states)) ->
            pf ppf "%s@{%a}" id (list ~sep:comma int) states))
      t.cursors
end

(* A state of the static check: a residual and the policy cursors,
   keyed by the term's stored hash. *)
module Walk = Automata.Bfs.Make (struct
  type t = Hexpr.t * Abstract.t

  let equal (h1, a1) (h2, a2) = Hexpr.equal h1 h2 && Abstract.equal a1 a2
  let hash (h, _) = Hexpr.hash h
end)

let item_of_action = function
  | Action.Evt e -> Some (History.Ev e)
  | Action.Frm_open p -> Some (History.Op p)
  | Action.Frm_close p -> Some (History.Cl p)
  | Action.Op { policy = Some p; _ } -> Some (History.Op p)
  | Action.Cl { policy = Some p; _ } -> Some (History.Cl p)
  | Action.Op { policy = None; _ }
  | Action.Cl { policy = None; _ }
  | Action.In _ | Action.Out _ | Action.Tau ->
      None

let check_expr ?universe h0 =
  Obs.Trace.with_span "validity.check_expr" @@ fun () ->
  let universe =
    match universe with Some u -> u | None -> Hexpr.policies h0
  in
  (* Each move is pushed through the cursors; the edges carry the
     logged item, if any, so a shortest path rebuilds the prefix. *)
  let violation, _ =
    Walk.run [ (h0, Abstract.init universe) ] (fun w i (h, abs) ->
        let outcomes =
          List.map
            (fun (l, h') ->
              match item_of_action l with
              | None -> Ok (None, (h', abs))
              | Some item -> (
                  match Abstract.push abs item with
                  | Ok abs' -> Ok (Some item, (h', abs'))
                  | Error p -> Error (item, p)))
            (Semantics.transitions h)
        in
        match
          List.find_map (function Error v -> Some v | Ok _ -> None) outcomes
        with
        | Some (item, policy) ->
            let past = List.filter_map Fun.id (Walk.path w i) in
            Automata.Bfs.Stop { policy; prefix = past @ [ item ] }
        | None ->
            Automata.Bfs.Expand (List.filter_map Result.to_option outcomes))
  in
  match violation with None -> Ok () | Some v -> Error v
