type stuck_kind =
  | Security of Usage.Policy.t
  | Communication
  | Unplanned_request of int

type stuck = {
  client : string;
  component : Network.component;
  kind : stuck_kind;
  trace : Network.glabel list;
}

type stats = { states : int; transitions : int }
type verdict = Valid of stats | Invalid of stuck

let default_universe repo clients =
  let of_exprs es = List.concat_map Hexpr.policies es in
  of_exprs (List.map snd repo @ List.map snd clients)
  |> List.sort_uniq Usage.Policy.compare

let push_items abs items =
  List.fold_left
    (fun acc item ->
      match acc with
      | Error _ as e -> e
      | Ok a -> Validity.Abstract.push a item)
    (Ok abs) items

(* Why is a non-terminated component without enabled moves stuck? If the
   raw term could fire an un-planned open, blame the plan; if candidate
   moves existed but all offended a policy, blame security; otherwise
   it is a communication deadlock. *)
let rec unplanned_requests repo plan (comp : Network.component) =
  match comp with
  | Network.Leaf (_, h) ->
      Semantics.transitions h
      |> List.filter_map (fun (act, _) ->
             match act with
             | Action.Op r -> (
                 match Plan.find plan r.rid with
                 | None -> Some r.rid
                 | Some l ->
                     if List.mem_assoc l repo then None else Some r.rid)
             | _ -> None)
  | Network.Session (a, b) ->
      unplanned_requests repo plan a @ unplanned_requests repo plan b

(* Definition 5(ii), applied to a live session: once both parties have
   settled on their communication frontier (no autonomous event, commit,
   open, close or framing moves left), every output one side may
   internally choose must find a matching input on the other side.
   Angelic reachability alone would miss this — the run could always
   avoid the unmatched branch — but the paper's internal choice is
   decided by the sender alone, so such a state is already stuck. *)
let rec session_mismatch (comp : Network.component) =
  match comp with
  | Network.Leaf _ -> None
  | Network.Session
      ((Network.Leaf (_, h1) as l1), (Network.Leaf (_, h2) as l2)) -> (
      let frontier h =
        let ts = Semantics.transitions h in
        let settled =
          List.for_all
            (fun ((a : Action.t), _) ->
              match a with
              | Action.In _ | Action.Out _ -> true
              | Action.Tau | Action.Evt _ | Action.Op _ | Action.Cl _
              | Action.Frm_open _ | Action.Frm_close _ ->
                  false)
            ts
        in
        let outs =
          List.filter_map
            (fun (a, _) -> match a with Action.Out c -> Some c | _ -> None)
            ts
        in
        let ins =
          List.filter_map
            (fun (a, _) -> match a with Action.In c -> Some c | _ -> None)
            ts
        in
        (settled, outs, ins)
      in
      let s1, out1, in1 = frontier h1 in
      let s2, out2, in2 = frontier h2 in
      if s1 && s2 then
        match
          ( List.find_opt (fun a -> not (List.mem a in2)) out1,
            List.find_opt (fun a -> not (List.mem a in1)) out2 )
        with
        | Some _, _ | _, Some _ -> Some comp
        | None, None -> (
            match session_mismatch l1 with
            | Some c -> Some c
            | None -> session_mismatch l2)
      else None)
  | Network.Session (a, b) -> (
      match session_mismatch a with
      | Some c -> Some c
      | None -> session_mismatch b)

(* The one state key: a (component, policy cursors) pair. Terms are
   interned, so the component compares by physical equality of its
   residuals and hashes through their stored hashes, in time independent
   of their size. Only the component is hashed: [Validity.Abstract]
   keeps sorted lists, but they hold policy values that its [equal]
   ignores and a generic hash would read, and that [equal] tells apart
   the few states that share a component. *)
module Key = struct
  type t = Network.component * Validity.Abstract.t

  let equal (c1, a1) (c2, a2) =
    Network.equal_component c1 c2 && Validity.Abstract.equal a1 a2

  let hash (comp, _) = Network.hash_component comp
end

module Walk = Automata.Bfs.Make (Key)

(* The one step function: the component's candidate moves passed
   through the policy cursors. Both lists come newest-first, so the head
   of [blocked] is the last blocking candidate. *)
let step repo plan (comp, abs) =
  List.fold_left
    (fun (enabled, blocked) (g, items, comp') ->
      match push_items abs items with
      | Ok abs' -> ((g, (comp', abs')) :: enabled, blocked)
      | Error p -> (enabled, (g, p) :: blocked))
    ([], [])
    (Network.component_moves repo plan comp)

(* The one stuck classifier: a non-terminated state's condemnations in
   order. The Definition 5(ii) mismatch comes first; a state with no
   enabled move then blames the plan for an unplanned request, security
   for a blocked move, or else communication — unless the mismatch has
   already condemned it for communication. *)
let condemnations repo plan comp ~enabled ~blocked =
  let mismatch =
    match session_mismatch comp with
    | Some c -> [ (c, Communication) ]
    | None -> []
  in
  if enabled <> [] then mismatch
  else
    let no_move =
      match (unplanned_requests repo plan comp, blocked) with
      | r :: _, _ -> [ (comp, Unplanned_request r) ]
      | [], (_, p) :: _ -> [ (comp, Security p) ]
      | [], [] -> if mismatch = [] then [ (comp, Communication) ] else []
    in
    mismatch @ no_move

(* What a reader does with a visited state. *)
type 'a visit = Expand | Prune | Stop of 'a

(* A visited state as its reader sees it: [stucks] are its
   condemnations, each with a shortest witness. *)
type view = {
  id : int;
  component : Network.component;
  terminated : bool;
  stucks : stuck list;
  blocked : (Network.glabel * Usage.Policy.t) list;
}

(* The one exploration of a planned client's abstract configuration
   graph, on the breadth-first kernel: [visit] sees each state in
   discovery order and answers [Expand], [Prune] or [Stop v]; expanding
   reports each enabled move as [edge src label dst]. Returns the [v] a
   reader stopped with, and the states discovered and transitions
   expanded. *)
let explore ?universe ?(edge = fun _ _ _ -> ()) repo plan (loc, h0) visit =
  let universe =
    match universe with
    | Some u -> u
    | None -> default_universe repo [ (loc, h0) ]
  in
  let start = (Network.Leaf (loc, h0), Validity.Abstract.init universe) in
  let transitions = ref 0 in
  let stopped, states =
    Walk.run [ start ]
      ~edge:(fun i g j ->
        incr transitions;
        edge i g j)
      (fun w id ((comp, _) as st) ->
        let terminated = Network.terminated comp in
        let enabled, blocked =
          if terminated then ([], []) else step repo plan st
        in
        let stucks =
          if terminated then []
          else
            match condemnations repo plan comp ~enabled ~blocked with
            | [] -> []
            | cs ->
                let trace = Walk.path w id in
                List.map
                  (fun (component, kind) ->
                    { client = loc; component; kind; trace })
                  cs
        in
        match visit { id; component = comp; terminated; stucks; blocked } with
        | Expand -> Automata.Bfs.Expand enabled
        | Prune -> Automata.Bfs.Prune
        | Stop v -> Automata.Bfs.Stop v)
  in
  (stopped, { states; transitions = !transitions })

let check_client ?universe ?(level = Compliance.Strict) repo plan
    ((loc, _) as client) =
  Obs.Trace.with_span ~attrs:[ ("client", Obs.Trace.Str loc) ]
    "netcheck.check_client"
  @@ fun () ->
  Obs.Metrics.incr "netcheck.checks";
  (* The loosened-level accounting, mirroring [Product.admits] at
     network granularity: communication deadlocks are tolerated up to
     the level's budget — [Skip_k k] forgives at most [max 0 k] stuck
     configurations, [Affectible] any number — provided a completed
     configuration stays reachable; security blocks and unplanned
     requests are never tolerated, at any level, so no level ever
     admits a policy violation. With the default [Strict] the budget is
     zero and this is exactly the original check. *)
  let stuck_budget =
    match level with
    | Compliance.Strict -> 0
    | Compliance.Skip_k k -> max 0 k
    | Compliance.Affectible -> max_int
  in
  let tolerated = ref 0 in
  let first_tolerated = ref None in
  let completion_seen = ref false in
  (* a tolerated condemnation charges the budget and the state is still
     expanded; any other ends the check *)
  let rec judge = function
    | [] -> Expand
    | ({ kind = Communication; _ } as s) :: rest when !tolerated < stuck_budget
      ->
        incr tolerated;
        if !first_tolerated = None then first_tolerated := Some s;
        judge rest
    | s :: _ -> Stop s
  in
  let stopped, stats =
    explore ?universe repo plan client (fun v ->
        if v.terminated then completion_seen := true;
        judge v.stucks)
  in
  let verdict =
    match stopped with
    | Some s -> Invalid s
    | None when !tolerated > 0 && not !completion_seen ->
        (* every maximal execution wedges: even the weakest level still
           demands that the degraded network can complete *)
        Invalid (Option.get !first_tolerated)
    | None -> Valid stats
  in
  if Obs.Metrics.active () then begin
    Obs.Metrics.add "netcheck.states.explored" stats.states;
    Obs.Metrics.add "netcheck.transitions.explored" stats.transitions;
    Obs.Metrics.observe "netcheck.states.per_check" stats.states;
    if !tolerated > 0 then Obs.Metrics.add "netcheck.stuck.tolerated" !tolerated
  end;
  if Obs.Trace.active () then begin
    Obs.Trace.add_attr "states" (Obs.Trace.Int stats.states);
    Obs.Trace.add_attr "level"
      (Obs.Trace.Str (Compliance.level_to_string level));
    if !tolerated > 0 then
      Obs.Trace.add_attr "tolerated" (Obs.Trace.Int !tolerated);
    Obs.Trace.add_attr "valid"
      (Obs.Trace.Bool (match verdict with Valid _ -> true | Invalid _ -> false))
  end;
  verdict

let failures ?universe ?(limit = 10) repo plan client =
  let found = ref [] and n = ref 0 in
  ignore
    (explore ?universe repo plan client (fun v ->
         if !n >= limit then Stop ()
         else
           match v.stucks with
           | [] -> Expand
           | s :: _ ->
               found := s :: !found;
               incr n;
               Prune));
  List.rev !found

type graph = {
  nodes : (Network.component * stuck option) array;
  edges : (int * Network.glabel * int) list;
  blocked : (int * Network.glabel * Usage.Policy.t) list;
}

let graph repo plan client =
  let nodes = ref [] and edges = ref [] and blocked = ref [] in
  ignore
    (explore repo plan client
       ~edge:(fun i g j -> edges := (i, g, j) :: !edges)
       (fun v ->
         nodes := (v.component, List.nth_opt v.stucks 0) :: !nodes;
         List.iter
           (fun (g, p) -> blocked := (v.id, g, p) :: !blocked)
           v.blocked;
         Expand));
  {
    nodes = Array.of_list (List.rev !nodes);
    edges = List.rev !edges;
    blocked = List.rev !blocked;
  }

let check ?universe ?level repo clients =
  let rec go acc = function
    | [] -> Valid acc
    | (plan, cl) :: rest -> (
        match check_client ?universe ?level repo plan cl with
        | Valid s ->
            go { states = acc.states + s.states;
                 transitions = acc.transitions + s.transitions }
              rest
        | Invalid _ as v -> v)
  in
  go { states = 0; transitions = 0 } clients

(* A configuration is its clients' states in order; plans never change
   during an interleaved exploration, so they stay out of the key. *)
module Configs = Automata.Bfs.Make (struct
  type t = Key.t list

  let equal = List.equal Key.equal
  let hash =
    List.fold_left (fun acc st -> ((acc * 19) + Key.hash st) land max_int) 0
end)

let explore_interleaved ?(limit = 1_000_000) repo clients =
  let universe = default_universe repo (List.map snd clients) in
  let plans = List.map fst clients in
  let start =
    List.map
      (fun (_, (loc, h)) ->
        (Network.Leaf (loc, h), Validity.Abstract.init universe))
      clients
  in
  let transitions = ref 0 in
  let _, states =
    Configs.run ~limit
      ~edge:(fun _ () _ -> incr transitions)
      [ start ]
      (fun _ _ cfg ->
        Automata.Bfs.Expand
          (List.concat
             (List.mapi
                (fun i (plan, st) ->
                  List.map
                    (fun (_, st') ->
                      ((), List.mapi (fun j s -> if i = j then st' else s) cfg))
                    (fst (step repo plan st)))
                (List.combine plans cfg))))
  in
  { states; transitions = !transitions }

let pp_stuck_kind ppf = function
  | Security p -> Fmt.pf ppf "security (policy %s)" (Usage.Policy.id p)
  | Communication -> Fmt.string ppf "communication deadlock"
  | Unplanned_request r -> Fmt.pf ppf "request %d is not planned" r

let pp_stuck ppf s =
  Fmt.pf ppf
    "@[<v>client %s gets stuck: %a@,residual: %a@,after: @[%a@]@]" s.client
    pp_stuck_kind s.kind Network.pp_component s.component
    Fmt.(list ~sep:comma Network.pp_glabel)
    s.trace

let pp_verdict ppf = function
  | Valid s ->
      Fmt.pf ppf "valid (%d abstract states, %d transitions)" s.states
        s.transitions
  | Invalid s -> Fmt.pf ppf "invalid: %a" pp_stuck s
