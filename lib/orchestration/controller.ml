open Core

type reason =
  | Unmatched_offer of { party : int; channel : string }
  | Deadlock
  | Starved

type counterexample = {
  automaton : Automaton.t;
  trace : Automaton.move list;
  stuck : int;
  reason : reason;
}

type t = {
  automaton : Automaton.t;
  good : bool array;
  edges : (Automaton.move * int) list array;
  states : int;
  transitions : int;
}

let involves_client (m : Automaton.move) = m.sender = 0 || m.receiver = 0

(* The client-progress rule: the nodes of the graph [succ] from which
   a [success] node or a cycle containing a party-0 match is reachable.
   A component's successors have lower ids ({!Scc.components}), so one
   pass in id order decides each: it is live when it holds a success
   node, an internal party-0 edge (internal edges lie on a cycle) or an
   edge into a live component. *)
let progressing succ success =
  let comp, k = Scc.components succ in
  let members = Array.make k [] in
  Array.iteri (fun v c -> members.(c) <- v :: members.(c)) comp;
  let live = Array.make k false in
  for c = 0 to k - 1 do
    live.(c) <-
      List.exists
        (fun v ->
          success v
          || List.exists
               (fun (m, j) ->
                 if comp.(j) = c then involves_client m else live.(comp.(j)))
               succ.(v))
        members.(c)
  done;
  Array.map (fun c -> live.(c)) comp

(* The descent below steps from a bad state to a bad state marked
   strictly earlier, so it needs the order in which states were marked:
   when s was marked locally bad, every target of its witnessing offer
   was already bad, hence carries a smaller mark. A state the progress
   rule condemned ends the descent outright. *)
let prune a =
  let n = Automaton.size a in
  let bad = Array.make n false in
  let starved = Array.make n false in
  let mark = Array.make n max_int in
  let clock = ref 0 in
  let condemn s =
    bad.(s) <- true;
    mark.(s) <- !clock;
    incr clock
  in
  let local () =
    let changed = ref true in
    while !changed do
      changed := false;
      for s = 0 to n - 1 do
        if (not bad.(s)) && not (Automaton.client_done a s) then begin
          let ms = Automaton.moves a s in
          let offer_ok (p, ch) =
            List.exists
              (fun ((m : Automaton.move), j) ->
                m.sender = p && String.equal m.channel ch && not bad.(j))
              ms
          in
          let locally_bad =
            List.exists (fun o -> not (offer_ok o)) (Automaton.offers a s)
            || not (List.exists (fun (_, j) -> not bad.(j)) ms)
          in
          if locally_bad then begin
            condemn s;
            changed := true
          end
        end
      done
    done
  in
  let progress () =
    let surviving s =
      if bad.(s) || Automaton.client_done a s then []
      else List.filter (fun (_, j) -> not bad.(j)) (Automaton.moves a s)
    in
    let live =
      progressing (Array.init n surviving) (Automaton.client_done a)
    in
    let changed = ref false in
    for s = 0 to n - 1 do
      if not (bad.(s) || live.(s)) then begin
        condemn s;
        starved.(s) <- true;
        changed := true
      end
    done;
    !changed
  in
  (* once the initial state is bad no controller exists, and its
     descent only meets states marked before it: stop there *)
  let rec stabilise () =
    local ();
    if (not bad.(0)) && progress () then stabilise ()
  in
  stabilise ();
  (bad, starved, mark)

(* A concrete run every orchestrator loses: at each bad state pick an
   offer all of whose deliveries are bad and follow the earliest-marked
   one, which must be marked before the state itself; marks strictly
   decrease, and a minimally-marked bad state is locally stuck outright
   or starved. *)
let counterexample_of a bad starved mark =
  let rec descend s acc =
    let stop reason =
      { automaton = a; trace = List.rev acc; stuck = s; reason }
    in
    let ms = Automaton.moves a s in
    let unmatched =
      List.find_opt
        (fun (p, ch) ->
          not
            (List.exists
               (fun ((m : Automaton.move), _) ->
                 m.sender = p && String.equal m.channel ch)
               ms))
        (Automaton.offers a s)
    in
    match unmatched with
    | _ when starved.(s) -> stop Starved
    | Some (party, channel) -> stop (Unmatched_offer { party; channel })
    | None ->
        if ms = [] then stop Deadlock
        else begin
          let earliest follows =
            List.fold_left
              (fun acc ((m : Automaton.move), j) ->
                if follows m then
                  match acc with
                  | Some (_, j') when mark.(j') <= mark.(j) -> acc
                  | _ -> Some (m, j)
                else acc)
              None ms
          in
          let of_offer (p, ch) (m : Automaton.move) =
            m.sender = p && String.equal m.channel ch
          in
          (* the offer that condemned [s] qualifies; one whose earliest
             delivery is [s] itself or later would loop. With no offer
             qualifying, [s] fell because every match led to an earlier
             bad state. *)
          let witnessed =
            List.find_map
              (fun o ->
                if List.for_all (fun (m, j) -> (not (of_offer o m)) || bad.(j)) ms
                then
                  match earliest (of_offer o) with
                  | Some (_, j) as step when mark.(j) < mark.(s) -> step
                  | _ -> None
                else None)
              (Automaton.offers a s)
          in
          let step =
            match witnessed with
            | Some _ -> witnessed
            | None -> earliest (fun _ -> true)
          in
          match step with
          | None -> assert false
          | Some (m, j) -> descend j (m :: acc)
        end
  in
  descend 0 []

let synthesize a =
  Obs.Trace.with_span "orchestration.synthesize" @@ fun () ->
  Obs.Metrics.incr "orchestration.synthesis.runs";
  let n = Automaton.size a in
  let parties = Array.length (Automaton.parties a) in
  if Obs.Metrics.active () then
    Obs.Metrics.observe "orchestration.parties.per_synthesis" parties;
  if Obs.Trace.active () then begin
    Obs.Trace.add_attr "parties" (Obs.Trace.Int parties);
    Obs.Trace.add_attr "product_states" (Obs.Trace.Int n)
  end;
  let bad, starved, mark = prune a in
  let pruned = Array.fold_left (fun k b -> if b then k + 1 else k) 0 bad in
  Obs.Metrics.add "orchestration.states.pruned" pruned;
  if bad.(0) then begin
    if Obs.Trace.active () then
      Obs.Trace.add_attr "outcome" (Obs.Trace.Str "declined");
    Error (counterexample_of a bad starved mark)
  end
  else begin
    let edges = Array.make n [] in
    let reach = Array.make n false in
    let queue = Queue.create () in
    reach.(0) <- true;
    Queue.push 0 queue;
    let states = ref 0 and transitions = ref 0 in
    while not (Queue.is_empty queue) do
      let s = Queue.pop queue in
      incr states;
      if not (Automaton.client_done a s) then begin
        let keep =
          List.filter (fun (_, j) -> not bad.(j)) (Automaton.moves a s)
        in
        edges.(s) <- keep;
        transitions := !transitions + List.length keep;
        List.iter
          (fun (_, j) ->
            if not reach.(j) then begin
              reach.(j) <- true;
              Queue.push j queue
            end)
          keep
      end
    done;
    Obs.Metrics.add "orchestration.controller.states" !states;
    Obs.Metrics.add "orchestration.controller.transitions" !transitions;
    if Obs.Trace.active () then begin
      Obs.Trace.add_attr "outcome" (Obs.Trace.Str "controller");
      Obs.Trace.add_attr "controller_states" (Obs.Trace.Int !states)
    end;
    Ok
      {
        automaton = a;
        good = Array.map not bad;
        edges;
        states = !states;
        transitions = !transitions;
      }
  end

(* Re-derivation from the contracts themselves — deliberately not reusing
   the automaton's cached offer lists, so a synthesis bug cannot vouch
   for itself. *)
let verify c =
  Obs.Trace.with_span "orchestration.verify" @@ fun () ->
  let a = c.automaton in
  let parties = Automaton.parties a in
  let exception Bad of string in
  try
    let n = Automaton.size a in
    let seen = Array.make n false in
    let queue = Queue.create () in
    seen.(0) <- true;
    Queue.push 0 queue;
    let visited = ref [] in
    let success = Array.make n false in
    while not (Queue.is_empty queue) do
      let s = Queue.pop queue in
      visited := s :: !visited;
      let v = Automaton.state a s in
      success.(s) <- Contract.is_terminated v.(0);
      if not success.(s) then begin
        let out = c.edges.(s) in
        if out = [] then
          raise
            (Bad
               (Fmt.str "state %d: client %s not terminated and no match" s
                  parties.(0).Automaton.name));
        (* every surviving edge is a legal match of the original parties *)
        List.iter
          (fun ((m : Automaton.move), j) ->
            let w = Automaton.state a j in
            let sender_ok =
              List.exists
                (fun (d, ch, c') ->
                  d = Contract.O && String.equal ch m.channel
                  && Contract.equal c' w.(m.sender))
                (Contract.transitions v.(m.sender))
            and receiver_ok =
              List.exists
                (fun (d, ch, c') ->
                  d = Contract.I && String.equal ch m.channel
                  && Contract.equal c' w.(m.receiver))
                (Contract.transitions v.(m.receiver))
            and rest_ok =
              Array.for_all Fun.id
                (Array.mapi
                   (fun i ci ->
                     i = m.sender || i = m.receiver || Contract.equal ci w.(i))
                   v)
            in
            if not (sender_ok && receiver_ok && rest_ok) then
              raise
                (Bad
                   (Fmt.str "state %d: edge %a is not a move of the parties" s
                      (Automaton.pp_move ~parties) m)))
          out;
        (* no enabled offer left unmatched *)
        Array.iteri
          (fun i ci ->
            List.iter
              (fun (d, ch, _) ->
                if
                  d = Contract.O
                  && not
                       (List.exists
                          (fun ((m : Automaton.move), _) ->
                            m.sender = i && String.equal m.channel ch)
                          out)
                then
                  raise
                    (Bad
                       (Fmt.str "state %d: offer %s by %s is unmatched" s ch
                          parties.(i).Automaton.name)))
              (Contract.transitions ci))
          v;
        List.iter
          (fun (_, j) ->
            if not seen.(j) then begin
              seen.(j) <- true;
              Queue.push j queue
            end)
          out
      end
    done;
    (* agreement: from every reachable state the client can still
       finish, or take part in a loop *)
    let live = progressing c.edges (fun s -> success.(s)) in
    List.iter
      (fun s ->
        if not live.(s) then
          raise
            (Bad
               (Fmt.str
                  "state %d: client %s starves: no successful state and no \
                   loop through it is reachable"
                  s parties.(0).Automaton.name)))
      !visited;
    Ok ()
  with Bad msg -> Error msg

let pp_reason ~names ppf = function
  | Unmatched_offer { party; channel } ->
      Fmt.pf ppf "party %s offers %s with no matching input" names.(party)
        channel
  | Deadlock -> Fmt.pf ppf "deadlock: no match enabled, client not terminated"
  | Starved ->
      Fmt.pf ppf
        "starved: client %s can neither terminate nor take part in a loop \
         from here"
        names.(0)

let pp_counterexample ppf (ce : counterexample) =
  let parties = Automaton.parties ce.automaton in
  let names = Array.map (fun p -> p.Automaton.name) parties in
  match ce.trace with
  | [] -> Fmt.pf ppf "stuck at the start: %a" (pp_reason ~names) ce.reason
  | tr ->
      Fmt.pf ppf "after [%a], %a"
        Fmt.(list ~sep:(any "; ") (Automaton.pp_move ~parties))
        tr (pp_reason ~names) ce.reason

let pp ppf c =
  Fmt.pf ppf "controller over {%a}: %d states, %d transitions"
    Fmt.(
      array ~sep:(any ", ") (fun ppf p -> Fmt.string ppf p.Automaton.name))
    (Automaton.parties c.automaton)
    c.states c.transitions
