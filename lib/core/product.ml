type state = Contract.t * Contract.t

type stuck_reason = Client_waits_forever | Unmatched_output of string

type t = {
  initial : state;
  states : state list;
  delta : (state * string * state) list;
  finals : (state * stuck_reason) list;
}

let outputs trans =
  List.filter_map
    (fun (d, a, _) -> if d = Contract.O then Some a else None)
    trans

let inputs trans =
  List.filter_map
    (fun (d, a, _) -> if d = Contract.I then Some a else None)
    trans

(* ⟨H₁,H₂⟩ ∈ F iff H₁ ≠ ε ∧ (¬(i) ∨ ¬(ii)); see Definition 5. *)
let final_reason (h1, h2) =
  if Contract.is_terminated h1 then None
  else
    let t1 = Contract.transitions h1 and t2 = Contract.transitions h2 in
    let out1 = outputs t1 and out2 = outputs t2 in
    let in1 = inputs t1 and in2 = inputs t2 in
    if out1 = [] && out2 = [] then Some Client_waits_forever
    else
      let unmatched =
        match List.find_opt (fun a -> not (List.mem a in2)) out1 with
        | Some a -> Some a
        | None -> List.find_opt (fun a -> not (List.mem a in1)) out2
      in
      Option.map (fun a -> Unmatched_output a) unmatched

(* exploration structures key on hash-consing id pairs: O(1) probes *)
let key ((a, b) : state) = (Contract.id a, Contract.id b)

let equal_state p q = Repr.Key.Int_pair.equal (key p) (key q)

let successors (h1, h2) =
  Compliance.sync_successors h1 h2

let build c1 c2 =
  Obs.Trace.with_span "product.build" @@ fun () ->
  let initial = (c1, c2) in
  let seen = Repr.Key.Pair_set.create () in
  let states = ref [ initial ] in
  (* states accumulate in discovery order (reversed here) *)
  let rec explore (delta, finals) = function
    | [] -> (delta, finals)
    | p :: rest -> (
        match final_reason p with
        | Some r ->
            (* final states have no outgoing transitions *)
            explore (delta, (p, r) :: finals) rest
        | None ->
            let succs = successors p in
            let delta =
              List.fold_left
                (fun d (a, q) -> (p, a, q) :: d)
                delta succs
            in
            let fresh =
              succs |> List.map snd
              |> List.filter (fun q -> Repr.Key.Pair_set.add seen (key q))
            in
            List.iter (fun q -> states := q :: !states) fresh;
            explore (delta, finals) (fresh @ rest))
  in
  ignore (Repr.Key.Pair_set.add seen (key initial) : bool);
  let delta, finals = explore ([], []) [ initial ] in
  if Obs.Metrics.active () then begin
    let states = Repr.Key.Pair_set.cardinal seen
    and transitions = List.length delta in
    Obs.Metrics.incr "product.builds";
    Obs.Metrics.add "product.states.built" states;
    Obs.Metrics.add "product.transitions.built" transitions;
    Obs.Metrics.observe "product.states.per_build" states;
    Obs.Trace.add_attr "states" (Obs.Trace.Int states);
    Obs.Trace.add_attr "transitions" (Obs.Trace.Int transitions)
  end;
  {
    initial;
    states = List.rev !states;
    delta = List.rev delta;
    finals = List.rev finals;
  }

let language_empty t = t.finals = []

type counterexample = {
  synchronisations : string list;
  stuck : state;
  reason : stuck_reason;
}

(* ---- the level survey ------------------------------------------------- *)

type survey = {
  stuck_states : int;
  successful : bool;
  first_counterexample : counterexample option;
}

(* One reachability pass computing everything every compliance level
   needs: the number of distinct stuck configurations, whether some
   maximal execution avoids them all, and the shortest counterexample
   (BFS order) for diagnostics. [successful] holds iff a client-
   terminated configuration is reachable or the reachable product
   contains a cycle — final states have no outgoing transitions, so any
   cycle is a live loop, and a maximal path is exactly one that ends
   client-terminated, ends stuck, or loops forever. *)
let explore initial =
  Obs.Trace.with_span "product.survey" @@ fun () ->
  Obs.Metrics.incr "product.surveys";
  let parent = Repr.Key.Pair_tbl.create 64 in
  Repr.Key.Pair_tbl.replace parent (key initial) None;
  let succs_of = Repr.Key.Pair_tbl.create 64 in
  let q = Queue.create () in
  Queue.add initial q;
  let stuck = ref 0 and first = ref None and terminated = ref false in
  let rec path_of p acc =
    match Repr.Key.Pair_tbl.find parent (key p) with
    | None -> acc
    | Some (a, pred) -> path_of pred (a :: acc)
  in
  while not (Queue.is_empty q) do
    let p = Queue.pop q in
    match final_reason p with
    | Some reason ->
        incr stuck;
        if !first = None then
          first := Some { synchronisations = path_of p []; stuck = p; reason };
        Repr.Key.Pair_tbl.replace succs_of (key p) []
    | None ->
        if Contract.is_terminated (fst p) then terminated := true;
        let ss = successors p in
        Repr.Key.Pair_tbl.replace succs_of (key p) (List.map snd ss);
        List.iter
          (fun (a, succ) ->
            if not (Repr.Key.Pair_tbl.mem parent (key succ)) then begin
              Repr.Key.Pair_tbl.replace parent (key succ) (Some (a, p));
              Queue.add succ q
            end)
          ss
  done;
  let has_cycle () =
    (* iterative three-colour DFS (1 = on path, 2 = done); a grey
       successor is a back edge, hence a live loop *)
    let color = Repr.Key.Pair_tbl.create 64 in
    let cyc = ref false in
    let rec walk = function
      | [] -> ()
      | `Enter p :: rest -> (
          match Repr.Key.Pair_tbl.find_opt color (key p) with
          | Some _ -> walk rest
          | None ->
              Repr.Key.Pair_tbl.replace color (key p) 1;
              let ss =
                Option.value
                  (Repr.Key.Pair_tbl.find_opt succs_of (key p))
                  ~default:[]
              in
              let enters =
                List.filter_map
                  (fun s ->
                    match Repr.Key.Pair_tbl.find_opt color (key s) with
                    | Some 1 ->
                        cyc := true;
                        None
                    | Some _ -> None
                    | None -> Some (`Enter s))
                  ss
              in
              walk (enters @ (`Exit p :: rest)))
      | `Exit p :: rest ->
          Repr.Key.Pair_tbl.replace color (key p) 2;
          walk rest
    in
    walk [ `Enter initial ];
    !cyc
  in
  {
    stuck_states = !stuck;
    successful = !terminated || has_cycle ();
    first_counterexample = !first;
  }

(* A survey depends on the two contracts alone, so one process-wide
   memo answers every pairwise question; [product.surveys] counts its
   misses. The name is the one the planner's per-client table had. *)
let surveys =
  Repr.Memo.Pair.create ~name:"planner.compliance_cache"
    ~key:(fun (c1, c2) -> (Contract.id c1, Contract.id c2))
    ()

let survey c1 c2 = Repr.Memo.Pair.find surveys (c1, c2) ~compute:explore

(* Theorem 1's three readings of one relation — Definition 4, emptiness
   of [H₁ ⊗ H₂], no reachable stuck configuration — are all decided by
   the survey, so there is one engine for every pairwise question. *)
let compliant c1 c2 = (survey c1 c2).stuck_states = 0
let counterexample c1 c2 = (survey c1 c2).first_counterexample

let admits level s =
  Compliance.admits_measures level ~stuck:s.stuck_states
    ~successful:s.successful

let pp_stuck_reason ppf = function
  | Client_waits_forever ->
      Fmt.string ppf "client is not terminated and no party can output"
  | Unmatched_output a ->
      Fmt.pf ppf "output on channel %s has no matching input" a

let pp_counterexample ppf ce =
  Fmt.pf ppf
    "@[<v>after synchronising on [%a], the session is stuck:@,\
     client: %a@,server: %a@,cause: %a@]"
    Fmt.(list ~sep:comma string)
    ce.synchronisations Contract.pp (fst ce.stuck) Contract.pp (snd ce.stuck)
    pp_stuck_reason ce.reason

let pp_dot ppf t =
  let id =
    let tbl = Repr.Key.Pair_tbl.create 17 in
    let next = ref 0 in
    fun p ->
      match Repr.Key.Pair_tbl.find_opt tbl (key p) with
      | Some i -> i
      | None ->
          let i = !next in
          incr next;
          Repr.Key.Pair_tbl.replace tbl (key p) i;
          i
  in
  Fmt.pf ppf "digraph product {@.  rankdir=LR;@.";
  List.iter
    (fun ((c1, c2) as p) ->
      let shape =
        if List.exists (fun (q, _) -> equal_state p q) t.finals then
          "doublecircle"
        else "circle"
      in
      Fmt.pf ppf "  %d [shape=%s,label=\"%s | %s\"];@." (id p) shape
        (String.escaped (Contract.to_string c1))
        (String.escaped (Contract.to_string c2)))
    t.states;
  List.iter
    (fun (p, a, q) ->
      Fmt.pf ppf "  %d -> %d [label=\"tau(%s)\"];@." (id p) (id q) a)
    t.delta;
  Fmt.pf ppf "}@."
