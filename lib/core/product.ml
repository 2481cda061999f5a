type state = Contract.t * Contract.t

type stuck_reason = Client_waits_forever | Unmatched_output of string

type t = {
  states : state array;
  delta : (int * string * int) list;
  finals : (int * stuck_reason) list;
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

module Walk = Automata.Bfs.Make (struct
  type t = state

  let equal = equal_state
  let hash p = Repr.Key.Int_pair.hash (key p)
end)

type counterexample = {
  synchronisations : string list;
  stuck : state;
  reason : stuck_reason;
}

(* The one walk of [H₁ ⊗ H₂], breadth-first from [(c1, c2)]: the states
   in discovery order, the τ-edges between their numbers and the final
   states with their reasons, all newest first. Per Definition 5 a final
   state is not expanded. [first] is the first final state reached, with
   a shortest path to it. *)
type walk = {
  rev_states : state list;
  size : int;
  rev_edges : (int * string * int) list;
  rev_finals : (int * stuck_reason) list;
  first : counterexample option;
}

let walk c1 c2 =
  let rev_states = ref [] and rev_edges = ref [] and rev_finals = ref [] in
  let first = ref None in
  let _, size =
    Walk.run [ (c1, c2) ]
      ~edge:(fun i a j -> rev_edges := (i, a, j) :: !rev_edges)
      (fun w i p ->
        rev_states := p :: !rev_states;
        match final_reason p with
        | Some reason ->
            rev_finals := (i, reason) :: !rev_finals;
            if !first = None then
              first :=
                Some { synchronisations = Walk.path w i; stuck = p; reason };
            Automata.Bfs.Prune
        | None ->
            Automata.Bfs.Expand (Compliance.sync_successors (fst p) (snd p)))
  in
  {
    rev_states = !rev_states;
    size;
    rev_edges = !rev_edges;
    rev_finals = !rev_finals;
    first = !first;
  }

let build c1 c2 =
  Obs.Trace.with_span "product.build" @@ fun () ->
  let w = walk c1 c2 in
  let delta = List.rev w.rev_edges in
  if Obs.Metrics.active () then begin
    let transitions = List.length delta in
    Obs.Metrics.incr "product.builds";
    Obs.Metrics.add "product.states.built" w.size;
    Obs.Metrics.add "product.transitions.built" transitions;
    Obs.Metrics.observe "product.states.per_build" w.size;
    Obs.Trace.add_attr "states" (Obs.Trace.Int w.size);
    Obs.Trace.add_attr "transitions" (Obs.Trace.Int transitions)
  end;
  {
    states = Array.of_list (List.rev w.rev_states);
    delta;
    finals = List.rev w.rev_finals;
  }

let language_empty t = t.finals = []

(* ---- the level survey ------------------------------------------------- *)

type survey = {
  stuck_states : int;
  successful : bool;
  first_counterexample : counterexample option;
}

(* Everything every compliance level needs, from the one walk: the
   number of distinct stuck configurations, whether some maximal
   execution avoids them all, and the shortest counterexample (BFS
   order) for diagnostics. [successful] holds iff a client-terminated
   configuration is reachable or the reachable product contains a
   cycle — final states have no outgoing transitions, so any cycle is a
   live loop, and a maximal path is exactly one that ends
   client-terminated, ends stuck, or loops forever. A cycle is a
   strongly connected component of two states or more, or a
   self-loop. *)
let explore (c1, c2) =
  Obs.Trace.with_span "product.survey" @@ fun () ->
  Obs.Metrics.incr "product.surveys";
  let w = walk c1 c2 in
  let has_cycle () =
    let adj = Array.make w.size [] in
    List.iter (fun (i, a, j) -> adj.(i) <- (a, j) :: adj.(i)) w.rev_edges;
    snd (Scc.components adj) < w.size
    || List.exists (fun (i, _, j) -> i = j) w.rev_edges
  in
  {
    stuck_states = List.length w.rev_finals;
    successful =
      List.exists (fun (c, _) -> Contract.is_terminated c) w.rev_states
      || has_cycle ();
    first_counterexample = w.first;
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
