open Core

type party = { name : string; contract : Contract.t }
type move = { sender : int; receiver : int; channel : string }

type t = {
  parties : party array;
  states : Contract.t array array;  (* states.(s).(i): residual of party i *)
  moves : (move * int) list array;
  offers : (int * string) list array;
  requests : (int * string) list array;
}

let parties t = t.parties
let size t = Array.length t.states
let state t s = Array.copy t.states.(s)
let moves t s = t.moves.(s)
let offers t s = t.offers.(s)
let requests t s = t.requests.(s)
let client_done t s = Contract.is_terminated t.states.(s).(0)

(* State vectors are keyed by their contract ids: hash-consing makes
   the key cheap and equality exact. *)
module Walk = Automata.Bfs.Make (struct
  type t = Contract.t array

  let equal = Array.for_all2 Contract.equal

  let hash =
    Array.fold_left (fun h c -> ((h * 31) + Contract.id c) land max_int) 0
end)

(* A state's enabled offers and requests, and its matches in (sender,
   transition, receiver) order, each with the vector it leads to. *)
let expand v =
  let trans = Array.map Contract.transitions v in
  let offs = ref [] and reqs = ref [] and edges = ref [] in
  Array.iteri
    (fun s ts ->
      List.iter
        (fun (d, ch, cs') ->
          match d with
          | Contract.I -> reqs := (s, ch) :: !reqs
          | Contract.O ->
              offs := (s, ch) :: !offs;
              Array.iteri
                (fun r tr ->
                  if r <> s then
                    List.iter
                      (fun (d', ch', cr') ->
                        if d' = Contract.I && String.equal ch ch' then begin
                          let w = Array.copy v in
                          w.(s) <- cs';
                          w.(r) <- cr';
                          edges :=
                            ({ sender = s; receiver = r; channel = ch }, w)
                            :: !edges
                        end)
                      tr)
                trans)
        ts)
    trans;
  (List.rev !offs, List.rev !reqs, List.rev !edges)

let build ?(limit = 1_000_000) ps =
  let parties = Array.of_list ps in
  if Array.length parties < 2 then
    invalid_arg "Orchestration.Automaton.build: need at least two parties";
  let rev_states = ref [] and rev_offers = ref [] and rev_requests = ref [] in
  let rev_edges = ref [] in
  let _, size =
    Walk.run ~limit
      ~edge:(fun i m j -> rev_edges := (i, m, j) :: !rev_edges)
      [ Array.map (fun p -> p.contract) parties ]
      (fun _ _ v ->
        let offers, requests, edges = expand v in
        rev_states := v :: !rev_states;
        rev_offers := offers :: !rev_offers;
        rev_requests := requests :: !rev_requests;
        Automata.Bfs.Expand edges)
  in
  let moves = Array.make size [] in
  List.iter (fun (i, m, j) -> moves.(i) <- (m, j) :: moves.(i)) !rev_edges;
  Obs.Metrics.add "orchestration.product.states.built" size;
  {
    parties;
    states = Array.of_list (List.rev !rev_states);
    moves;
    offers = Array.of_list (List.rev !rev_offers);
    requests = Array.of_list (List.rev !rev_requests);
  }

let pp_move ~parties ppf m =
  Fmt.pf ppf "%s: %s -> %s" m.channel parties.(m.sender).name
    parties.(m.receiver).name
