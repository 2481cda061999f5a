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

(* State vectors are interned by their contract-id vectors: hash-consing
   makes the key cheap and equality exact. *)
module Vec = struct
  type t = int array

  let equal = ( = )
  let hash = Hashtbl.hash
end

module Vtbl = Hashtbl.Make (Vec)

let build ?(limit = 1_000_000) ps =
  let parties = Array.of_list ps in
  let n = Array.length parties in
  if n < 2 then
    invalid_arg "Orchestration.Automaton.build: need at least two parties";
  let index = Vtbl.create 97 in
  let rev_states = ref [] and count = ref 0 in
  let queue = Queue.create () in
  let intern v =
    let k = Array.map Contract.id v in
    match Vtbl.find_opt index k with
    | Some i -> i
    | None ->
        if !count >= limit then
          failwith "Orchestration.Automaton.build: state limit exceeded";
        let i = !count in
        incr count;
        Vtbl.replace index k i;
        rev_states := v :: !rev_states;
        Queue.push (i, v) queue;
        i
  in
  let initial = Array.map (fun p -> p.contract) parties in
  ignore (intern initial);
  let rev_moves = ref [] and rev_offers = ref [] and rev_requests = ref [] in
  while not (Queue.is_empty queue) do
    let i, v = Queue.pop queue in
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
                            let j = intern w in
                            edges :=
                              ({ sender = s; receiver = r; channel = ch }, j)
                              :: !edges
                          end)
                        tr)
                  trans)
          ts)
      trans;
    (* entries are pushed per state in queue order, so the reversed
       accumulators line up with state numbering *)
    assert (i = List.length !rev_moves);
    rev_moves := List.rev !edges :: !rev_moves;
    rev_offers := List.rev !offs :: !rev_offers;
    rev_requests := List.rev !reqs :: !rev_requests
  done;
  let states = Array.of_list (List.rev !rev_states) in
  Obs.Metrics.add "orchestration.product.states.built" (Array.length states);
  {
    parties;
    states;
    moves = Array.of_list (List.rev !rev_moves);
    offers = Array.of_list (List.rev !rev_offers);
    requests = Array.of_list (List.rev !rev_requests);
  }

let pp_move ~parties ppf m =
  Fmt.pf ppf "%s: %s -> %s" m.channel parties.(m.sender).name
    parties.(m.receiver).name
