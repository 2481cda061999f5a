module Label = struct
  type t = { ev_name : string; guard : Guard.t; env : Guard.env }
  type letter = Event.t

  let sat l (e : Event.t) =
    String.equal l.ev_name e.name && Guard.eval l.env l.guard e.arg

  let pp ppf l =
    match l.guard with
    | Guard.True -> Fmt.pf ppf "%s(x)" l.ev_name
    | g -> Fmt.pf ppf "%s(x) when %a" l.ev_name Guard.pp g

  let pp_letter = Event.pp
end

module A = Automata.Sfa.Make (Label)

type t = { id : string; automaton : A.t }

(* One instance per (id, automaton): instantiating a policy again hands
   back the instance already alive, so terms that carry it can be
   interned by instance. Automata are compared whole, because one
   process may hold two automata under one id (two specs that declare
   the same policy name differently). The table is weak, and shared by
   broker shards, hence the lock. *)
module Instances = Weak.Make (struct
  type nonrec t = t

  let hash p = Hashtbl.hash p.id

  let equal p q =
    String.equal p.id q.id
    && Int.equal (A.initial p.automaton) (A.initial q.automaton)
    && A.States.equal (A.finals p.automaton) (A.finals q.automaton)
    && A.transitions p.automaton = A.transitions q.automaton
end)

let instances = Instances.create 64
let instances_lock = Mutex.create ()

let make ~id ~init ~offending ~trans =
  let p = { id; automaton = A.create ~init ~finals:offending ~trans } in
  Mutex.protect instances_lock (fun () -> Instances.merge instances p)

let id p = p.id
let automaton p = p.automaton

let respects p tr =
  if Obs.Metrics.active () then begin
    Obs.Metrics.incr "usage.policy.respects";
    Obs.Metrics.add "usage.policy.automaton_steps" (List.length tr)
  end;
  not (A.violates p.automaton tr)

let first_violation p tr = A.first_violation p.automaton tr

type cursor = A.States.t

let start p = A.States.singleton (A.initial p.automaton)

let advance p c e =
  Obs.Metrics.incr "usage.policy.automaton_steps";
  A.step p.automaton c e
let offending p c = not (A.States.disjoint c (A.finals p.automaton))
let replay p tr = List.fold_left (advance p) (start p) tr
let cursor_states c = A.States.elements c
let equal a b = String.equal a.id b.id
let compare a b = String.compare a.id b.id
let pp ppf p = Fmt.string ppf p.id
