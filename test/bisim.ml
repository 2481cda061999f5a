open Core

module type LTS = sig
  type state
  type label

  val compare_state : state -> state -> int
  val equal_state : state -> state -> bool
  val hash_state : state -> int
  val compare_label : label -> label -> int
  val transitions : state -> (label * state) list
  val is_tau : label -> bool
end

module Make (L : LTS) = struct
  module SMap = Map.Make (struct
    type t = L.state

    let compare = L.compare_state
  end)

  module Walk = Automata.Bfs.Make (struct
    type t = L.state

    let equal = L.equal_state
    let hash = L.hash_state
  end)

  let reachable trans roots =
    Walk.states trans roots |> List.sort L.compare_state

  (* Partition refinement: iterate block signatures to a fixed point.
     [trans] is the (possibly saturated) transition function; labels are
     ordered by the explicit [cmp_label] (never polymorphic compare). *)
  let refine ~cmp_label trans states =
    let block = ref (List.fold_left (fun m s -> SMap.add s 0 m) SMap.empty states) in
    let cmp_target (l1, b1) (l2, b2) =
      match cmp_label l1 l2 with 0 -> Int.compare b1 b2 | c -> c
    in
    let changed = ref true in
    while !changed do
      changed := false;
      let signature s =
        let targets =
          trans s
          |> List.map (fun (l, q) -> (l, SMap.find q !block))
          |> List.sort_uniq cmp_target
        in
        (SMap.find s !block, targets)
      in
      let table = Hashtbl.create 97 in
      let fresh = ref 0 in
      let assignment =
        List.map
          (fun s ->
            let sg = signature s in
            let b =
              match Hashtbl.find_opt table sg with
              | Some b -> b
              | None ->
                  let b = !fresh in
                  incr fresh;
                  Hashtbl.replace table sg b;
                  b
            in
            (s, b))
          states
      in
      List.iter
        (fun (s, b) ->
          if SMap.find s !block <> b then begin
            block := SMap.add s b !block;
            changed := true
          end)
        assignment
    done;
    !block

  let equivalent ~cmp_label trans a b =
    let states = reachable trans [ a; b ] in
    let block = refine ~cmp_label trans states in
    SMap.find a block = SMap.find b block

  let strong a b = equivalent ~cmp_label:L.compare_label L.transitions a b

  (* Weak transitions: s ⇒τ⇒ s' is the reflexive-transitive τ-closure;
     s ⇒a⇒ s' (a visible) is τ* a τ*. Computed with memoised closures
     over the finite reachable space. *)
  let weak a b =
    let states = reachable L.transitions [ a; b ] in
    let tau_closure =
      (* Kleene iteration of the τ-successor relation over the finite
         state space; ordered maps keep state comparison structural. *)
      let closure =
        ref
          (List.fold_left
             (fun m s -> SMap.add s (SMap.singleton s ()) m)
             SMap.empty states)
      in
      let stable = ref false in
      while not !stable do
        stable := true;
        List.iter
          (fun s ->
            let current = SMap.find s !closure in
            let extended =
              List.fold_left
                (fun acc (l, q) ->
                  if L.is_tau l then
                    SMap.union (fun _ () () -> Some ()) acc (SMap.find q !closure)
                  else acc)
                current (L.transitions s)
            in
            if SMap.cardinal extended <> SMap.cardinal current then begin
              closure := SMap.add s extended !closure;
              stable := false
            end)
          states
      done;
      fun s -> SMap.find s !closure
    in
    let weak_trans s =
      let from_closure =
        SMap.bindings (tau_closure s) |> List.map fst
      in
      let visible =
        List.concat_map
          (fun s1 ->
            List.concat_map
              (fun (l, q) ->
                if L.is_tau l then []
                else
                  SMap.bindings (tau_closure q)
                  |> List.map (fun (q', ()) -> (`Vis l, q')))
              (L.transitions s1))
          from_closure
      in
      let silent =
        List.map (fun s' -> (`Tau, s')) from_closure
      in
      List.sort_uniq
        (fun (l1, q1) (l2, q2) ->
          match (l1, l2) with
          | `Tau, `Tau -> L.compare_state q1 q2
          | `Tau, `Vis _ -> -1
          | `Vis _, `Tau -> 1
          | `Vis a, `Vis b -> (
              match L.compare_label a b with
              | 0 -> L.compare_state q1 q2
              | c -> c))
        (silent @ visible)
    in
    let cmp_label l1 l2 =
      match (l1, l2) with
      | `Tau, `Tau -> 0
      | `Tau, `Vis _ -> -1
      | `Vis _, `Tau -> 1
      | `Vis x, `Vis y -> L.compare_label x y
    in
    equivalent ~cmp_label weak_trans a b

  module PSet = Set.Make (struct
    type t = L.state * L.state

    let compare (a1, b1) (a2, b2) =
      match L.compare_state a1 a2 with
      | 0 -> L.compare_state b1 b2
      | c -> c
  end)

  (* Greatest simulation, computed with an assumption set. *)
  let simulates a b =
    let rec go assumed (a, b) =
      if PSet.mem (a, b) assumed then (true, assumed)
      else
        let assumed = PSet.add (a, b) assumed in
        let tb = L.transitions b in
        List.fold_left
          (fun (ok, assumed) (l, a') ->
            if not ok then (false, assumed)
            else
              let candidates =
                List.filter_map
                  (fun (l', b') ->
                    if L.compare_label l l' = 0 then Some b' else None)
                  tb
              in
              let rec try_candidates assumed = function
                | [] -> (false, assumed)
                | b' :: rest -> (
                    match go assumed (a', b') with
                    | true, assumed -> (true, assumed)
                    | false, _ -> try_candidates assumed rest)
              in
              try_candidates assumed candidates)
          (true, assumed) (L.transitions a)
    in
    fst (go PSet.empty (a, b))

  let classes roots =
    let states = reachable L.transitions roots in
    let block = refine ~cmp_label:L.compare_label L.transitions states in
    List.map (fun s -> (s, SMap.find s block)) states
end

module Hexpr_lts = struct
  type state = Hexpr.t
  type label = Action.t

  let compare_state a b = Int.compare (Hexpr.id a) (Hexpr.id b)
  let equal_state = Hexpr.equal
  let hash_state = Hexpr.hash
  let compare_label = Action.compare
  let transitions = Semantics.transitions
  let is_tau = function Action.Tau -> true | _ -> false
end

module H = Make (Hexpr_lts)

module Contract_lts = struct
  type state = Contract.t
  type label = Contract.dir * string

  let compare_state a b = Int.compare (Contract.id a) (Contract.id b)
  let equal_state = Contract.equal
  let hash_state = Contract.id

  let compare_label (d1, a1) (d2, a2) =
    match Stdlib.compare d1 d2 with 0 -> String.compare a1 a2 | c -> c

  let transitions c =
    List.map (fun (d, a, k) -> ((d, a), k)) (Contract.transitions c)

  let is_tau _ = false
end

module C = Make (Contract_lts)

let hexpr_strong = H.strong
let hexpr_simulates = H.simulates
let contract_simulates = C.simulates
let hexpr_weak = H.weak
let contract_strong = C.strong
let contract_weak = C.weak
