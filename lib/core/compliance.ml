(* ---- loosened compliance levels --------------------------------------- *)

type level = Strict | Skip_k of int | Affectible

(* The sub-behaviour preorder is a total order on admissiveness here:
   rank 0 admits exactly the strictly compliant pairs, rank k the pairs
   with at most k reachable disagreement points (all of them avoidable),
   and Affectible every pair some execution of which succeeds. *)
let rank = function
  | Strict -> 0
  | Skip_k k -> max 0 k
  | Affectible -> max_int

let weaker_equal a b = rank a >= rank b

let admits_measures level ~stuck ~successful =
  match level with
  | Strict -> stuck = 0
  | Skip_k k -> stuck <= max 0 k && successful
  | Affectible -> successful

let level_to_string = function
  | Strict -> "strict"
  | Skip_k k -> Printf.sprintf "skip:%d" (max 0 k)
  | Affectible -> "affectible"

let level_of_string s =
  match s with
  | "strict" -> Ok Strict
  | "affectible" -> Ok Affectible
  | _ -> (
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "skip" -> (
          let n = String.sub s (i + 1) (String.length s - i - 1) in
          match int_of_string_opt n with
          | Some k when k >= 0 -> Ok (Skip_k k)
          | Some k -> Error (Fmt.str "negative skip level %d" k)
          | None -> Error (Fmt.str "bad skip level %S (want 'skip:K')" n))
      | _ ->
          Error
            (Fmt.str "unknown compliance level %S (want strict, skip:K or \
                      affectible)" s))

let equal_level a b =
  match (a, b) with
  | Strict, Strict | Affectible, Affectible -> true
  | Skip_k j, Skip_k k -> max 0 j = max 0 k
  | _ -> false

(* ---- the strict relation (paper Definition 4) ------------------------- *)

let sync_successors c1 c2 =
  let t1 = Contract.transitions c1 and t2 = Contract.transitions c2 in
  List.concat_map
    (fun (d1, a1, k1) ->
      List.filter_map
        (fun (d2, a2, k2) ->
          if String.equal a1 a2 && d2 = Contract.co d1 then
            Some (a1, (k1, k2))
          else None)
        t2)
    t1

let locally_ok c1 c2 =
  (* one ready-set query per party ([Ready.ready_sets] is memoized), and
     the server sets' co-images are taken once, not once per client set *)
  let r1 = Ready.ready_sets c1 in
  let co_r2 =
    List.map (Ready.Set.map Ready.Comm.co) (Ready.ready_sets c2)
  in
  List.for_all
    (fun cset ->
      Ready.Set.is_empty cset
      || List.for_all
           (fun co_s -> not (Ready.Set.is_empty (Ready.Set.inter cset co_s)))
           co_r2)
    r1

let compliant client server =
  Obs.Trace.with_span "compliance.compliant" @@ fun () ->
  (* visited set keyed on hash-consing ids: O(1) probes instead of
     structural compares *)
  let seen = Repr.Key.Pair_set.create () in
  let key (c1, c2) = (Contract.id c1, Contract.id c2) in
  let rec explore = function
    | [] -> true
    | (c1, c2) :: rest ->
        Obs.Metrics.incr "compliance.pairs_explored";
        locally_ok c1 c2
        &&
        let succs =
          sync_successors c1 c2 |> List.map snd
          |> List.filter (fun p -> Repr.Key.Pair_set.add seen (key p))
        in
        explore (succs @ rest)
  in
  let start = (client, server) in
  ignore (Repr.Key.Pair_set.add seen (key start) : bool);
  explore [ start ]
