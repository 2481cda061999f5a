(* The hash-consed representation layer (lib/repr + the Contract
   refactor on top of it): interning invariants, the cache lifecycle,
   and verdict identity against structural reference implementations of
   the pre-hash-consing algorithms. *)

open Core

(* The old structural Contract.compare, reimplemented over the exposed
   node view: the reference that id-based [equal]/[compare] must stay
   consistent with. *)
let rec ref_compare x y =
  let tag (n : Contract.node) =
    match n with
    | Contract.Nil -> 0
    | Contract.Var _ -> 1
    | Contract.Mu _ -> 2
    | Contract.Ext _ -> 3
    | Contract.Int _ -> 4
    | Contract.Seq _ -> 5
  in
  match (Contract.node x, Contract.node y) with
  | Contract.Nil, Contract.Nil -> 0
  | Contract.Var a, Contract.Var b -> String.compare a b
  | Contract.Mu (a, h), Contract.Mu (b, k) -> (
      match String.compare a b with 0 -> ref_compare h k | c -> c)
  | Contract.Ext a, Contract.Ext b | Contract.Int a, Contract.Int b ->
      List.compare
        (fun (c1, h) (c2, k) ->
          match String.compare c1 c2 with 0 -> ref_compare h k | c -> c)
        a b
  | Contract.Seq (a, b), Contract.Seq (c, d) -> (
      match ref_compare a c with 0 -> ref_compare b d | c -> c)
  | n1, n2 -> Int.compare (tag n1) (tag n2)

let rec rebuild c =
  match Contract.node c with
  | Contract.Nil -> Contract.nil
  | Contract.Var x -> Contract.var x
  | Contract.Mu (x, b) -> Contract.mu x (rebuild b)
  | Contract.Ext bs ->
      Contract.branch (List.map (fun (a, k) -> (a, rebuild k)) bs)
  | Contract.Int bs ->
      Contract.select (List.map (fun (a, k) -> (a, rebuild k)) bs)
  | Contract.Seq (a, b) -> Contract.seq (rebuild a) (rebuild b)

let pair_arb =
  QCheck.pair Testkit.Generators.contract_arb Testkit.Generators.contract_arb

(* --- interning --- *)

let test_interning () =
  let a1 = Contract.select [ ("a", Contract.recv "b") ] in
  let a2 = Contract.select [ ("a", Contract.recv "b") ] in
  Alcotest.(check bool) "maximal sharing" true (a1 == a2);
  Alcotest.(check int) "same id" (Contract.id a1) (Contract.id a2);
  let b = Contract.select [ ("a", Contract.recv "c") ] in
  Alcotest.(check bool) "distinct ids" true (Contract.id a1 <> Contract.id b)

let test_id_stability () =
  (* ids of live values survive major collections: the weak intern
     table may drop dead entries, never live ones *)
  let c =
    Contract.mu "h"
      (Contract.seq (Contract.send "ping")
         (Contract.seq (Contract.recv "pong") (Contract.var "h")))
  in
  let i = Contract.id c in
  Gc.full_major ();
  Gc.full_major ();
  let c' =
    Contract.mu "h"
      (Contract.seq (Contract.send "ping")
         (Contract.seq (Contract.recv "pong") (Contract.var "h")))
  in
  Alcotest.(check bool) "same value after GC" true (c == c');
  Alcotest.(check int) "same id after GC" i (Contract.id c')

let prop_rebuild_physical =
  QCheck.Test.make ~name:"rebuilding a contract returns the same value"
    ~count:300 Testkit.Generators.contract_arb (fun c -> rebuild c == c)

(* --- equal/compare vs the structural reference --- *)

let prop_equal_is_structural =
  QCheck.Test.make ~name:"id equality coincides with structural equality"
    ~count:500 pair_arb (fun (a, b) ->
      Contract.equal a b = (ref_compare a b = 0)
      && (Contract.compare a b = 0) = (ref_compare a b = 0))

let prop_compare_total_order =
  QCheck.Test.make ~name:"compare is a total order consistent with equal"
    ~count:300
    (QCheck.triple Testkit.Generators.contract_arb
       Testkit.Generators.contract_arb Testkit.Generators.contract_arb)
    (fun (a, b, c) ->
      let sgn n = Stdlib.compare n 0 in
      sgn (Contract.compare a b) = -sgn (Contract.compare b a)
      && ((not (Contract.compare a b <= 0 && Contract.compare b c <= 0))
         || Contract.compare a c <= 0)
      && (Contract.compare a b = 0) = Contract.equal a b)

(* --- cache lifecycle --- *)

let cache_stats name =
  match List.assoc_opt name (Repr.Cache.stats ()) with
  | Some s -> s
  | None -> Alcotest.failf "cache %S is not registered" name

let test_clear_all () =
  let c = Contract.project Scenarios.Hotel.broker in
  ignore (Ready.ready_sets c);
  ignore (Ready.ready_sets c);
  let s = cache_stats "ready.sets" in
  Alcotest.(check bool) "hits recorded" true (s.Repr.Cache.hits > 0);
  Repr.Cache.clear_all ();
  let s = cache_stats "ready.sets" in
  Alcotest.(check int) "hits reset" 0 s.Repr.Cache.hits;
  Alcotest.(check int) "misses reset" 0 s.Repr.Cache.misses;
  Alcotest.(check int) "memo entries dropped" 0 s.Repr.Cache.entries;
  let si = cache_stats "contract.intern" in
  Alcotest.(check int) "intern counters reset" 0 si.Repr.Cache.hits;
  (* the intern table itself must survive a clear: live contracts keep
     their identity, so structurally-equal rebuilds still intern to the
     same value *)
  Alcotest.(check bool) "intern entries survive" true
    (si.Repr.Cache.entries > 0);
  Alcotest.(check bool) "identity preserved across clear" true
    (rebuild c == c);
  ignore (Ready.ready_sets c);
  let s = cache_stats "ready.sets" in
  Alcotest.(check bool) "memo refills after clear" true
    (s.Repr.Cache.entries > 0)

let counter name =
  List.assoc_opt name (Obs.Metrics.snapshot ()).Obs.Metrics.counters
  |> Option.value ~default:0

let test_invalidate_selective () =
  (* [Cache.invalidate id] drops exactly the memo entries derived from
     that id; unrelated entries and the intern tables survive, so
     physical equality of live values is unaffected *)
  Obs.Metrics.install ();
  Fun.protect ~finally:Obs.Metrics.uninstall @@ fun () ->
  Repr.Cache.clear_all ();
  let c = Contract.project Scenarios.Hotel.broker in
  let s = Contract.project Scenarios.Hotel.s3 in
  ignore (Ready.ready_sets c);
  ignore (Ready.ready_sets s);
  let before = (cache_stats "ready.sets").Repr.Cache.entries in
  Alcotest.(check int) "both contracts memoized" 2 before;
  let intern_before = (cache_stats "contract.intern").Repr.Cache.entries in
  Repr.Cache.invalidate (Contract.id c);
  Alcotest.(check int) "only c's entry dropped" 1
    (cache_stats "ready.sets").Repr.Cache.entries;
  Alcotest.(check int) "intern table untouched" intern_before
    (cache_stats "contract.intern").Repr.Cache.entries;
  Alcotest.(check bool) "invalidations metric bumped" true
    (counter "repr.cache.invalidations" > 0);
  (* the invalidated value is still the canonical interned one *)
  Alcotest.(check bool) "physical equality survives invalidate" true
    (rebuild c == c);
  ignore (Ready.ready_sets c);
  Alcotest.(check int) "memo refills on demand" 2
    (cache_stats "ready.sets").Repr.Cache.entries

let test_ready_computations_not_quadratic () =
  (* [ready.computations] counts memo misses, so over one compliance
     exploration it equals the number of distinct contracts queried —
     linear in the state space, not quadratic in explored pairs — and a
     second identical query adds nothing *)
  Obs.Metrics.install ();
  Fun.protect ~finally:Obs.Metrics.uninstall @@ fun () ->
  Repr.Cache.clear_all ();
  let c = Contract.project Scenarios.Hotel.broker in
  let s = Contract.dual c in
  (* every pair the Definition 4 fixed point explores consults
     [Ready.ready_sets] *)
  Alcotest.(check bool) "compliant with dual" true
    (Compliance.compliant c s);
  let r1 = counter "ready.computations" in
  let entries = (cache_stats "ready.sets").Repr.Cache.entries in
  Alcotest.(check int) "computations = distinct contracts queried" entries r1;
  Alcotest.(check bool) "something was computed" true (r1 > 0);
  Alcotest.(check bool) "compliant again" true
    (Compliance.compliant c s);
  Alcotest.(check int) "second run fully memoized" r1
    (counter "ready.computations")

(* --- verdict identity: the old structural algorithms, replayed --- *)

module Ref_pair_set = Set.Make (struct
  type t = Contract.t * Contract.t

  let compare (a1, b1) (a2, b2) =
    match ref_compare a1 a2 with 0 -> ref_compare b1 b2 | c -> c
end)

(* Compliance.compliant as it was before id keys: structural visited
   set, sorted worklist *)
let ref_compliant client server =
  let rec explore seen = function
    | [] -> true
    | (c1, c2) :: rest ->
        Compliance.locally_ok c1 c2
        &&
        let succs =
          Compliance.sync_successors c1 c2 |> List.map snd
          |> List.filter (fun p -> not (Ref_pair_set.mem p seen))
          |> List.sort_uniq (fun (a1, b1) (a2, b2) ->
                 match ref_compare a1 a2 with
                 | 0 -> ref_compare b1 b2
                 | c -> c)
        in
        let seen = List.fold_left (fun s p -> Ref_pair_set.add p s) seen succs in
        explore seen (succs @ rest)
  in
  let start = (client, server) in
  explore (Ref_pair_set.singleton start) [ start ]

let prop_compliance_verdict_identical =
  QCheck.Test.make
    ~name:"id-keyed compliance = structural compliance = product emptiness"
    ~count:500 pair_arb (fun (c, s) ->
      let v = Compliance.compliant c s in
      v = ref_compliant c s && v = Product.compliant c s)

module Ref_lts = Bisim.Make (struct
  type state = Contract.t
  type label = Contract.dir * string

  let compare_state = ref_compare

  let compare_label (d1, a1) (d2, a2) =
    match Stdlib.compare d1 d2 with 0 -> String.compare a1 a2 | c -> c

  let transitions c =
    List.map (fun (d, a, k) -> ((d, a), k)) (Contract.transitions c)

  let is_tau _ = false
end)

let prop_bisim_verdict_identical =
  QCheck.Test.make
    ~name:"bisimilarity agrees between id and structural state orders"
    ~count:200 pair_arb (fun (a, b) ->
      Bisim.contract_strong a b = Ref_lts.strong a b
      && Bisim.contract_simulates a b = Ref_lts.simulates a b)

let test_planner_cache_identical () =
  let repo = Scenarios.Hotel.repo in
  List.iter
    (fun (client, plan) ->
      let cache = Repr.Key.Pair_tbl.create 17 in
      let with_cache = Planner.analyze ~cache repo ~client plan in
      let without = Planner.analyze repo ~client plan in
      Alcotest.(check string)
        (Fmt.str "plan %a" Plan.pp plan)
        (Fmt.str "%a" Planner.pp_report without)
        (Fmt.str "%a" Planner.pp_report with_cache);
      (* a second cached run hits the cache and still agrees *)
      let again = Planner.analyze ~cache repo ~client plan in
      Alcotest.(check string)
        (Fmt.str "plan %a (cached rerun)" Plan.pp plan)
        (Fmt.str "%a" Planner.pp_report without)
        (Fmt.str "%a" Planner.pp_report again))
    [
      (("c1", Scenarios.Hotel.client1), Scenarios.Hotel.plan1);
      (("c2", Scenarios.Hotel.client2), Scenarios.Hotel.plan2_s4);
      (("c2", Scenarios.Hotel.client2), Scenarios.Hotel.plan2_s2);
    ]

(* --- counters and hashes shared across domains --- *)

let test_memo_counts_across_domains () =
  (* shard domains share memo tables (contract.transitions above all):
     every lookup is counted exactly once, however two domains
     interleave on one table *)
  let m = Repr.Memo.create ~name:"test.memo.domains" ~key:Fun.id () in
  let per_domain = 1_000_000 in
  let lookups () =
    for i = 1 to per_domain do
      ignore (Repr.Memo.find m (i land 1023) ~compute:Fun.id : int)
    done
  in
  let other = Domain.spawn lookups in
  lookups ();
  Domain.join other;
  let s = cache_stats "test.memo.domains" in
  Alcotest.(check int) "hits + misses = lookups" (2 * per_domain)
    (s.Repr.Cache.hits + s.Repr.Cache.misses)

let test_fnv_known_answers () =
  List.iter
    (fun (input, want) ->
      Alcotest.(check int) (Fmt.str "FNV-1a/32 %S" input) want
        (Repr.Fnv.hash32 input))
    [ ("", 0x811c9dc5); ("a", 0xe40c292c); ("foobar", 0xbf9cf968) ]

let suite =
  [
    Alcotest.test_case "interning shares structure" `Quick test_interning;
    Alcotest.test_case "ids stable across GC" `Quick test_id_stability;
    Alcotest.test_case "clear_all: memo dropped, interning survives" `Quick
      test_clear_all;
    Alcotest.test_case "ready.computations is not quadratic" `Quick
      test_ready_computations_not_quadratic;
    Alcotest.test_case "invalidate is selective, interning survives" `Quick
      test_invalidate_selective;
    Alcotest.test_case "planner cache does not change reports" `Quick
      test_planner_cache_identical;
    QCheck_alcotest.to_alcotest prop_rebuild_physical;
    QCheck_alcotest.to_alcotest prop_equal_is_structural;
    QCheck_alcotest.to_alcotest prop_compare_total_order;
    QCheck_alcotest.to_alcotest prop_compliance_verdict_identical;
    QCheck_alcotest.to_alcotest prop_bisim_verdict_identical;
    Alcotest.test_case "memo counts every lookup across domains" `Quick
      test_memo_counts_across_domains;
    Alcotest.test_case "FNV-1a/32 known answers" `Quick test_fnv_known_answers;
  ]
