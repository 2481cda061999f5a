(* The hash-consed representation layer (lib/repr + the Contract
   refactor on top of it): interning invariants, the cache lifecycle,
   and verdict identity against structural reference implementations of
   the pre-hash-consing algorithms. *)

open Core

(* A structural order over the exposed node view: the reference that
   id-based [equal] must stay consistent with. *)
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

(* --- equal vs the structural reference --- *)

let prop_equal_is_structural =
  QCheck.Test.make ~name:"id equality coincides with structural equality"
    ~count:500 pair_arb (fun (a, b) ->
      Contract.equal a b = (ref_compare a b = 0))

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
  let si = cache_stats "hexpr.intern" in
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
  let intern_before = (cache_stats "hexpr.intern").Repr.Cache.entries in
  Repr.Cache.invalidate (Contract.id c);
  Alcotest.(check int) "only c's entry dropped" 1
    (cache_stats "ready.sets").Repr.Cache.entries;
  Alcotest.(check int) "intern table untouched" intern_before
    (cache_stats "hexpr.intern").Repr.Cache.entries;
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
  let equal_state a b = ref_compare a b = 0
  let hash_state (c : Contract.t) = Hexpr.hash (c :> Hexpr.t)

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
  (* each report from an empty survey memo equals the same report
     answered from a memo that already holds every pair it asks about *)
  let repo = Scenarios.Hotel.repo in
  let cases =
    [
      (("c1", Scenarios.Hotel.client1), Scenarios.Hotel.plan1);
      (("c2", Scenarios.Hotel.client2), Scenarios.Hotel.plan2_s4);
      (("c2", Scenarios.Hotel.client2), Scenarios.Hotel.plan2_s2);
    ]
  in
  let render (client, plan) =
    Fmt.str "%a" Planner.pp_report (Planner.analyze repo ~client plan)
  in
  let cold =
    List.map
      (fun case ->
        Repr.Cache.clear_all ();
        render case)
      cases
  in
  List.iter (fun case -> ignore (render case : string)) cases;
  let misses () = (cache_stats "planner.compliance_cache").Repr.Cache.misses in
  let before = misses () in
  let warm = List.map render cases in
  Alcotest.(check int) "every survey answered from the memo" before
    (misses ());
  List.iter2
    (fun ((_, plan), c) w ->
      Alcotest.(check string) (Fmt.str "plan %a" Plan.pp plan) c w)
    (List.combine cases cold) warm

(* --- the survey memo --- *)

let test_pair_memo_invalidate () =
  (* [Cache.invalidate id] drops exactly the pairs with [id] on either
     side, however often it runs. Negative ids name no interned value,
     so the other registered tables are untouched. *)
  let computed = ref 0 in
  let m = Repr.Memo.Pair.create ~name:"test.memo.pairs" ~key:Fun.id () in
  let ask pairs =
    List.iter
      (fun p ->
        ignore
          (Repr.Memo.Pair.find m p ~compute:(fun (a, b) ->
               incr computed;
               a - b)
            : int))
      pairs
  in
  let entries () = (cache_stats "test.memo.pairs").Repr.Cache.entries in
  ask [ (-1, -2); (-2, -3); (-3, -1); (-2, -2); (-4, -5) ];
  Alcotest.(check int) "one entry per pair" 5 (entries ());
  Repr.Cache.invalidate (-2);
  Alcotest.(check int) "the three pairs with -2 dropped" 2 (entries ());
  computed := 0;
  ask [ (-3, -1); (-4, -5) ];
  Alcotest.(check int) "the other pairs survive" 0 !computed;
  ask [ (-1, -2); (-2, -2) ];
  Alcotest.(check int) "a dropped pair recomputes" 2 !computed;
  Repr.Cache.invalidate (-1);
  Alcotest.(check int) "the pairs with -1 dropped" 2 (entries ());
  Repr.Cache.invalidate (-2);
  Alcotest.(check int) "the self pair dropped" 1 (entries ());
  Repr.Cache.invalidate (-9);
  Alcotest.(check int) "an id in no pair drops nothing" 1 (entries ());
  computed := 0;
  ask [ (-4, -5) ];
  Alcotest.(check int) "the last pair still answers" 0 !computed

let test_surveys_once_per_pair () =
  (* one survey per distinct contract pair a process asks about, across
     clients, plans and the repair ladder *)
  Obs.Metrics.install ();
  Fun.protect ~finally:Obs.Metrics.uninstall @@ fun () ->
  Repr.Cache.clear_all ();
  let pass () =
    List.iter
      (fun file ->
        let spec = Syntax.Parser.spec_of_file ("../examples/data/" ^ file) in
        let repo = Syntax.Spec.repo spec in
        List.iter
          (fun client ->
            ignore (Planner.valid_plans repo ~client : Planner.report list);
            ignore (Mediator.Repair.analyze repo ~client))
          spec.Syntax.Spec.clients)
      [ "hotel.susf"; "mismatched.susf" ]
  in
  pass ();
  let surveys = counter "product.surveys" in
  Alcotest.(check bool) "something was surveyed" true (surveys > 0);
  Alcotest.(check int) "surveys = memo misses"
    (counter "planner.compliance_cache.misses")
    surveys;
  Alcotest.(check int) "surveys = distinct pairs held"
    (cache_stats "planner.compliance_cache").Repr.Cache.entries surveys;
  pass ();
  Alcotest.(check int) "a second pass surveys nothing" surveys
    (counter "product.surveys")

(* --- counters and hashes shared across domains --- *)

let test_memo_counts_across_domains () =
  (* shard domains share memo tables (contract.transitions and the
     survey memo above all): every lookup is counted exactly once,
     however two domains interleave on one table *)
  let m = Repr.Memo.create ~name:"test.memo.domains" ~key:Fun.id () in
  let p =
    Repr.Memo.Pair.create ~name:"test.memo.pair_domains" ~key:Fun.id ()
  in
  let per_domain = 1_000_000 in
  let lookups () =
    for i = 1 to per_domain do
      ignore (Repr.Memo.find m (i land 1023) ~compute:Fun.id : int);
      ignore
        (Repr.Memo.Pair.find p (i land 31, (i lsr 5) land 31) ~compute:fst
          : int)
    done
  in
  let other = Domain.spawn lookups in
  lookups ();
  Domain.join other;
  List.iter
    (fun name ->
      let s = cache_stats name in
      Alcotest.(check int)
        (name ^ ": hits + misses = lookups")
        (2 * per_domain)
        (s.Repr.Cache.hits + s.Repr.Cache.misses))
    [ "test.memo.domains"; "test.memo.pair_domains" ]

let test_fnv_known_answers () =
  List.iter
    (fun (input, want) ->
      Alcotest.(check int) (Fmt.str "FNV-1a/32 %S" input) want
        (Repr.Fnv.hash32 input))
    [ ("", 0x811c9dc5); ("a", 0xe40c292c); ("foobar", 0xbf9cf968) ]

(* --- history expressions --- *)

(* Structural equality, child by child: every generated term draws its
   policies from one pool, so policies equal by id are one instance. *)
let rec ref_hequal x y =
  let req r s =
    r.Hexpr.rid = s.Hexpr.rid
    && Option.equal Usage.Policy.equal r.Hexpr.policy s.Hexpr.policy
  in
  let branches =
    List.equal (fun (a, h) (b, k) -> String.equal a b && ref_hequal h k)
  in
  match (Hexpr.node x, Hexpr.node y) with
  | Hexpr.Nil, Hexpr.Nil -> true
  | Hexpr.Var a, Hexpr.Var b -> String.equal a b
  | Hexpr.Mu (a, h), Hexpr.Mu (b, k) -> String.equal a b && ref_hequal h k
  | Hexpr.Ext a, Hexpr.Ext b | Hexpr.Int a, Hexpr.Int b -> branches a b
  | Hexpr.Ev a, Hexpr.Ev b -> Usage.Event.equal a b
  | Hexpr.Seq (a, b), Hexpr.Seq (c, d) | Hexpr.Choice (a, b), Hexpr.Choice (c, d)
    ->
      ref_hequal a c && ref_hequal b d
  | Hexpr.Open (r, h), Hexpr.Open (s, k) -> req r s && ref_hequal h k
  | Hexpr.Close r, Hexpr.Close s -> req r s
  | Hexpr.Frame (p, h), Hexpr.Frame (q, k) ->
      Usage.Policy.equal p q && ref_hequal h k
  | Hexpr.Frame_close p, Hexpr.Frame_close q -> Usage.Policy.equal p q
  | _ -> false

let rec hrebuild h =
  match Hexpr.node h with
  | Hexpr.Nil -> Hexpr.nil
  | Hexpr.Var x -> Hexpr.var x
  | Hexpr.Mu (x, b) -> Hexpr.mu x (hrebuild b)
  | Hexpr.Ext bs -> Hexpr.branch (List.map (fun (a, k) -> (a, hrebuild k)) bs)
  | Hexpr.Int bs -> Hexpr.select (List.map (fun (a, k) -> (a, hrebuild k)) bs)
  | Hexpr.Ev e -> Hexpr.event e
  | Hexpr.Seq (a, b) -> Hexpr.seq (hrebuild a) (hrebuild b)
  | Hexpr.Open ({ rid; policy }, b) -> Hexpr.open_ ~rid ?policy (hrebuild b)
  | Hexpr.Close { rid; policy } -> Hexpr.close ~rid ?policy ()
  | Hexpr.Frame (p, b) -> Hexpr.frame p (hrebuild b)
  | Hexpr.Frame_close p -> Hexpr.frame_close p
  | Hexpr.Choice (a, b) -> Hexpr.choice (hrebuild a) (hrebuild b)

let prop_hexpr_equal_is_structural =
  QCheck.Test.make ~name:"hexpr: equal is structural" ~count:500
    (QCheck.pair Testkit.Generators.hexpr_arb Testkit.Generators.hexpr_arb)
    (fun (a, b) ->
      let agree x y = Hexpr.equal x y = ref_hequal x y in
      let a' = hrebuild a in
      a' == a
      && Hexpr.hash a' = Hexpr.hash a
      && agree a b && agree b a && agree a a'
      && agree a (Hexpr.normalize a)
      && agree (Hexpr.seq a b) (Hexpr.seq a' (hrebuild b)))

let test_hexpr_id_stability () =
  (* a live term keeps its id through major collections, and a term's
     hash is its structure's, whatever id interning gives it *)
  let loop () =
    Hexpr.mu "h"
      (Hexpr.seq (Hexpr.send "ping")
         (Hexpr.seq (Hexpr.recv "pong") (Hexpr.var "h")))
  in
  let h = loop () in
  let i = Hexpr.id h in
  Gc.full_major ();
  Gc.full_major ();
  let h' = loop () in
  Alcotest.(check bool) "same term after GC" true (h == h');
  Alcotest.(check int) "same id after GC" i (Hexpr.id h');
  let lone () = Hexpr.select [ ("interned-once", Hexpr.ev "x") ] in
  let hash = Hexpr.hash (lone ()) in
  Gc.full_major ();
  Alcotest.(check int) "hash independent of the id" hash (Hexpr.hash (lone ()))

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
    Alcotest.test_case "pair memo: invalidate drops exactly its pairs" `Quick
      test_pair_memo_invalidate;
    Alcotest.test_case "product.surveys = distinct pairs asked" `Quick
      test_surveys_once_per_pair;
    QCheck_alcotest.to_alcotest prop_rebuild_physical;
    QCheck_alcotest.to_alcotest prop_equal_is_structural;
    QCheck_alcotest.to_alcotest prop_compliance_verdict_identical;
    QCheck_alcotest.to_alcotest prop_bisim_verdict_identical;
    Alcotest.test_case "memo counts every lookup across domains" `Quick
      test_memo_counts_across_domains;
    Alcotest.test_case "FNV-1a/32 known answers" `Quick test_fnv_known_answers;
    Alcotest.test_case "hexpr ids stable across GC" `Quick
      test_hexpr_id_stability;
    QCheck_alcotest.to_alcotest prop_hexpr_equal_is_structural;
  ]
