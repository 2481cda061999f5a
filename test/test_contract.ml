(* Projection (·)!, the contract LTS, and observable ready sets,
   including the examples printed right below Definition 3. *)

open Core

let c_testable = Alcotest.testable Contract.pp Contract.equal
let phi = Scenarios.Hotel.phi1

(* the states reachable in the contract LTS, keyed by id *)
module Walk = Automata.Bfs.Make (struct
  type t = Contract.t

  let equal = Contract.equal
  let hash = Contract.id
end)

let reachable c =
  Walk.states
    (fun c -> List.map (fun (d, a, k) -> ((d, a), k)) (Contract.transitions c))
    [ c ]

let test_projection_erases () =
  (* events, framings, whole sessions disappear *)
  let h =
    Hexpr.seq_all
      [
        Hexpr.ev "x";
        Hexpr.frame phi (Hexpr.ev "y");
        Hexpr.open_ ~rid:1 ~policy:phi (Hexpr.recv "a");
        Hexpr.send "b";
      ]
  in
  Alcotest.check c_testable "only b! remains" (Contract.send "b") (Contract.project h)

let test_projection_frame_body_kept () =
  (* φ[a?] projects to a? — framings are erased but their bodies stay *)
  let h = Hexpr.frame phi (Hexpr.recv "a") in
  Alcotest.check c_testable "body kept" (Contract.recv "a") (Contract.project h)

let test_projection_structure () =
  let h =
    Hexpr.select
      [ ("idc", Hexpr.branch [ ("bok", Hexpr.nil); ("una", Hexpr.nil) ]) ]
  in
  let expected =
    Contract.select
      [ ("idc", Contract.branch [ ("bok", Contract.nil); ("una", Contract.nil) ]) ]
  in
  Alcotest.check c_testable "choices preserved" expected (Contract.project h);
  (* recursion preserved *)
  let loop = Hexpr.mu "h" (Hexpr.branch [ ("a", Hexpr.seq (Hexpr.ev "x") (Hexpr.var "h")) ]) in
  Alcotest.check c_testable "mu preserved"
    (Contract.mu "h" (Contract.branch [ ("a", Contract.var "h") ]))
    (Contract.project loop)

let test_projection_hotel () =
  (* Br! = req?.(cobo!.pay? (+) noav!) *)
  let br = Contract.project Scenarios.Hotel.broker in
  let expected =
    Contract.branch
      [
        ( "req",
          Contract.select
            [ ("cobo", Contract.recv "pay"); ("noav", Contract.nil) ] );
      ]
  in
  Alcotest.check c_testable "broker contract" expected br

let test_projection_closed () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 Testkit.Generators.hexpr_arb (fun h ->
         match Contract.project h with
         | c ->
             (* projection of closed is closed: no free vars can remain *)
             reachable c |> ignore;
             true
         | exception Contract.Unprojectable _ -> true))

let test_mu_collapse () =
  Alcotest.check c_testable "unused binder" (Contract.recv "a")
    (Contract.mu "h" (Contract.recv "a"))

let test_lts () =
  let c = Contract.select [ ("a", Contract.recv "b") ] in
  match Contract.transitions c with
  | [ (Contract.O, "a", k) ] ->
      Alcotest.check c_testable "continuation" (Contract.recv "b") k
  | _ -> Alcotest.fail "expected a!"

let test_lts_seq_mu () =
  let loop = Contract.mu "h" (Contract.branch [ ("a", Contract.var "h") ]) in
  (match Contract.transitions loop with
  | [ (Contract.I, "a", k) ] -> Alcotest.check c_testable "loops" loop k
  | _ -> Alcotest.fail "expected a?");
  Alcotest.(check int) "single reachable" 1 (List.length (reachable loop))

(* --- ready sets: the examples following Definition 3 --- *)

let rs c = Ready.ready_sets c
let set l = Ready.Set.of_list l
let sets_testable =
  Alcotest.testable
    Fmt.(Dump.list Ready.pp_ready)
    (fun a b -> List.equal Ready.Set.equal a b)

let sorted_sets s = List.sort Ready.Set.compare s

let check_ready msg expected c =
  Alcotest.check sets_testable msg (sorted_sets expected) (sorted_sets (rs c))

let test_ready_internal () =
  (* (a1 ⊕ a2) ⇓ {ā1} and ⇓ {ā2} *)
  check_ready "internal"
    [ set [ (Contract.O, "a1") ]; set [ (Contract.O, "a2") ] ]
    (Contract.select [ ("a1", Contract.nil); ("a2", Contract.nil) ])

let test_ready_external () =
  (* (a1 + a2) ⇓ {a1, a2} *)
  check_ready "external"
    [ set [ (Contract.I, "a1"); (Contract.I, "a2") ] ]
    (Contract.branch [ ("a1", Contract.nil); ("a2", Contract.nil) ])

let test_ready_mu () =
  (* H = μh.(a1 ⊕ a2)·b·h: H ⇓ {ā1} and H ⇓ {ā2} *)
  let h =
    Contract.mu "h"
      (Contract.seq
         (Contract.select [ ("a1", Contract.nil); ("a2", Contract.nil) ])
         (Contract.seq (Contract.recv "b") (Contract.var "h")))
  in
  check_ready "mu"
    [ set [ (Contract.O, "a1") ]; set [ (Contract.O, "a2") ] ]
    h

let test_ready_seq () =
  (* ε·(a+b)·(d⊕e) ⇓ {a, b} *)
  let h =
    Contract.seq Contract.nil
      (Contract.seq
         (Contract.branch [ ("a", Contract.nil); ("b", Contract.nil) ])
         (Contract.select [ ("d", Contract.nil); ("e", Contract.nil) ]))
  in
  check_ready "seq"
    [ set [ (Contract.I, "a"); (Contract.I, "b") ] ]
    h

let test_ready_nil_var () =
  check_ready "eps" [ Ready.Set.empty ] Contract.nil;
  check_ready "var" [ Ready.Set.empty ] (Contract.var "h")

let test_ready_seq_nullable () =
  (* if the head may terminate, the tail's ready sets join in *)
  let h =
    Contract.seq (Contract.var "h") (Contract.recv "a")
  in
  check_ready "nullable head"
    [ set [ (Contract.I, "a") ] ]
    h

let test_may_terminate () =
  Alcotest.(check bool) "nil" true (Ready.may_terminate Contract.nil);
  Alcotest.(check bool) "prefix" false (Ready.may_terminate (Contract.recv "a"))

(* --- Definition 3 audit: Mu and Var cases (see the note in ready.ml) ---

   [compute] reads a recursion body's ready sets without unfolding the
   binder, so it must terminate — and stay correct — on loops that
   never reach [Nil], like μh.ā·h. And the [Var ⇓ ∅] case must never
   make a non-terminating loop look terminable. *)

let test_ready_nonterminating_loop () =
  (* μh.ā·h in prefix form: the loop body is the single-branch internal
     choice a!.h *)
  let prefix_loop = Contract.mu "h" (Contract.select [ ("a", Contract.var "h") ]) in
  (* the same loop in sequencing form: μh.(ā)·h *)
  let seq_loop =
    Contract.mu "h" (Contract.seq (Contract.send "a") (Contract.var "h"))
  in
  List.iter
    (fun (name, loop) ->
      check_ready (name ^ " ready") [ set [ (Contract.O, "a") ] ] loop;
      Alcotest.(check bool)
        (name ^ " cannot terminate")
        false (Ready.may_terminate loop))
    [ ("prefix loop", prefix_loop); ("seq loop", seq_loop) ]

let prop_may_terminate_is_termination =
  (* closed guarded tail-recursive contracts never have a recursion
     variable in head position, so the [Var ⇓ ∅] case is unreachable
     and ∅ is a ready set exactly for the terminated contract *)
  QCheck.Test.make ~name:"may_terminate iff terminated (closed contracts)"
    ~count:300 Testkit.Generators.contract_arb (fun c ->
      Ready.may_terminate c = Contract.is_terminated c)

let prop_ready_nonempty =
  QCheck.Test.make ~name:"every contract has a ready set" ~count:300
    Testkit.Generators.contract_arb (fun c -> rs c <> [])

let prop_ready_matches_transitions =
  QCheck.Test.make ~name:"ready actions are exactly initial transitions"
    ~count:300 Testkit.Generators.contract_arb (fun c ->
      let from_ready =
        List.concat_map Ready.Set.elements (rs c)
        |> List.sort_uniq Ready.Comm.compare
      in
      let from_lts =
        Contract.transitions c
        |> List.map (fun (d, a, _) -> (d, a))
        |> List.sort_uniq Ready.Comm.compare
      in
      from_ready = from_lts)

let suite =
  [
    Alcotest.test_case "projection erases" `Quick test_projection_erases;
    Alcotest.test_case "projection keeps frame bodies" `Quick test_projection_frame_body_kept;
    Alcotest.test_case "projection keeps structure" `Quick test_projection_structure;
    Alcotest.test_case "projection of the broker" `Quick test_projection_hotel;
    Alcotest.test_case "projection total on generated terms" `Quick test_projection_closed;
    Alcotest.test_case "contract mu collapse" `Quick test_mu_collapse;
    Alcotest.test_case "contract LTS" `Quick test_lts;
    Alcotest.test_case "contract LTS loops" `Quick test_lts_seq_mu;
    Alcotest.test_case "ready: internal (Def.3 example)" `Quick test_ready_internal;
    Alcotest.test_case "ready: external (Def.3 example)" `Quick test_ready_external;
    Alcotest.test_case "ready: mu (Def.3 example)" `Quick test_ready_mu;
    Alcotest.test_case "ready: seq (Def.3 example)" `Quick test_ready_seq;
    Alcotest.test_case "ready: eps and var" `Quick test_ready_nil_var;
    Alcotest.test_case "ready: nullable head" `Quick test_ready_seq_nullable;
    Alcotest.test_case "may terminate" `Quick test_may_terminate;
    Alcotest.test_case "ready: non-terminating loops (Def.3 audit)" `Quick
      test_ready_nonterminating_loop;
    QCheck_alcotest.to_alcotest prop_may_terminate_is_termination;
    QCheck_alcotest.to_alcotest prop_ready_nonempty;
    QCheck_alcotest.to_alcotest prop_ready_matches_transitions;
  ]

(* --- duality --- *)

let test_dual () =
  let c = Contract.select [ ("a", Contract.recv "b") ] in
  Alcotest.check c_testable "swapped"
    (Contract.branch [ ("a", Contract.send "b") ])
    (Contract.dual c);
  Alcotest.check c_testable "involution" c (Contract.dual (Contract.dual c))

let prop_dual_involutive =
  QCheck.Test.make ~name:"duality is an involution" ~count:300
    Testkit.Generators.contract_arb (fun c ->
      Contract.equal c (Contract.dual (Contract.dual c)))

let prop_compliant_with_dual =
  QCheck.Test.make ~name:"every contract complies with its dual" ~count:300
    Testkit.Generators.contract_arb (fun c ->
      Product.compliant c (Contract.dual c)
      && Compliance.compliant c (Contract.dual c))

let prop_dual_preserves_size =
  QCheck.Test.make ~name:"duality preserves size" ~count:300
    Testkit.Generators.contract_arb (fun c ->
      Contract.size c = Contract.size (Contract.dual c))

let suite =
  suite
  @ [
      Alcotest.test_case "duality" `Quick test_dual;
      QCheck_alcotest.to_alcotest prop_dual_involutive;
      QCheck_alcotest.to_alcotest prop_compliant_with_dual;
      QCheck_alcotest.to_alcotest prop_dual_preserves_size;
    ]

(* --- one term type: a contract is a history expression of the
   communication fragment --- *)

let prop_contract_projects_to_itself =
  QCheck.Test.make ~name:"a contract is its own projection" ~count:300
    Testkit.Generators.contract_arb (fun c ->
      Contract.project (c :> Hexpr.t) == c)

let test_service_is_its_contract () =
  (* a communication-only body is interned once: its projection is the
     parsed term itself, with the same id *)
  let spec =
    Syntax.Parser.spec_of_string
      "service s = req?.(mu h. (ping!.(pong?.h + stop?)) (+) noav!);"
  in
  let h = List.assoc "s" spec.Syntax.Spec.services in
  let c = Contract.project h in
  Alcotest.(check int) "same id" (Hexpr.id h) (Contract.id c);
  Alcotest.(check bool) "same value" true ((c :> Hexpr.t) == h)

let prop_one_lts =
  QCheck.Test.make ~name:"the contract LTS is the history-expression LTS"
    ~count:300 Testkit.Generators.contract_arb (fun c ->
      let read = function
        | Action.In a, k -> (Contract.I, a, k)
        | Action.Out a, k -> (Contract.O, a, k)
        | l, _ -> QCheck.Test.fail_reportf "label %a" Action.pp l
      in
      List.equal
        (fun (d, a, k) (d', a', k') -> d = d' && String.equal a a' && k == k')
        (List.map
           (fun (d, a, k) -> (d, a, (k : Contract.t :> Hexpr.t)))
           (Contract.transitions c))
        (List.map read (Semantics.transitions (c :> Hexpr.t))))

let prop_node_total_on_reachable =
  QCheck.Test.make ~name:"node is total on the states of a projection"
    ~count:200 Testkit.Generators.hexpr_arb (fun h ->
      match Contract.project h with
      | exception Contract.Unprojectable _ -> true
      | c ->
          List.iter (fun s -> ignore (Contract.node s)) (reachable c);
          true)

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_contract_projects_to_itself;
      Alcotest.test_case "a parsed contract is its own projection" `Quick
        test_service_is_its_contract;
      QCheck_alcotest.to_alcotest prop_one_lts;
      QCheck_alcotest.to_alcotest prop_node_total_on_reachable;
    ]
