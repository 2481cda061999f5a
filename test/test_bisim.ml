(* Bisimilarity: sanity cases, and the semantics-preservation of the
   library's transformations (normalize, unfolding, parsing). *)

open Core

let never_z = List.nth Testkit.Generators.policy_pool 0

let test_strong_basic () =
  let a = Hexpr.recv "a" in
  Alcotest.(check bool) "reflexive" true (Bisim.hexpr_strong a a);
  Alcotest.(check bool) "distinct channels differ" false
    (Bisim.hexpr_strong (Hexpr.recv "a") (Hexpr.recv "b"));
  Alcotest.(check bool) "direction matters" false
    (Bisim.hexpr_strong (Hexpr.recv "a") (Hexpr.send "a"));
  Alcotest.(check bool) "eps vs prefixed" false
    (Bisim.hexpr_strong Hexpr.nil (Hexpr.recv "a"))

let test_strong_unfold () =
  (* μh.a?.h ~ a?.μh.a?.h (one unfolding) *)
  let loop = Hexpr.mu "h" (Hexpr.branch [ ("a", Hexpr.var "h") ]) in
  let unfolded = Hexpr.branch [ ("a", loop) ] in
  Alcotest.(check bool) "unfolding is bisimilar" true
    (Bisim.hexpr_strong loop unfolded)

let test_strong_seq_assoc () =
  let e n = Hexpr.ev n in
  (* the smart constructor right-nests, but even a manual embedding of a
     prefixed form is bisimilar to the sequenced one *)
  let prefix_form = Hexpr.branch [ ("a", e "x") ] in
  let seq_form = Hexpr.seq (Hexpr.recv "a") (e "x") in
  Alcotest.(check bool) "prefix = seq" true
    (Bisim.hexpr_strong prefix_form seq_form)

let test_frame_not_transparent () =
  (* framing introduces observable Lφ/Mφ actions *)
  let plain = Hexpr.ev "x" in
  let framed = Hexpr.frame never_z (Hexpr.ev "x") in
  Alcotest.(check bool) "framing is observable" false
    (Bisim.hexpr_strong plain framed)

let test_weak_choice () =
  (* (a?.x <+> a? . x) ≈ a?.x weakly — the branches are structurally
     distinct but behaviourally identical, and the τ commit is
     abstracted — yet not strongly bisimilar (the τ is visible). *)
  let target = Hexpr.branch [ ("a", Hexpr.ev "x") ] in
  let c =
    Hexpr.choice
      (Hexpr.branch [ ("a", Hexpr.ev "x") ])
      (Hexpr.seq (Hexpr.recv "a") (Hexpr.ev "x"))
  in
  (match Hexpr.node c with
  | Hexpr.Choice _ -> ()
  | _ -> Alcotest.fail "expected the choice to survive");
  Alcotest.(check bool) "weakly equal" true (Bisim.hexpr_weak c target);
  Alcotest.(check bool) "not strongly" false (Bisim.hexpr_strong c target)

let test_weak_committed_choice () =
  (* a <+> b is NOT weakly bisimilar to a + b: the commit discards the
     other branch (this is exactly internal vs external choice) *)
  let internal = Hexpr.choice (Hexpr.recv "a") (Hexpr.recv "b") in
  let external_ = Hexpr.branch [ ("a", Hexpr.nil); ("b", Hexpr.nil) ] in
  Alcotest.(check bool) "committed choice differs" false
    (Bisim.hexpr_weak internal external_)

let test_contract_bisim () =
  let c1 = Contract.select [ ("a", Contract.recv "b") ] in
  let c2 = Contract.seq (Contract.send "a") (Contract.recv "b") in
  Alcotest.(check bool) "contract prefix = seq" true
    (Bisim.contract_strong c1 c2);
  Alcotest.(check bool) "weak = strong without tau" true
    (Bisim.contract_weak c1 c2)

(* properties *)

let prop_normalize_bisimilar =
  QCheck.Test.make ~name:"normalize is strongly bisimilar" ~count:200
    Testkit.Generators.hexpr_arb (fun h ->
      Bisim.hexpr_strong h (Hexpr.normalize h))

let prop_parse_pp_bisimilar =
  QCheck.Test.make ~name:"parse∘pp is strongly bisimilar" ~count:150
    Testkit.Generators.hexpr_arb (fun h ->
      let automata =
        [
          ("never_z", Usage.Policy_lib.never "z");
          ("never_y_after_x", Usage.Policy_lib.never_after ~first:"x" ~then_:"y");
          ("at_most_2_x", Usage.Policy_lib.at_most ~n:2 "x");
          ("z_requires_x", Usage.Policy_lib.requires_before ~before:"x" ~target:"z");
        ]
      in
      let parsed = Syntax.Parser.hexpr_of_string ~automata (Hexpr.to_string h) in
      Bisim.hexpr_strong h parsed)

let prop_strong_implies_weak =
  QCheck.Test.make ~name:"strong implies weak" ~count:100
    (QCheck.pair Testkit.Generators.hexpr_arb Testkit.Generators.hexpr_arb)
    (fun (a, b) ->
      if Bisim.hexpr_strong a b then Bisim.hexpr_weak a b else true)

let prop_bisim_preserves_validity =
  QCheck.Test.make ~name:"strongly bisimilar expressions agree on validity"
    ~count:100
    (QCheck.pair Testkit.Generators.hexpr_arb Testkit.Generators.hexpr_arb)
    (fun (a, b) ->
      QCheck.assume (Bisim.hexpr_strong a b);
      Result.is_ok (Validity.check_expr a) = Result.is_ok (Validity.check_expr b))

let prop_bisimilar_contracts_same_compliance =
  QCheck.Test.make
    ~name:"bisimilar servers serve the same clients" ~count:100
    (QCheck.triple Testkit.Generators.contract_arb Testkit.Generators.contract_arb
       Testkit.Generators.contract_arb)
    (fun (client, s1, s2) ->
      QCheck.assume (Bisim.contract_strong s1 s2);
      Product.compliant client s1 = Product.compliant client s2)

let suite =
  [
    Alcotest.test_case "strong basics" `Quick test_strong_basic;
    Alcotest.test_case "unfolding" `Quick test_strong_unfold;
    Alcotest.test_case "prefix vs sequence" `Quick test_strong_seq_assoc;
    Alcotest.test_case "framing observable" `Quick test_frame_not_transparent;
    Alcotest.test_case "weak choice" `Quick test_weak_choice;
    Alcotest.test_case "committed vs external choice" `Quick test_weak_committed_choice;
    Alcotest.test_case "contracts" `Quick test_contract_bisim;
    QCheck_alcotest.to_alcotest prop_normalize_bisimilar;
    QCheck_alcotest.to_alcotest prop_parse_pp_bisimilar;
    QCheck_alcotest.to_alcotest prop_strong_implies_weak;
    QCheck_alcotest.to_alcotest prop_bisim_preserves_validity;
    QCheck_alcotest.to_alcotest prop_bisimilar_contracts_same_compliance;
  ]

(* --- simulation preorder --- *)

let test_simulation () =
  let a = Hexpr.recv "a" in
  let ab = Hexpr.branch [ ("a", Hexpr.nil); ("b", Hexpr.nil) ] in
  Alcotest.(check bool) "smaller simulated by larger" true
    (Bisim.hexpr_simulates a ab);
  Alcotest.(check bool) "not conversely" false (Bisim.hexpr_simulates ab a);
  (* loops simulate their unrollings *)
  let loop = Hexpr.mu "h" (Hexpr.branch [ ("a", Hexpr.var "h") ]) in
  let twice = Hexpr.branch [ ("a", Hexpr.branch [ ("a", Hexpr.nil) ]) ] in
  Alcotest.(check bool) "finite below infinite" true
    (Bisim.hexpr_simulates twice loop);
  Alcotest.(check bool) "infinite not below finite" false
    (Bisim.hexpr_simulates loop twice)

let prop_bisim_implies_mutual_simulation =
  QCheck.Test.make ~name:"bisimilar implies mutual simulation" ~count:150
    (QCheck.pair Testkit.Generators.contract_arb Testkit.Generators.contract_arb)
    (fun (a, b) ->
      QCheck.assume (Bisim.contract_strong a b);
      Bisim.contract_simulates a b && Bisim.contract_simulates b a)

let prop_simulation_preorder =
  QCheck.Test.make ~name:"simulation is a preorder" ~count:100
    (QCheck.triple Testkit.Generators.contract_arb Testkit.Generators.contract_arb
       Testkit.Generators.contract_arb)
    (fun (a, b, c) ->
      Bisim.contract_simulates a a
      &&
      if Bisim.contract_simulates a b && Bisim.contract_simulates b c then
        Bisim.contract_simulates a c
      else true)

let suite =
  suite
  @ [
      Alcotest.test_case "simulation preorder" `Quick test_simulation;
      QCheck_alcotest.to_alcotest prop_bisim_implies_mutual_simulation;
      QCheck_alcotest.to_alcotest prop_simulation_preorder;
    ]
