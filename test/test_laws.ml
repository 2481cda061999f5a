(* The equational theory of history expressions, checked up to strong
   bisimilarity (positive laws) — and the non-laws the paper's
   history-dependent security makes fail (negative checks). *)

open Core

let never_z = List.nth Testkit.Generators.policy_pool 0
let bisim = Bisim.hexpr_strong

let prop name count gen f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen f)

let two = QCheck.pair Testkit.Generators.hexpr_arb Testkit.Generators.hexpr_arb
let three =
  QCheck.triple Testkit.Generators.hexpr_arb Testkit.Generators.hexpr_arb
    Testkit.Generators.hexpr_arb

let law_unit_left =
  prop "ε·H ≡ H" 200 Testkit.Generators.hexpr_arb (fun h ->
      Hexpr.equal (Hexpr.seq Hexpr.nil h) h)

let law_unit_right =
  prop "H·ε ≡ H" 200 Testkit.Generators.hexpr_arb (fun h ->
      Hexpr.equal (Hexpr.seq h Hexpr.nil) h)

let law_seq_assoc =
  prop "(H·H')·H'' ≡ H·(H'·H'') (syntactically, by right-nesting)" 200 three
    (fun (a, b, c) ->
      Hexpr.equal (Hexpr.seq (Hexpr.seq a b) c) (Hexpr.seq a (Hexpr.seq b c)))

let law_choice_comm =
  prop "unguarded choice commutes (weakly)" 100 two (fun (a, b) ->
      Bisim.hexpr_weak (Hexpr.choice a b) (Hexpr.choice b a))

let law_choice_idem =
  prop "H <+> H ≡ H (collapsed by construction)" 200 Testkit.Generators.hexpr_arb
    (fun h -> Hexpr.equal (Hexpr.choice h h) h)

let law_guard_distribution =
  (* (Σ aᵢ.Hᵢ)·K ~ Σ aᵢ.(Hᵢ·K): the normalize direction is sound *)
  prop "choice-prefix distribution is a strong bisimulation" 200 two
    (fun (h, k) -> bisim (Hexpr.seq h k) (Hexpr.seq (Hexpr.normalize h) k))

let law_mu_unfold =
  (* μh.H ~ H{μh.H/h} for the loops our generator builds *)
  prop "μ-unfolding" 150 Testkit.Generators.hexpr_arb (fun h ->
      match Hexpr.node h with
      | Hexpr.Mu (x, body) -> bisim h (Hexpr.unfold x body)
      | _ -> QCheck.assume_fail ())

let test_frame_not_homomorphic () =
  (* φ[H·H'] ≢ φ[H]·φ[H']: the right-hand side closes and reopens the
     framing, so events of H' in between are differently constrained —
     and even as pure LTSs the framing actions differ *)
  let h = Hexpr.ev "x" and k = Hexpr.ev "y" in
  Alcotest.(check bool) "not bisimilar" false
    (bisim
       (Hexpr.frame never_z (Hexpr.seq h k))
       (Hexpr.seq (Hexpr.frame never_z h) (Hexpr.frame never_z k)))

let test_frame_validity_differs () =
  (* …and validity genuinely distinguishes placements: with
     φ = never z after x (never_y_after_x on x,y), compare framing the
     whole of x·y against framing only x *)
  let nyax = List.nth Testkit.Generators.policy_pool 1 in
  (* never y after x *)
  let x = Hexpr.ev "x" and y = Hexpr.ev "y" in
  let whole = Hexpr.frame nyax (Hexpr.seq x y) in
  let only_x = Hexpr.seq (Hexpr.frame nyax x) y in
  Alcotest.(check bool) "whole framing violated" true
    (Result.is_error (Validity.check_expr whole));
  Alcotest.(check bool) "escaped y is fine" true
    (Result.is_ok (Validity.check_expr only_x))

let test_ext_int_not_interchangeable () =
  let e = Hexpr.branch [ ("a", Hexpr.nil); ("b", Hexpr.nil) ] in
  let i = Hexpr.select [ ("a", Hexpr.nil); ("b", Hexpr.nil) ] in
  Alcotest.(check bool) "Σ ≢ ⊕" false (bisim e i)

let law_compliance_not_symmetric () =
  (* client ⊢ server is asymmetric: ε complies with a?, not conversely *)
  Alcotest.(check bool) "eps |- a?" true
    (Product.compliant Contract.nil (Contract.recv "a"));
  Alcotest.(check bool) "a? |/- eps" false
    (Product.compliant (Contract.recv "a") Contract.nil)

let suite =
  [
    law_unit_left;
    law_unit_right;
    law_seq_assoc;
    law_choice_comm;
    law_choice_idem;
    law_guard_distribution;
    law_mu_unfold;
    Alcotest.test_case "framing is not a homomorphism" `Quick
      test_frame_not_homomorphic;
    Alcotest.test_case "framing placement matters for validity" `Quick
      test_frame_validity_differs;
    Alcotest.test_case "Σ and ⊕ differ" `Quick test_ext_int_not_interchangeable;
    Alcotest.test_case "compliance is asymmetric" `Quick
      law_compliance_not_symmetric;
  ]
