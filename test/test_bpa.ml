(* The BPA rendering, framing regularization, and the automaton-based
   static validity checker (§3.1 / E8). *)

open Core

let never_z = List.nth Testkit.Generators.policy_pool 0
let at_most_2x = List.nth Testkit.Generators.policy_pool 2

let test_translation () =
  let h = Hexpr.seq (Hexpr.ev "x") (Hexpr.recv "a") in
  let p, defs = Bpa.Process.of_hexpr h in
  Alcotest.(check int) "no definitions" 0 (List.length defs);
  match Bpa.Process.transitions defs p with
  | [ (Bpa.Sym.Ev e, _) ] ->
      Alcotest.(check string) "first step is the event" "x" e.Usage.Event.name
  | _ -> Alcotest.fail "expected the event first"

let test_translation_mu () =
  let h = Hexpr.mu "h" (Hexpr.branch [ ("a", Hexpr.seq (Hexpr.ev "x") (Hexpr.var "h")) ]) in
  let p, defs = Bpa.Process.of_hexpr h in
  Alcotest.(check int) "one definition" 1 (List.length defs);
  let nfa, _ = Bpa.Process.to_nfa defs p in
  Alcotest.(check bool) "finite" true (Bpa.Process.Nfa.size nfa <= 4)

let test_nullable_fixpoint () =
  (* X ≜ a?.X + 0 — can terminate *)
  let h = Hexpr.mu "h" (Hexpr.branch [ ("a", Hexpr.var "h"); ("b", Hexpr.nil) ]) in
  let p, defs = Bpa.Process.of_hexpr h in
  (* Seq (Var X) (atom) must offer the atom only after the loop exits;
     just check transitions exist and the system stays finite. *)
  let q = Bpa.Process.seq p (Bpa.Process.atom (Bpa.Sym.Comm "done")) in
  let ts = Bpa.Process.transitions defs q in
  Alcotest.(check int) "two branch moves" 2 (List.length ts)

let test_to_nfa () =
  let h = Hexpr.frame never_z (Hexpr.ev "z") in
  let p, defs = Bpa.Process.of_hexpr h in
  let nfa, decode = Bpa.Process.to_nfa defs p in
  Alcotest.(check bool) "some states" true (Bpa.Process.Nfa.size nfa >= 3);
  Alcotest.(check bool) "decode initial" true (decode 0 <> None)

let test_check_valid () =
  (* φ[ #x ] with φ = never z: fine *)
  let ok = Hexpr.frame never_z (Hexpr.ev "x") in
  Alcotest.(check bool) "valid" true (Result.is_ok (Bpa.Check.valid ok));
  (* φ[ #z ]: violated *)
  let bad = Hexpr.frame never_z (Hexpr.ev "z") in
  match Bpa.Check.valid bad with
  | Ok () -> Alcotest.fail "expected a violation"
  | Error ce ->
      Alcotest.(check string) "policy" (Usage.Policy.id never_z)
        (Usage.Policy.id ce.Bpa.Check.policy);
      Alcotest.(check bool) "witness mentions z" true
        (List.exists
           (function
             | Bpa.Sym.Ev e -> String.equal e.Usage.Event.name "z"
             | _ -> false)
           ce.Bpa.Check.word)

let test_check_retroactive () =
  (* #z . φ[#x]: the z fired before Lφ still counts *)
  let retro = Hexpr.seq (Hexpr.ev "z") (Hexpr.frame never_z (Hexpr.ev "x")) in
  Alcotest.(check bool) "retroactive violation" true
    (Result.is_error (Bpa.Check.valid retro))

let test_check_recursion () =
  let loop =
    Hexpr.frame at_most_2x
      (Hexpr.mu "h"
         (Hexpr.branch
            [ ("a", Hexpr.seq (Hexpr.ev "x") (Hexpr.var "h")); ("b", Hexpr.nil) ]))
  in
  match Bpa.Check.valid loop with
  | Ok () -> Alcotest.fail "third x violates"
  | Error ce ->
      let xs =
        List.filter
          (function Bpa.Sym.Ev _ -> true | _ -> false)
          ce.Bpa.Check.word
      in
      Alcotest.(check int) "three events in shortest witness" 3 (List.length xs)

let test_regularize () =
  let inner_redundant =
    Hexpr.frame never_z (Hexpr.seq (Hexpr.ev "x") (Hexpr.frame never_z (Hexpr.ev "y")))
  in
  let r = Bpa.Regularize.regularize inner_redundant in
  Alcotest.(check int) "nesting depth 1 after" 1 (Bpa.Regularize.max_nesting r);
  Alcotest.(check int) "was 2 before" 2 (Bpa.Regularize.max_nesting inner_redundant);
  (* idempotent *)
  Alcotest.(check bool) "idempotent" true
    (Hexpr.equal r (Bpa.Regularize.regularize r))

let test_regularize_open () =
  let h =
    Hexpr.frame never_z (Hexpr.open_ ~rid:1 ~policy:never_z (Hexpr.recv "a"))
  in
  let r = Bpa.Regularize.regularize h in
  (* the open survives but its policy is dropped *)
  match Hexpr.requests r with
  | [ { Hexpr.policy = None; rid = 1 } ] -> ()
  | _ -> Alcotest.fail "expected the session policy to be erased"

(* E8: the two static validity checkers agree *)
let prop_bpa_agrees_with_direct =
  QCheck.Test.make ~name:"E8: BPA model checking = direct exploration" ~count:1000
    Testkit.Generators.hexpr_arb (fun h ->
      Result.is_ok (Bpa.Check.valid h)
      = Result.is_ok (Validity.check_expr h))

let prop_regularize_preserves_validity =
  QCheck.Test.make ~name:"regularization preserves validity" ~count:250
    Testkit.Generators.hexpr_arb (fun h ->
      Result.is_ok (Validity.check_expr h)
      = Result.is_ok (Validity.check_expr (Bpa.Regularize.regularize h)))

let prop_unregularized_agrees =
  QCheck.Test.make ~name:"depth-bounded check without regularization agrees"
    ~count:150 Testkit.Generators.hexpr_arb (fun h ->
      Result.is_ok (Bpa.Check.valid ~regularized:false h)
      = Result.is_ok (Validity.check_expr h))

(* E8 (§3.1): every service of the §2 scenario is valid in isolation
   under the BPA model checker. *)
let test_hotel_services_valid () =
  List.iter
    (fun (loc, h) ->
      Alcotest.(check bool) (loc ^ " is BPA-valid") true
        (Result.is_ok (Bpa.Check.valid h)))
    (("c1", Scenarios.Hotel.client1) :: Scenarios.Hotel.repo)

(* B6: a tower of k nested at-most framings. The innermost at-most-1
   counts every earlier event retroactively, so every tower is invalid,
   and both engines must say so. *)
let test_framing_towers () =
  let rec tower k =
    if k = 0 then Hexpr.ev "x"
    else
      Hexpr.frame
        (Usage.Policy_lib.instantiate0 (Usage.Policy_lib.at_most ~n:k "x"))
        (Hexpr.seq (Hexpr.ev "x") (tower (k - 1)))
  in
  List.iter
    (fun k ->
      let h = tower k in
      Alcotest.(check bool)
        (Fmt.str "direct verdict, %d nested framings" k)
        false
        (Result.is_ok (Validity.check_expr h));
      Alcotest.(check bool)
        (Fmt.str "bpa verdict, %d nested framings" k)
        false
        (Result.is_ok (Bpa.Check.valid h)))
    [ 1; 2; 4; 8 ]

let suite =
  [
    Alcotest.test_case "hexpr to BPA" `Quick test_translation;
    Alcotest.test_case "recursion to definitions" `Quick test_translation_mu;
    Alcotest.test_case "nullability" `Quick test_nullable_fixpoint;
    Alcotest.test_case "finite NFA extraction" `Quick test_to_nfa;
    Alcotest.test_case "validity via product" `Quick test_check_valid;
    Alcotest.test_case "history dependence" `Quick test_check_retroactive;
    Alcotest.test_case "violations through recursion" `Quick test_check_recursion;
    Alcotest.test_case "framing regularization" `Quick test_regularize;
    Alcotest.test_case "regularization of sessions" `Quick test_regularize_open;
    QCheck_alcotest.to_alcotest prop_bpa_agrees_with_direct;
    QCheck_alcotest.to_alcotest prop_regularize_preserves_validity;
    QCheck_alcotest.to_alcotest prop_unregularized_agrees;
    Alcotest.test_case "every §2 service is valid in isolation (E8)" `Quick
      test_hotel_services_valid;
    Alcotest.test_case "nested at-most towers are invalid (B6)" `Quick
      test_framing_towers;
  ]
