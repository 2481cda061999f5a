(* The stand-alone LTS of history expressions: one test per rule of the
   §3 table, plus finiteness of the reachable state space. *)

open Core

let h_testable = Alcotest.testable Hexpr.pp Hexpr.equal
let a_testable = Alcotest.testable Action.pp Action.equal
let trans_t = Alcotest.(list (pair a_testable h_testable))
let phi = Scenarios.Hotel.phi1

let sorted ts = List.sort compare ts

let check_trans msg expected t =
  Alcotest.check trans_t msg (sorted expected) (sorted (Semantics.transitions t))

let test_nil_var () =
  check_trans "eps has no transitions" [] Hexpr.nil;
  check_trans "var has no transitions" [] (Hexpr.var "h")

let test_event () =
  let e = Usage.Event.make ~arg:(Usage.Value.int 1) "x" in
  check_trans "alpha -> eps" [ (Action.Evt e, Hexpr.nil) ] (Hexpr.event e)

let test_echoice () =
  let t = Hexpr.branch [ ("a", Hexpr.ev "x"); ("b", Hexpr.nil) ] in
  check_trans "E-Choice"
    [ (Action.In "a", Hexpr.ev "x"); (Action.In "b", Hexpr.nil) ]
    t

let test_ichoice () =
  let t = Hexpr.select [ ("a", Hexpr.ev "x"); ("b", Hexpr.nil) ] in
  check_trans "I-Choice"
    [ (Action.Out "a", Hexpr.ev "x"); (Action.Out "b", Hexpr.nil) ]
    t

let test_s_open () =
  let body = Hexpr.recv "a" in
  let t = Hexpr.open_ ~rid:7 ~policy:phi body in
  let r = { Hexpr.rid = 7; policy = Some phi } in
  check_trans "S-Open"
    [ (Action.Op r, Hexpr.seq body (Hexpr.close ~rid:7 ~policy:phi ())) ]
    t;
  (* then the close fires after the body *)
  let after = Hexpr.seq Hexpr.nil (Hexpr.close ~rid:7 ~policy:phi ()) in
  check_trans "close fires" [ (Action.Cl r, Hexpr.nil) ] after

let test_p_open () =
  let body = Hexpr.ev "x" in
  let t = Hexpr.frame phi body in
  check_trans "P-Open"
    [ (Action.Frm_open phi, Hexpr.seq body (Hexpr.frame_close phi)) ]
    t;
  check_trans "frame close"
    [ (Action.Frm_close phi, Hexpr.nil) ]
    (Hexpr.frame_close phi)

let test_conc () =
  (* H·H'' steps in H, and ε·H ≡ H makes the continuation take over *)
  let t = Hexpr.seq (Hexpr.ev "x") (Hexpr.ev "y") in
  (match Semantics.transitions t with
  | [ (Action.Evt _, k) ] -> Alcotest.check h_testable "residual" (Hexpr.ev "y") k
  | _ -> Alcotest.fail "expected one transition");
  Alcotest.(check bool) "terminated" true
    (Semantics.is_terminated (Hexpr.seq Hexpr.nil Hexpr.nil))

let test_rec () =
  (* μh. a?.h unfolds lazily *)
  let t = Hexpr.mu "h" (Hexpr.branch [ ("a", Hexpr.var "h") ]) in
  (match Semantics.transitions t with
  | [ (Action.In "a", k) ] -> Alcotest.check h_testable "loops back" t k
  | _ -> Alcotest.fail "expected a single input transition");
  Alcotest.(check int) "one reachable state" 1 (List.length (Semantics.reachable t))

let test_choice_ext () =
  let t = Hexpr.choice (Hexpr.ev "x") (Hexpr.ev "y") in
  match Semantics.transitions t with
  | [ (Action.Tau, _); (Action.Tau, _) ] -> ()
  | _ -> Alcotest.fail "expected two tau commits"

let test_reachable_finite () =
  (* broker: finitely many residuals *)
  let n = List.length (Semantics.reachable Scenarios.Hotel.broker) in
  Alcotest.(check bool) "finite and small" true (n > 3 && n < 40);
  (* recursion through sequences stays finite *)
  let loop =
    Hexpr.mu "h"
      (Hexpr.seq
         (Hexpr.select [ ("a", Hexpr.nil); ("b", Hexpr.nil) ])
         (Hexpr.var "h"))
  in
  Alcotest.(check bool) "loop finite" true
    (List.length (Semantics.reachable loop) <= 3)

let test_traces () =
  let t = Hexpr.branch [ ("a", Hexpr.ev "x"); ("b", Hexpr.nil) ] in
  let trs = Semantics.traces ~depth:3 t in
  Alcotest.(check int) "two maximal traces" 2 (List.length trs);
  Alcotest.(check bool) "lengths" true
    (List.exists (fun tr -> List.length tr = 2) trs
    && List.exists (fun tr -> List.length tr = 1) trs)

let test_step () =
  let t = Hexpr.branch [ ("a", Hexpr.ev "x"); ("b", Hexpr.nil) ] in
  Alcotest.(check int) "step a" 1 (List.length (Semantics.step t (Action.In "a")));
  Alcotest.(check int) "step c" 0 (List.length (Semantics.step t (Action.In "c")))

let prop_reachable_closed =
  QCheck.Test.make ~name:"reachable set closed under transitions" ~count:150
    Testkit.Generators.hexpr_arb (fun h ->
      let states = Semantics.reachable h in
      List.for_all
        (fun s ->
          List.for_all
            (fun (_, s') -> List.exists (Hexpr.equal s') states)
            (Semantics.transitions s))
        states)

(* [Semantics.lts] is one walk of the kernel: state 0 is the argument,
   states are distinct, each carries its [transitions] in order with the
   targets numbered, and every later state is first reached by a move
   from an earlier one. *)
let prop_lts_discovery_order =
  QCheck.Test.make ~name:"lts numbers states in discovery order" ~count:300
    Testkit.Generators.hexpr_arb (fun h ->
      let states = Semantics.lts h in
      let n = Array.length states in
      let state j = fst states.(j) in
      let moves_ok (s, moves) =
        let ts = Semantics.transitions s in
        List.length ts = List.length moves
        && List.for_all2
             (fun (l, k) (l', j) ->
               Action.equal l l' && 0 <= j && j < n && Hexpr.equal k (state j))
             ts moves
      in
      let reached_earlier j =
        List.exists
          (fun i -> List.exists (fun (_, k) -> k = j) (snd states.(i)))
          (List.init j Fun.id)
      in
      n > 0
      && Hexpr.equal (state 0) h
      && List.length
           (List.sort_uniq Int.compare
              (Array.to_list (Array.map (fun (s, _) -> Hexpr.id s) states)))
         = n
      && Array.for_all moves_ok states
      && List.for_all reached_earlier (List.init (n - 1) succ))

let prop_terminated_no_transitions =
  QCheck.Test.make ~name:"only eps is terminated" ~count:300 Testkit.Generators.hexpr_arb
    (fun h ->
      if Semantics.is_terminated h then Semantics.transitions h = [] else true)

let suite =
  [
    Alcotest.test_case "eps and var" `Quick test_nil_var;
    Alcotest.test_case "rule (alpha Acc)" `Quick test_event;
    Alcotest.test_case "rule E-Choice" `Quick test_echoice;
    Alcotest.test_case "rule I-Choice" `Quick test_ichoice;
    Alcotest.test_case "rule S-Open" `Quick test_s_open;
    Alcotest.test_case "rule P-Open" `Quick test_p_open;
    Alcotest.test_case "rule Conc" `Quick test_conc;
    Alcotest.test_case "rule Rec" `Quick test_rec;
    Alcotest.test_case "unguarded choice commits" `Quick test_choice_ext;
    Alcotest.test_case "reachable is finite" `Quick test_reachable_finite;
    Alcotest.test_case "bounded traces" `Quick test_traces;
    Alcotest.test_case "step" `Quick test_step;
    QCheck_alcotest.to_alcotest prop_reachable_closed;
    QCheck_alcotest.to_alcotest prop_lts_discovery_order;
    QCheck_alcotest.to_alcotest prop_terminated_no_transitions;
  ]
