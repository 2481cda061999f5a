(* History expressions: smart constructors, substitution,
   well-formedness, normalization, printing. *)

open Core

let h_testable = Alcotest.testable Hexpr.pp Hexpr.equal
let phi = Scenarios.Hotel.phi1

let test_seq_unit () =
  let a = Hexpr.ev "x" in
  Alcotest.check h_testable "eps . H = H" a (Hexpr.seq Hexpr.nil a);
  Alcotest.check h_testable "H . eps = H" a (Hexpr.seq a Hexpr.nil);
  Alcotest.check h_testable "seq_all" a (Hexpr.seq_all [ Hexpr.nil; a; Hexpr.nil ])

let test_seq_right_nested () =
  let e n = Hexpr.ev n in
  let left = Hexpr.seq (Hexpr.seq (e "x") (e "y")) (e "z") in
  let right = Hexpr.seq (e "x") (Hexpr.seq (e "y") (e "z")) in
  Alcotest.check h_testable "reassociation" right left

let test_choice_validation () =
  Alcotest.check_raises "empty branch" (Invalid_argument "Hexpr.branch: empty choice")
    (fun () -> ignore (Hexpr.branch []));
  Alcotest.check_raises "dup channel"
    (Invalid_argument "Hexpr.select: duplicate channel") (fun () ->
      ignore (Hexpr.select [ ("a", Hexpr.nil); ("a", Hexpr.nil) ]))

let test_choice_sorted () =
  let b = Hexpr.branch [ ("b", Hexpr.nil); ("a", Hexpr.nil) ] in
  let b' = Hexpr.branch [ ("a", Hexpr.nil); ("b", Hexpr.nil) ] in
  Alcotest.check h_testable "branches canonically sorted" b' b

let test_mu_collapse () =
  Alcotest.check h_testable "mu h.eps = eps" Hexpr.nil (Hexpr.mu "h" Hexpr.nil);
  let body = Hexpr.ev "x" in
  Alcotest.check h_testable "unused binder elided" body (Hexpr.mu "h" body)

let test_free_vars () =
  let t = Hexpr.mu "h" (Hexpr.branch [ ("a", Hexpr.var "h"); ("b", Hexpr.var "k") ]) in
  Alcotest.(check (list string)) "free vars" [ "k" ] (Hexpr.free_vars t);
  Alcotest.(check bool) "not closed" false (Hexpr.is_closed t);
  Alcotest.(check bool) "closed" true
    (Hexpr.is_closed (Hexpr.mu "h" (Hexpr.recv "a")))

let test_subst () =
  let t = Hexpr.branch [ ("a", Hexpr.var "h") ] in
  let u = Hexpr.subst "h" ~by:(Hexpr.ev "x") t in
  Alcotest.check h_testable "substituted"
    (Hexpr.branch [ ("a", Hexpr.ev "x") ])
    u;
  (* no capture: μk inside must not capture the substituted k *)
  let shadow = Hexpr.mu "k" (Hexpr.branch [ ("a", Hexpr.seq (Hexpr.var "h") (Hexpr.var "k")) ]) in
  let r = Hexpr.subst "h" ~by:(Hexpr.var "k") shadow in
  (* the binder must have been renamed away from k *)
  (match Hexpr.node r with
  | Hexpr.Mu (b, _) ->
      Alcotest.(check bool) "binder renamed" true (b <> "k")
  | _ -> Alcotest.fail "expected Mu");
  Alcotest.(check (list string)) "k stays free" [ "k" ] (Hexpr.free_vars r)

let test_unfold () =
  let body = Hexpr.branch [ ("a", Hexpr.var "h"); ("b", Hexpr.nil) ] in
  let once = Hexpr.unfold "h" body in
  Alcotest.check h_testable "unfold replaces var"
    (Hexpr.branch [ ("a", Hexpr.mu "h" body); ("b", Hexpr.nil) ])
    once

let test_requests_policies () =
  let c1 = Scenarios.Hotel.client1 in
  let reqs = Hexpr.requests c1 in
  Alcotest.(check (list int)) "request ids" [ 1 ] (List.map (fun r -> r.Hexpr.rid) reqs);
  Alcotest.(check (list string)) "policies" [ Usage.Policy.id phi ]
    (List.map Usage.Policy.id (Hexpr.policies c1));
  Alcotest.(check (list string)) "broker channels"
    [ "bok"; "cobo"; "idc"; "noav"; "pay"; "req"; "una" ]
    (Hexpr.channels Scenarios.Hotel.broker);
  Alcotest.(check int) "hotel events" 3
    (List.length (Hexpr.events Scenarios.Hotel.s1))

let wf_ok t =
  match Hexpr.well_formed t with
  | Ok () -> true
  | Error _ -> false

let test_wf_positive () =
  Alcotest.(check bool) "nil" true (wf_ok Hexpr.nil);
  Alcotest.(check bool) "client1" true (wf_ok Scenarios.Hotel.client1);
  Alcotest.(check bool) "broker" true (wf_ok Scenarios.Hotel.broker);
  Alcotest.(check bool) "hotels" true (List.for_all (fun (_, h) -> wf_ok h) Scenarios.Hotel.hotels);
  (* μh. a?.h — guarded tail recursion *)
  Alcotest.(check bool) "guarded loop" true
    (wf_ok (Hexpr.mu "h" (Hexpr.branch [ ("a", Hexpr.var "h") ])));
  (* μh. (a!⊕b!)·…·h with comm in front *)
  Alcotest.(check bool) "loop after comm seq" true
    (wf_ok
       (Hexpr.mu "h"
          (Hexpr.seq
             (Hexpr.select [ ("a", Hexpr.nil); ("b", Hexpr.nil) ])
             (Hexpr.var "h"))))

let test_wf_negative () =
  let err t expected =
    match Hexpr.well_formed t with
    | Ok () -> Alcotest.fail "expected a well-formedness error"
    | Error e -> Alcotest.(check string) "error" expected (Fmt.str "%a" Hexpr.pp_wf_error e)
  in
  err (Hexpr.var "h") "unbound recursion variable h";
  (* μh.h — unguarded *)
  err
    (Hexpr.mu "h" (Hexpr.seq (Hexpr.ev "x") (Hexpr.var "h")))
    "recursion variable h is unguarded";
  (* μh. a?.(h · α) — non-tail *)
  err
    (Hexpr.mu "h" (Hexpr.branch [ ("a", Hexpr.seq (Hexpr.var "h") (Hexpr.ev "x")) ]))
    "recursion variable h occurs in non-tail position";
  (* μh. a?.φ[h] — close framing would follow: non-tail *)
  err
    (Hexpr.mu "h" (Hexpr.branch [ ("a", Hexpr.frame phi (Hexpr.var "h")) ]))
    "recursion variable h occurs in non-tail position";
  (* duplicate request ids *)
  err
    (Hexpr.seq (Hexpr.open_ ~rid:1 (Hexpr.recv "a")) (Hexpr.open_ ~rid:1 (Hexpr.recv "b")))
    "request identifier 1 is reused"

let test_normalize () =
  (* (a? . H) normalizes to a?.H *)
  let t = Hexpr.seq (Hexpr.recv "a") (Hexpr.ev "x") in
  Alcotest.check h_testable "prefix absorbed"
    (Hexpr.branch [ ("a", Hexpr.ev "x") ])
    (Hexpr.normalize t);
  (* (a! (+) b!) . K distributes *)
  let t2 =
    Hexpr.seq (Hexpr.select [ ("a", Hexpr.nil); ("b", Hexpr.nil) ]) (Hexpr.ev "x")
  in
  Alcotest.check h_testable "distributed"
    (Hexpr.select [ ("a", Hexpr.ev "x"); ("b", Hexpr.ev "x") ])
    (Hexpr.normalize t2);
  (* events keep the sequence *)
  let t3 = Hexpr.seq (Hexpr.ev "x") (Hexpr.recv "a") in
  Alcotest.check h_testable "events preserved" t3 (Hexpr.normalize t3)

let test_size () =
  Alcotest.(check int) "nil" 1 (Hexpr.size Hexpr.nil);
  Alcotest.(check bool) "client bigger" true (Hexpr.size Scenarios.Hotel.client1 > 5)

let test_pp () =
  Alcotest.(check string) "nil" "eps" (Hexpr.to_string Hexpr.nil);
  Alcotest.(check string) "recv" "a?" (Hexpr.to_string (Hexpr.recv "a"));
  Alcotest.(check string) "send" "a!" (Hexpr.to_string (Hexpr.send "a"));
  Alcotest.(check string) "event" "#sgn(s1)"
    (Hexpr.to_string (Hexpr.ev ~arg:(Usage.Value.str "s1") "sgn"));
  Alcotest.(check string) "ext" "(a? + b?)"
    (Hexpr.to_string (Hexpr.branch [ ("a", Hexpr.nil); ("b", Hexpr.nil) ]));
  Alcotest.(check string) "int" "(a! (+) b!)"
    (Hexpr.to_string (Hexpr.select [ ("a", Hexpr.nil); ("b", Hexpr.nil) ]))

(* properties *)

let prop_normalize_idempotent =
  QCheck.Test.make ~name:"normalize is idempotent" ~count:300 Testkit.Generators.hexpr_arb
    (fun h -> Hexpr.equal (Hexpr.normalize h) (Hexpr.normalize (Hexpr.normalize h)))

let prop_normalize_preserves_wf =
  QCheck.Test.make ~name:"generated hexprs are well-formed" ~count:300
    Testkit.Generators.hexpr_arb (fun h ->
      match Hexpr.well_formed h with Ok () -> true | Error _ -> false)

let suite =
  [
    Alcotest.test_case "seq unit laws" `Quick test_seq_unit;
    Alcotest.test_case "seq right-nesting" `Quick test_seq_right_nested;
    Alcotest.test_case "choice validation" `Quick test_choice_validation;
    Alcotest.test_case "choice sorting" `Quick test_choice_sorted;
    Alcotest.test_case "mu collapse" `Quick test_mu_collapse;
    Alcotest.test_case "free variables" `Quick test_free_vars;
    Alcotest.test_case "substitution" `Quick test_subst;
    Alcotest.test_case "unfold" `Quick test_unfold;
    Alcotest.test_case "requests and policies" `Quick test_requests_policies;
    Alcotest.test_case "well-formed (positive)" `Quick test_wf_positive;
    Alcotest.test_case "well-formed (negative)" `Quick test_wf_negative;
    Alcotest.test_case "normalize" `Quick test_normalize;
    Alcotest.test_case "size" `Quick test_size;
    Alcotest.test_case "printing" `Quick test_pp;
    QCheck_alcotest.to_alcotest prop_normalize_idempotent;
    QCheck_alcotest.to_alcotest prop_normalize_preserves_wf;
  ]
