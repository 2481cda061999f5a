(* Compliance: Definition 4 (reference), Definition 5 (product automaton),
   Theorem 1 (agreement of the two — E6), Theorem 2 (invariance — E7),
   and the paper's compliance matrix (E2). *)

open Core

let recv = Contract.recv
let send = Contract.send

let test_simple_pairs () =
  (* a! ⊢ a? *)
  Alcotest.(check bool) "out/in" true (Compliance.compliant (send "a") (recv "a"));
  Alcotest.(check bool) "product agrees" true (Product.compliant (send "a") (recv "a"));
  (* a! vs b? *)
  Alcotest.(check bool) "mismatch" false (Compliance.compliant (send "a") (recv "b"));
  Alcotest.(check bool) "product mismatch" false (Product.compliant (send "a") (recv "b"));
  (* client terminates early: ε ⊢ anything *)
  Alcotest.(check bool) "terminated client" true
    (Compliance.compliant Contract.nil (recv "a"));
  Alcotest.(check bool) "product terminated client" true
    (Product.compliant Contract.nil (recv "a"));
  (* but a waiting client with a terminated server is stuck *)
  Alcotest.(check bool) "abandoned client" false
    (Compliance.compliant (recv "a") Contract.nil);
  Alcotest.(check bool) "product abandoned client" false
    (Product.compliant (recv "a") Contract.nil)

let test_internal_vs_external () =
  (* (a! ⊕ b!) ⊢ (a? + b?) — server ready for every internal choice *)
  let client = Contract.select [ ("a", Contract.nil); ("b", Contract.nil) ] in
  let server = Contract.branch [ ("a", Contract.nil); ("b", Contract.nil) ] in
  Alcotest.(check bool) "full coverage" true (Compliance.compliant client server);
  (* (a! ⊕ b! ⊕ c!) vs (a? + b?) — c! unmatched *)
  let client3 =
    Contract.select [ ("a", Contract.nil); ("b", Contract.nil); ("c", Contract.nil) ]
  in
  Alcotest.(check bool) "uncovered output" false (Compliance.compliant client3 server);
  (* extra inputs on the server are harmless *)
  let server3 =
    Contract.branch [ ("a", Contract.nil); ("b", Contract.nil); ("c", Contract.nil) ]
  in
  Alcotest.(check bool) "extra inputs ok" true (Compliance.compliant client server3)

let test_deep_mismatch () =
  (* compliant on the surface, stuck after one synchronisation *)
  let client = Contract.select [ ("a", recv "x") ] in
  let server = Contract.branch [ ("a", send "y") ] in
  Alcotest.(check bool) "ref" false (Compliance.compliant client server);
  Alcotest.(check bool) "product" false (Product.compliant client server);
  match Product.counterexample client server with
  | None -> Alcotest.fail "expected a counterexample"
  | Some ce ->
      Alcotest.(check (list string)) "one sync then stuck" [ "a" ]
        ce.Product.synchronisations

let test_recursive_compliance () =
  (* μh.a!.h ⊢ μk.a?.k *)
  let client = Contract.mu "h" (Contract.select [ ("a", Contract.var "h") ]) in
  let server = Contract.mu "k" (Contract.branch [ ("a", Contract.var "k") ]) in
  Alcotest.(check bool) "infinite session compliant" true
    (Compliance.compliant client server);
  Alcotest.(check bool) "product agrees" true (Product.compliant client server);
  (* the server eventually stops listening *)
  let server_finite = Contract.branch [ ("a", Contract.nil) ] in
  Alcotest.(check bool) "finite server" false
    (Product.compliant client server_finite)

let test_hotel_matrix () =
  (* E2: S1,S3,S4 compliant with the broker's request; S2 not *)
  let body = Contract.project Scenarios.Hotel.broker_request_body in
  let check loc expected =
    let server = Contract.project (List.assoc loc Scenarios.Hotel.hotels) in
    Alcotest.(check bool)
      (loc ^ " compliance") expected
      (Product.compliant body server);
    Alcotest.(check bool)
      (loc ^ " compliance (ref)") expected
      (Compliance.compliant body server)
  in
  check "s1" true;
  check "s2" false;
  check "s3" true;
  check "s4" true

let test_hotel_s2_counterexample () =
  let body = Contract.project Scenarios.Hotel.broker_request_body in
  let s2 = Contract.project Scenarios.Hotel.s2 in
  match Product.counterexample body s2 with
  | None -> Alcotest.fail "expected non-compliance"
  | Some ce -> (
      Alcotest.(check (list string)) "after idc" [ "idc" ] ce.Product.synchronisations;
      match ce.Product.reason with
      | Product.Unmatched_output "del" -> ()
      | r ->
          Alcotest.failf "expected unmatched del, got %a" Product.pp_stuck_reason r)

let test_client_broker_compliance () =
  let client = Contract.project (Scenarios.Hotel.client_request_body Scenarios.Hotel.phi1) in
  let broker = Contract.project Scenarios.Hotel.broker in
  Alcotest.(check bool) "client ⊢ broker" true (Product.compliant client broker)

let test_final_reason () =
  (* Definition 5's F predicate, state-locally *)
  Alcotest.(check bool) "terminated client not final" true
    (Product.final_reason (Contract.nil, recv "a") = None);
  (match Product.final_reason (recv "a", Contract.nil) with
  | Some Product.Client_waits_forever -> ()
  | _ -> Alcotest.fail "expected Client_waits_forever");
  (match Product.final_reason (send "a", recv "b") with
  | Some (Product.Unmatched_output "a") -> ()
  | _ -> Alcotest.fail "expected unmatched a");
  Alcotest.(check bool) "matched is not final" true
    (Product.final_reason (send "a", recv "a") = None)

let test_product_structure () =
  let client = Contract.select [ ("a", Contract.nil) ] in
  let server = Contract.branch [ ("a", Contract.nil) ] in
  let p = Product.build client server in
  Alcotest.(check int) "two states" 2 (List.length p.Product.states);
  Alcotest.(check int) "one transition" 1 (List.length p.Product.delta);
  Alcotest.(check bool) "empty language" true (Product.language_empty p)

let test_finals_have_no_successors () =
  let client = Contract.select [ ("a", send "c") ] in
  (* after a, the client outputs c but this server also outputs: stuck *)
  let bad_server = Contract.branch [ ("a", send "c") ] in
  let p = Product.build client bad_server in
  List.iter
    (fun (st, _) ->
      Alcotest.(check bool) "final has no outgoing" true
        (not (List.exists (fun (src, _, _) -> src = st) p.Product.delta)))
    p.Product.finals

(* --- Theorem 1 (E6): the two decision procedures agree --- *)

let prop_theorem1 =
  QCheck.Test.make ~name:"Theorem 1: Def.4 = product emptiness" ~count:500
    (QCheck.pair Testkit.Generators.contract_arb Testkit.Generators.contract_arb)
    (fun (c, s) -> Compliance.compliant c s = Product.compliant c s)

(* [susf dot] draws [Product.build]; every verdict comes from the
   survey. Both must count the same stuck configurations. *)
let prop_build_finals_are_survey_stucks =
  QCheck.Test.make ~name:"Product.build finals = survey stuck states"
    ~count:300
    (QCheck.pair Testkit.Generators.contract_arb Testkit.Generators.contract_arb)
    (fun (c, s) ->
      List.length (Product.build c s).Product.finals
      = (Product.survey c s).Product.stuck_states)

(* --- Theorem 2 (E7): compliance is an invariant property ---
   The decision is equivalent to checking the state-local predicate on
   every reachable pair (no access to the past needed). *)

module PairSet = Set.Make (struct
  type t = Contract.t * Contract.t

  let compare (a1, b1) (a2, b2) =
    match Contract.compare a1 a2 with 0 -> Contract.compare b1 b2 | c -> c
end)

let reachable_pairs c s =
  let rec go seen = function
    | [] -> seen
    | p :: rest ->
        let succs =
          Compliance.sync_successors (fst p) (snd p)
          |> List.map snd
          |> List.filter (fun q -> not (PairSet.mem q seen))
        in
        go
          (List.fold_left (fun acc q -> PairSet.add q acc) seen succs)
          (succs @ rest)
  in
  go (PairSet.singleton (c, s)) [ (c, s) ]

let prop_theorem2 =
  QCheck.Test.make ~name:"Theorem 2: state-local invariant decides compliance"
    ~count:300
    (QCheck.pair Testkit.Generators.contract_arb Testkit.Generators.contract_arb)
    (fun (c, s) ->
      let invariant_everywhere =
        PairSet.for_all
          (fun st -> Product.final_reason st = None)
          (reachable_pairs c s)
      in
      (* Note: the product stops exploring below final states, while
         [reachable_pairs] does not — but any state below a final one is
         irrelevant once the invariant has failed. *)
      Product.compliant c s = invariant_everywhere)

let prop_counterexample_iff_noncompliant =
  QCheck.Test.make ~name:"counterexample exists iff non-compliant" ~count:300
    (QCheck.pair Testkit.Generators.contract_arb Testkit.Generators.contract_arb)
    (fun (c, s) ->
      (Product.counterexample c s = None) = Product.compliant c s)

let prop_nil_always_compliant =
  QCheck.Test.make ~name:"terminated client complies with everything" ~count:200
    Testkit.Generators.contract_arb (fun s -> Product.compliant Contract.nil s)

(* --- Loosened compliance: the graceful-degradation ladder ---
   The levels are decided on [Product.survey]'s two measures; these
   properties pin the ladder's shape on the random contract corpus. *)

let contract_pair =
  QCheck.pair Testkit.Generators.contract_arb Testkit.Generators.contract_arb

let prop_skip0_is_strict =
  QCheck.Test.make ~name:"skip-0 admits exactly what strict admits" ~count:300
    contract_pair
    (fun (c, s) ->
      let sv = Product.survey c s in
      Product.admits (Compliance.Skip_k 0) sv
      = Product.admits Compliance.Strict sv)

let prop_strict_admits_iff_compliant =
  QCheck.Test.make
    ~name:"strict admission = Definition 4 compliance (survey agrees)"
    ~count:300 contract_pair
    (fun (c, s) ->
      Product.admits Compliance.Strict (Product.survey c s)
      = Product.compliant c s)

let level_arb =
  QCheck.make
    ~print:Compliance.level_to_string
    QCheck.Gen.(
      oneof
        [
          return Compliance.Strict;
          map (fun k -> Compliance.Skip_k k) (int_bound 3);
          return Compliance.Affectible;
        ])

let prop_ladder_monotone =
  QCheck.Test.make
    ~name:"admission is monotone along the sub-behaviour preorder"
    ~count:400
    (QCheck.pair (QCheck.pair level_arb level_arb) contract_pair)
    (fun ((weaker, stronger), (c, s)) ->
      QCheck.assume (Compliance.weaker_equal weaker stronger);
      let sv = Product.survey c s in
      (not (Product.admits stronger sv)) || Product.admits weaker sv)

let prop_affectible_is_success =
  QCheck.Test.make
    ~name:"affectible admits exactly the successful products" ~count:300
    contract_pair
    (fun (c, s) ->
      let sv = Product.survey c s in
      Product.admits Compliance.Affectible sv = sv.Product.successful)

(* Security is outside the ladder: a plan rejected for a policy
   violation is rejected at every level — loosening only forgives
   communication wedges, never the monitor. *)
let test_no_level_admits_violation () =
  List.iter
    (fun level ->
      match
        Netcheck.check_client ~level Scenarios.Hotel.repo
          Scenarios.Hotel.plan2_s3
          ("c2", Scenarios.Hotel.client2)
      with
      | Netcheck.Valid _ ->
          Alcotest.failf "%s admits the black-listed plan"
            (Compliance.level_to_string level)
      | Netcheck.Invalid stuck -> (
          match stuck.Netcheck.kind with
          | Netcheck.Security p ->
              Alcotest.(check string)
                (Fmt.str "%s still blames phi2"
                   (Compliance.level_to_string level))
                (Usage.Policy.id Scenarios.Hotel.phi2)
                (Usage.Policy.id p)
          | _ ->
              Alcotest.failf "%s: expected a security stuckness"
                (Compliance.level_to_string level)))
    [
      Compliance.Strict;
      Compliance.Skip_k 0;
      Compliance.Skip_k 3;
      Compliance.Affectible;
    ]

(* The charged-frontier case: a tolerated session mismatch whose state
   has no enabled moves left must still classify the block — a security
   block there is fatal at every level, never silently absorbed into
   the communication budget. The client opens [s] under a never-"bad"
   policy and either terminates cleanly or wedges on the forbidden
   event, while [s] opens a nested session that settles on a mismatched
   frontier (a! vs b?): at the charged mismatch state the only
   candidate move is the client's policy-blocked event, and the clean
   branch still completes — so absorbing the block would wrongly
   return [Valid]. *)
let test_charged_security_still_fatal () =
  let bad = Usage.Policy_lib.instantiate0 (Usage.Policy_lib.never "bad") in
  let client =
    Hexpr.open_ ~rid:1 ~policy:bad (Hexpr.choice (Hexpr.ev "bad") Hexpr.nil)
  in
  let repo =
    [
      ("s", Hexpr.open_ ~rid:2 (Hexpr.select [ ("a", Hexpr.nil) ]));
      ("t", Hexpr.branch [ ("b", Hexpr.nil) ]);
    ]
  in
  let plan = Plan.of_list [ (1, "s"); (2, "t") ] in
  List.iter
    (fun level ->
      match Netcheck.check_client ~level repo plan ("c", client) with
      | Netcheck.Valid _ ->
          Alcotest.failf "%s absorbed the security block into the budget"
            (Compliance.level_to_string level)
      | Netcheck.Invalid stuck -> (
          match stuck.Netcheck.kind with
          | Netcheck.Security p ->
              Alcotest.(check string)
                (Fmt.str "%s blames the never-bad policy"
                   (Compliance.level_to_string level))
                (Usage.Policy.id bad) (Usage.Policy.id p)
          | _ ->
              Alcotest.failf "%s: expected a security stuckness"
                (Compliance.level_to_string level)))
    [ Compliance.Skip_k 3; Compliance.Affectible ]

let suite =
  [
    Alcotest.test_case "simple pairs" `Quick test_simple_pairs;
    Alcotest.test_case "internal vs external" `Quick test_internal_vs_external;
    Alcotest.test_case "deep mismatch" `Quick test_deep_mismatch;
    Alcotest.test_case "recursive compliance" `Quick test_recursive_compliance;
    Alcotest.test_case "hotel matrix (E2)" `Quick test_hotel_matrix;
    Alcotest.test_case "S2 counterexample (E2)" `Quick test_hotel_s2_counterexample;
    Alcotest.test_case "client-broker compliance" `Quick test_client_broker_compliance;
    Alcotest.test_case "Def.5 finality predicate" `Quick test_final_reason;
    Alcotest.test_case "product structure" `Quick test_product_structure;
    Alcotest.test_case "finals are sinks" `Quick test_finals_have_no_successors;
    QCheck_alcotest.to_alcotest prop_theorem1;
    QCheck_alcotest.to_alcotest prop_theorem2;
    QCheck_alcotest.to_alcotest prop_counterexample_iff_noncompliant;
    QCheck_alcotest.to_alcotest prop_nil_always_compliant;
    QCheck_alcotest.to_alcotest prop_skip0_is_strict;
    QCheck_alcotest.to_alcotest prop_strict_admits_iff_compliant;
    QCheck_alcotest.to_alcotest prop_ladder_monotone;
    QCheck_alcotest.to_alcotest prop_affectible_is_success;
    Alcotest.test_case "no level admits a policy violation" `Quick
      test_no_level_admits_violation;
    Alcotest.test_case "charged frontier keeps security fatal" `Quick
      test_charged_security_still_fatal;
    QCheck_alcotest.to_alcotest prop_build_finals_are_survey_stucks;
  ]
