(* Call-by-contract service discovery. *)

open Core

let repo = Scenarios.Hotel.repo
let body = Scenarios.Hotel.broker_request_body

let test_query_unpoliced () =
  (* with no policy, compliance alone decides: all hotels qualify *)
  let usable = Discovery.usable repo ~body in
  Alcotest.(check (list string)) "compliant hotels" [ "s1"; "s3"; "s4" ]
    (List.sort compare usable)

let test_query_with_policy () =
  let usable = Discovery.usable ~policy:Scenarios.Hotel.phi1 repo ~body in
  Alcotest.(check (list string)) "phi1 filters" [ "s3" ] usable;
  let usable2 = Discovery.usable ~policy:Scenarios.Hotel.phi2 repo ~body in
  Alcotest.(check (list string)) "phi2 filters" [ "s4" ] usable2

let test_query_ranking () =
  let cs = Discovery.query ~policy:Scenarios.Hotel.phi1 repo ~body in
  Alcotest.(check int) "all candidates listed" (List.length repo) (List.length cs);
  (* usable first *)
  match cs with
  | { Discovery.loc = "s3"; verdict = Ok _ } :: rest ->
      Alcotest.(check bool) "rest rejected" true
        (List.for_all (fun c -> Result.is_error c.Discovery.verdict) rest)
  | _ -> Alcotest.fail "s3 must rank first"

let test_rejection_reasons () =
  let cs = Discovery.query ~policy:Scenarios.Hotel.phi1 repo ~body in
  let verdict_of loc =
    (List.find (fun c -> String.equal c.Discovery.loc loc) cs).Discovery.verdict
  in
  (match verdict_of "s2" with
  | Error (Discovery.Not_compliant ce) -> (
      match ce.Product.reason with
      | Product.Unmatched_output "del" -> ()
      | _ -> Alcotest.fail "expected unmatched del")
  | _ -> Alcotest.fail "s2 must be rejected for compliance");
  match verdict_of "s1" with
  | Error (Discovery.Insecure stuck) -> (
      match stuck.Netcheck.kind with
      | Netcheck.Security p ->
          Alcotest.(check string) "phi1" (Usage.Policy.id Scenarios.Hotel.phi1)
            (Usage.Policy.id p)
      | _ -> Alcotest.fail "expected security")
  | _ -> Alcotest.fail "s1 must be rejected for security"

let test_substitutes () =
  (* anyone served by s2 (which may also send del) is served by the
     other hotels *)
  let subs = Discovery.substitutes repo "s2" in
  Alcotest.(check (list string)) "substitutes for s2" [ "s1"; "s3"; "s4" ]
    (List.sort compare (List.map fst subs));
  (* but s2 cannot substitute s3 (it adds an output) *)
  let subs3 = Discovery.substitutes repo "s3" in
  Alcotest.(check bool) "s2 not a substitute for s3" false
    (List.mem_assoc "s2" subs3)

(* Duality makes discovery total: for any generated protocol body, a
   service behaving as its dual is always usable (no policy), so the
   planner can never answer "not-compliant" against it. *)
let prop_dual_always_usable =
  QCheck.Test.make ~name:"the dual service always serves the request" ~count:200
    Testkit.Generators.contract_arb (fun c ->
      let body = (c :> Hexpr.t) in
      let dual_service = (Contract.dual c :> Hexpr.t) in
      let repo = [ ("dual", dual_service) ] in
      Discovery.usable repo ~body = [ "dual" ])

let suite =
  [
    Alcotest.test_case "query without policy" `Quick test_query_unpoliced;
    Alcotest.test_case "query with policy" `Quick test_query_with_policy;
    Alcotest.test_case "ranking" `Quick test_query_ranking;
    Alcotest.test_case "rejection reasons" `Quick test_rejection_reasons;
    Alcotest.test_case "substitutes" `Quick test_substitutes;
    QCheck_alcotest.to_alcotest prop_dual_always_usable;
  ]

(* --- consistency with the planner and the subcontract preorder --- *)

let prop_usable_iff_singleton_plan_valid =
  QCheck.Test.make ~name:"usable = singleton plan valid" ~count:150
    Testkit.Generators.contract_arb (fun c ->
      let body = (c :> Hexpr.t) in
      let repo =
        [
          ("dual", (Contract.dual c :> Hexpr.t));
          ("mute", Hexpr.recv "zzzz");
        ]
      in
      List.for_all
        (fun (loc, _) ->
          let usable = List.mem loc (Discovery.usable repo ~body) in
          let client = Hexpr.open_ ~rid:1 body in
          let valid =
            Result.is_ok
              Planner.(
                analyze repo ~client:("q", client) (Plan.of_list [ (1, loc) ]))
                .verdict
          in
          usable = valid)
        repo)

let prop_refinement_preserves_usability =
  QCheck.Test.make ~name:"a refining service stays usable (no policy)"
    ~count:150
    (QCheck.pair Testkit.Generators.contract_arb Testkit.Generators.contract_arb)
    (fun (c, s') ->
      let body = (c :> Hexpr.t) in
      let s = Contract.dual c in
      QCheck.assume (Subcontract.refines s s');
      let repo = [ ("s", (s :> Hexpr.t)); ("s2", (s' :> Hexpr.t)) ] in
      let usable = Discovery.usable repo ~body in
      (not (List.mem "s" usable)) || List.mem "s2" usable)

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_usable_iff_singleton_plan_valid;
      QCheck_alcotest.to_alcotest prop_refinement_preserves_usability;
    ]
