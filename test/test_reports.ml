(* The JSON tree, escaping, and the report encoders. *)

open Reports

let str j = Json.to_string j

let test_scalars () =
  Alcotest.(check string) "null" "null" (str Json.Null);
  Alcotest.(check string) "true" "true" (str (Json.Bool true));
  Alcotest.(check string) "int" "42" (str (Json.Int 42));
  Alcotest.(check string) "float" "1.5" (str (Json.Float 1.5));
  Alcotest.(check string) "integral float" "3.0" (str (Json.Float 3.0));
  Alcotest.(check string) "string" "\"hi\"" (str (Json.String "hi"))

let test_escaping () =
  Alcotest.(check string) "quotes" "\"a\\\"b\"" (str (Json.String "a\"b"));
  Alcotest.(check string) "backslash" "\"a\\\\b\"" (str (Json.String "a\\b"));
  Alcotest.(check string) "newline" "\"a\\nb\"" (str (Json.String "a\nb"));
  Alcotest.(check string) "control" "\"a\\u0001b\"" (str (Json.String "a\001b"))

let test_nesting () =
  let j =
    Json.Obj
      [
        ("xs", Json.List [ Json.Int 1; Json.Int 2 ]);
        ("o", Json.Obj [ ("k", Json.Null) ]);
      ]
  in
  Alcotest.(check string) "nested" "{\"xs\":[1,2],\"o\":{\"k\":null}}" (str j)

let test_planner_report_valid () =
  let r =
    Core.Planner.analyze Scenarios.Hotel.repo
      ~client:("c1", Scenarios.Hotel.client1)
      Scenarios.Hotel.plan1
  in
  match Encode.planner_report r with
  | Json.Obj fields ->
      Alcotest.(check bool) "has plan" true (List.mem_assoc "plan" fields);
      Alcotest.(check bool) "verdict valid" true
        (List.assoc "verdict" fields = Json.String "valid")
  | _ -> Alcotest.fail "expected an object"

let test_planner_report_noncompliant () =
  let r =
    Core.Planner.analyze Scenarios.Hotel.repo
      ~client:("c2", Scenarios.Hotel.client2)
      Scenarios.Hotel.plan2_s2
  in
  let s = str (Encode.planner_report r) in
  Alcotest.(check bool) "marks non-compliance" true
    (Astring.String.is_infix ~affix:"not-compliant" s);
  Alcotest.(check bool) "names the channel" true
    (Astring.String.is_infix ~affix:"del" s)

let test_planner_report_insecure () =
  let r =
    Core.Planner.analyze Scenarios.Hotel.repo
      ~client:("c2", Scenarios.Hotel.client2)
      Scenarios.Hotel.plan2_s3
  in
  let s = str (Encode.planner_report r) in
  Alcotest.(check bool) "marks insecurity" true
    (Astring.String.is_infix ~affix:"insecure" s);
  Alcotest.(check bool) "names the policy" true
    (Astring.String.is_infix ~affix:"phi({s1,s3},40,70)" s)

let test_stats_encoding () =
  let stats =
    Core.Simulate.batch ~runs:5 Scenarios.Hotel.repo (fun () ->
        Core.Network.initial ~plan:Scenarios.Hotel.plan1
          [ ("c1", Scenarios.Hotel.client1) ])
  in
  let s = str (Encode.sim_stats stats) in
  Alcotest.(check bool) "runs recorded" true
    (Astring.String.is_infix ~affix:"\"runs\":5" s)

(* ------------------------------------------------------------------ *)
(* of_string inverts the printer over every tree the encoders build *)

let rt msg j =
  match Json.of_string (str j) with
  | Error e -> Alcotest.failf "%s: parse failed on %s: %s" msg (str j) e
  | Ok j' ->
      Alcotest.(check string) msg (str j) (str j');
      Alcotest.(check bool) (msg ^ " (structural)") true (j = j')

let test_parser_roundtrip () =
  rt "scalars"
    (Json.List
       [
         Json.Null; Json.Bool true; Json.Bool false; Json.Int 0; Json.Int (-42);
         Json.Float 1.5; Json.Float (-0.25); Json.String "hi";
       ]);
  rt "escapes" (Json.String "a\"b\\c\nd\te\001f");
  rt "empty containers" (Json.Obj [ ("xs", Json.List []); ("o", Json.Obj []) ]);
  rt "nesting"
    (Json.Obj
       [
         ("xs", Json.List [ Json.Int 1; Json.Obj [ ("k", Json.Null) ] ]);
         ("s", Json.String "{\"not\":\"json\"}");
       ]);
  (* and the planner reports of every verdict *)
  List.iter
    (fun (msg, client, plan) ->
      rt msg
        (Encode.planner_report
           (Core.Planner.analyze Scenarios.Hotel.repo ~client plan)))
    [
      ("valid report", ("c1", Scenarios.Hotel.client1), Scenarios.Hotel.plan1);
      ( "non-compliant report",
        ("c2", Scenarios.Hotel.client2),
        Scenarios.Hotel.plan2_s2 );
      ( "insecure report",
        ("c2", Scenarios.Hotel.client2),
        Scenarios.Hotel.plan2_s3 );
    ]

let test_parser_rejects () =
  let fails s =
    match Json.of_string s with
    | Ok j -> Alcotest.failf "%S parsed to %s" s (str j)
    | Error _ -> ()
  in
  fails "";
  fails "tru";
  fails "{\"a\":1";
  fails "[1,]";
  fails "1 2";
  fails "\"unterminated"

(* the orchestration and mediation decline encoders, fed from real
   declines, round-trip through the parser *)
let test_counterexample_roundtrips () =
  (* a broken supply chain declines with a controller counterexample *)
  let repo, (name, body) = Scenarios.Supply_chain.broken ~parties:4 in
  (match Mediator.Repair.climb ~mediate:false repo ~client:(name, body) with
  | Mediator.Repair.Declined { coalition = d; _ } ->
      rt "orchestration decline" (Encode.orchestration_declined d);
      (match d with
      | Orchestration.Orchestrate.No_controller { counterexample; _ } ->
          rt "orchestration counterexample"
            (Encode.orchestration_counterexample counterexample)
      | _ -> Alcotest.fail "broken chain: expected No_controller")
  | _ -> Alcotest.fail "broken chain: expected a decline");
  (* the coalition rung's security declines say why: chatty talks
     outside its session (unfit), and wrapped's framing watches the only
     member's lookup (unvouched) *)
  let spec = Syntax.Parser.spec_of_file "corpus/coalition_security.susf" in
  List.iter
    (fun (client, kind) ->
      let body = List.assoc client spec.Syntax.Spec.clients in
      match
        Mediator.Repair.climb ~mediate:false (Syntax.Spec.repo spec)
          ~client:(client, body)
      with
      | Mediator.Repair.Declined { coalition = d; _ } ->
          let j = Encode.orchestration_declined d in
          Alcotest.(check bool)
            (Fmt.str "%s: %s decline" client kind)
            true
            (Astring.String.is_infix ~affix:(Fmt.str "\"kind\":%S" kind)
               (str j));
          rt (kind ^ " decline") j
      | v ->
          Alcotest.failf "%s: expected a decline, got %a" client
            Mediator.Repair.pp_verdict v)
    [ ("chatty", "unfit-client"); ("wrapped", "unvouched") ];
  (* the mediation rung declines wrapped2 too: its only adapter would
     hide caching's lookup from the client's framing *)
  (match
     Mediator.Repair.climb ~mediate:true (Syntax.Spec.repo spec)
       ~client:("wrapped2", List.assoc "wrapped2" spec.Syntax.Spec.clients)
   with
  | Mediator.Repair.Declined
      { mediation = Some (Mediator.Repair.Unvouched _ as d); _ } ->
      rt "mediation unvouched decline" (Encode.mediation_declined d)
  | v ->
      Alcotest.failf "wrapped2: expected an unvouched mediation, got %a"
        Mediator.Repair.pp_verdict v);
  (* the unmediable witness declines with a mediation counterexample *)
  match
    Mediator.Repair.heal Scenarios.Mismatched.witness_repo
      ~client:("stuck", Scenarios.Mismatched.witness_client)
  with
  | Error (Mediator.Repair.Unmediable { counterexample; _ } as d) ->
      rt "mediation decline" (Encode.mediation_declined d);
      rt "mediation counterexample"
        (Encode.mediation_counterexample counterexample)
  | Error d ->
      Alcotest.failf "witness: expected Unmediable, got %a"
        Mediator.Repair.pp_declined d
  | Ok _ -> Alcotest.fail "witness: expected a decline"

(* the broker outcomes the mediate verb produces round-trip too *)
let test_broker_mediate_encoding () =
  let outcome repo client body req =
    let b = Broker.create repo in
    ignore (Broker.process b (Broker.Open { client; body }));
    (Broker.process b req).Broker.outcome
  in
  let healed =
    outcome Scenarios.Mismatched.repo "shopper"
      Scenarios.Mismatched.buffer_client
      (Broker.Mediate { client = "shopper" })
  in
  (match healed with
  | Broker.Mediated _ -> ()
  | o -> Alcotest.failf "expected Mediated, got %a" Broker.pp_outcome o);
  rt "mediated outcome" (Encode.broker_outcome healed);
  let declined =
    outcome Scenarios.Mismatched.witness_repo "stuck"
      Scenarios.Mismatched.witness_client
      (Broker.Mediate { client = "stuck" })
  in
  (match declined with
  | Broker.Rejected (Broker.No_mediation _) -> ()
  | o -> Alcotest.failf "expected No_mediation, got %a" Broker.pp_outcome o);
  rt "no-mediation outcome" (Encode.broker_outcome declined);
  let s = str (Encode.broker_outcome declined) in
  Alcotest.(check bool) "decline carries the detail" true
    (Astring.String.is_infix ~affix:"no-mediation" s)

let suite =
  [
    Alcotest.test_case "scalars" `Quick test_scalars;
    Alcotest.test_case "escaping" `Quick test_escaping;
    Alcotest.test_case "nesting" `Quick test_nesting;
    Alcotest.test_case "planner report (valid)" `Quick test_planner_report_valid;
    Alcotest.test_case "planner report (non-compliant)" `Quick test_planner_report_noncompliant;
    Alcotest.test_case "planner report (insecure)" `Quick test_planner_report_insecure;
    Alcotest.test_case "stats encoding" `Quick test_stats_encoding;
    Alcotest.test_case "parser round-trips the printer" `Quick
      test_parser_roundtrip;
    Alcotest.test_case "parser rejects malformed input" `Quick
      test_parser_rejects;
    Alcotest.test_case "counterexample encoders round-trip" `Quick
      test_counterexample_roundtrips;
    Alcotest.test_case "broker mediate outcomes encode and round-trip" `Quick
      test_broker_mediate_encoding;
  ]
