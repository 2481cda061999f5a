(* The service λ-calculus: typing, effect inference, evaluation, and
   effect soundness on concrete programs. *)

open Lambda_sec

let never_z = List.nth Testkit.Generators.policy_pool 0
let h_testable = Alcotest.testable Core.Hexpr.pp Core.Hexpr.equal
let ty_testable = Alcotest.testable Ast.pp_ty Ast.ty_equal

let infer_ok e =
  match Infer.infer [] e with
  | Ok r -> r
  | Error err -> Alcotest.failf "inference failed: %a" Infer.pp_error err

let test_base_types () =
  let ty, eff = infer_ok Ast.Unit in
  Alcotest.check ty_testable "unit" Ast.TUnit ty;
  Alcotest.check h_testable "pure" Core.Hexpr.nil eff;
  let ty, _ = infer_ok (Ast.Int 3) in
  Alcotest.check ty_testable "int" Ast.TInt ty

let test_event_effect () =
  let _, eff = infer_ok (Ast.ev ~arg:(Usage.Value.int 1) "x") in
  Alcotest.check h_testable "event effect"
    (Core.Hexpr.ev ~arg:(Usage.Value.int 1) "x")
    eff

let test_seq_effect () =
  let e = Ast.seq (Ast.ev "x") (Ast.ev "y") in
  let _, eff = infer_ok e in
  Alcotest.check h_testable "sequencing"
    (Core.Hexpr.seq (Core.Hexpr.ev "x") (Core.Hexpr.ev "y"))
    eff

let test_latent_effect () =
  (* (λx. ev y) fired at application, not at definition *)
  let f = Ast.lam "x" Ast.TUnit (Ast.ev "y") in
  let _, eff_def = infer_ok f in
  Alcotest.check h_testable "definition is pure" Core.Hexpr.nil eff_def;
  let _, eff_app = infer_ok (Ast.(f @@@ Unit)) in
  Alcotest.check h_testable "application fires" (Core.Hexpr.ev "y") eff_app

let test_recursive_effect () =
  (* fix f x = ev a?; f x — latent effect μh. a?.h *)
  let f =
    Ast.fix "f" "x" Ast.TUnit Ast.TUnit
      (Ast.seq (Ast.Recv [ ("a", Ast.Unit) ]) Ast.(Var "f" @@@ Var "x"))
  in
  let _, eff = infer_ok Ast.(f @@@ Unit) in
  Alcotest.check h_testable "mu effect"
    (Core.Hexpr.mu "h_f" (Core.Hexpr.branch [ ("a", Core.Hexpr.var "h_f") ]))
    (Core.Hexpr.normalize eff)

let test_recursion_needs_annotation () =
  let f = Ast.Fun { self = Some "f"; param = "x"; param_ty = Ast.TUnit; ret_ty = None; body = Ast.Unit } in
  match Infer.infer [] f with
  | Error (Infer.Needs_annotation "f") -> ()
  | _ -> Alcotest.fail "expected annotation error"

let test_if_internal_choice () =
  (* if c then (send a; …) else (send b; …) ⇒ a!.… ⊕ b!.… *)
  let e =
    Ast.If
      ( Ast.Bool true,
        Ast.seq (Ast.Send "a") (Ast.ev "x"),
        Ast.seq (Ast.Send "b") (Ast.ev "y") )
  in
  let _, eff = infer_ok e in
  Alcotest.check h_testable "internal choice"
    (Core.Hexpr.select
       [ ("a", Core.Hexpr.ev "x"); ("b", Core.Hexpr.ev "y") ])
    eff

let test_if_falls_back_to_choice () =
  let e = Ast.If (Ast.Bool true, Ast.ev "x", Ast.ev "y") in
  let _, eff = infer_ok e in
  match Core.Hexpr.node eff with
  | Core.Hexpr.Choice (_, _) -> ()
  | _ -> Alcotest.failf "expected a Choice effect, got %a" Core.Hexpr.pp eff

let test_framed_and_request () =
  let e =
    Ast.Request
      { rid = 1; policy = Some never_z; body = Ast.Framed (never_z, Ast.ev "x") }
  in
  let _, eff = infer_ok e in
  Alcotest.check h_testable "request effect"
    (Core.Hexpr.open_ ~rid:1 ~policy:never_z
       (Core.Hexpr.frame never_z (Core.Hexpr.ev "x")))
    eff

let test_type_errors () =
  let bad_app = Ast.(Int 1 @@@ Int 2) in
  (match Infer.infer [] bad_app with
  | Error (Infer.Not_a_function _) -> ()
  | _ -> Alcotest.fail "expected Not_a_function");
  let bad_if = Ast.If (Ast.Int 1, Ast.Unit, Ast.Unit) in
  (match Infer.infer [] bad_if with
  | Error (Infer.Mismatch _) -> ()
  | _ -> Alcotest.fail "expected Mismatch");
  let diff_branches = Ast.If (Ast.Bool true, Ast.Unit, Ast.Int 1) in
  (match Infer.infer [] diff_branches with
  | Error (Infer.Branches_differ _) -> ()
  | _ -> Alcotest.fail "expected Branches_differ");
  match Infer.infer [] (Ast.Var "ghost") with
  | Error (Infer.Unbound "ghost") -> ()
  | _ -> Alcotest.fail "expected Unbound"

let eval_ok ?monitor ?strategy e =
  match Eval.eval ?monitor ?strategy e with
  | Ok r -> r
  | Error err -> Alcotest.failf "evaluation failed: %a" Eval.pp_error err

let test_eval_basics () =
  let v, h = eval_ok (Ast.seq (Ast.ev "x") (Ast.Int 5)) in
  (match v with
  | Eval.VInt 5 -> ()
  | _ -> Alcotest.fail "expected 5");
  Alcotest.(check int) "one event logged" 1 (List.length h)

let test_eval_let_closure () =
  let e =
    Ast.Let
      ( "f",
        Ast.lam "x" Ast.TInt (Ast.Eq (Ast.Var "x", Ast.Int 2)),
        Ast.(Var "f" @@@ Int 2) )
  in
  match fst (eval_ok e) with
  | Eval.VBool true -> ()
  | _ -> Alcotest.fail "expected true"

let test_eval_recursion () =
  (* a loop that receives n times then stops, via the scripted strategy *)
  let f =
    Ast.fix "f" "x" Ast.TUnit Ast.TUnit
      (Ast.Recv [ ("more", Ast.seq (Ast.ev "x") Ast.(Var "f" @@@ Unit)); ("stop", Ast.Unit) ])
  in
  let _, h =
    eval_ok ~strategy:(Eval.scripted [ "more"; "more"; "stop" ]) Ast.(f @@@ Unit)
  in
  Alcotest.(check int) "two iterations logged" 2 (List.length h)

let test_monitor_aborts () =
  let bad = Ast.Framed (never_z, Ast.ev "z") in
  (match Eval.eval bad with
  | Error (Eval.Security _) -> ()
  | _ -> Alcotest.fail "expected a security abort");
  (* with the monitor off, the program completes and the violation is
     visible in the history *)
  match Eval.eval ~monitor:false bad with
  | Ok (_, h) -> Alcotest.(check bool) "history invalid" false (Core.Validity.valid h)
  | Error _ -> Alcotest.fail "monitor-off run must complete"

let test_effect_soundness_concrete () =
  (* the logged history of every run is admitted by the inferred effect *)
  let program =
    Ast.Framed
      ( never_z,
        Ast.If
          ( Ast.Eq (Ast.Int 1, Ast.Int 1),
            Ast.seq (Ast.Send "a") (Ast.ev "x"),
            Ast.seq (Ast.Send "b") (Ast.ev "y") ) )
  in
  let _, eff = infer_ok program in
  let _, h = eval_ok program in
  Alcotest.(check bool) "history admitted" true (Effect.admits eff h)

let test_admits () =
  let eff = Core.Hexpr.branch [ ("a", Core.Hexpr.ev "x"); ("b", Core.Hexpr.ev "y") ] in
  let x = Core.History.Ev (Usage.Event.make "x") in
  let y = Core.History.Ev (Usage.Event.make "y") in
  Alcotest.(check bool) "x admitted" true (Effect.admits eff [ x ]);
  Alcotest.(check bool) "y admitted" true (Effect.admits eff [ y ]);
  Alcotest.(check bool) "xy not admitted" false (Effect.admits eff [ x; y ]);
  Alcotest.(check bool) "empty admitted" true (Effect.admits eff [])

(* The paper's client C1, written as a λ-program: its inferred effect is
   exactly the history expression of Fig. 2. *)
let lambda_client1 =
  Ast.Request
    {
      rid = 1;
      policy = Some Scenarios.Hotel.phi1;
      body =
        Ast.seq (Ast.Send "req")
          (Ast.Recv
             [ ("cobo", Ast.Send "pay"); ("noav", Ast.Unit) ]);
    }

let test_hotel_client_in_lambda () =
  let _, eff = infer_ok lambda_client1 in
  Alcotest.check h_testable "same as Fig. 2"
    Scenarios.Hotel.client1
    (Core.Hexpr.normalize eff)

(* A λ-hotel whose data-driven choice becomes the paper's ⊕ *)
let lambda_hotel available =
  Ast.seq
    (Ast.ev ~arg:(Usage.Value.str "s4") "sgn")
    (Ast.seq
       (Ast.ev ~arg:(Usage.Value.int 50) "price")
       (Ast.seq
          (Ast.ev ~arg:(Usage.Value.int 90) "rating")
          (Ast.Recv
             [
               ( "idc",
                 Ast.If
                   (available, Ast.Send "bok", Ast.Send "una") );
             ])))

let test_hotel_service_in_lambda () =
  let _, eff = infer_ok (lambda_hotel (Ast.Eq (Ast.Int 1, Ast.Int 1))) in
  Alcotest.check h_testable "same as Fig. 2 S4"
    Scenarios.Hotel.s4
    (Core.Hexpr.normalize eff)

let suite =
  [
    Alcotest.test_case "base types" `Quick test_base_types;
    Alcotest.test_case "event effect" `Quick test_event_effect;
    Alcotest.test_case "sequencing effect" `Quick test_seq_effect;
    Alcotest.test_case "latent effects" `Quick test_latent_effect;
    Alcotest.test_case "recursive latent effect" `Quick test_recursive_effect;
    Alcotest.test_case "recursion needs annotation" `Quick test_recursion_needs_annotation;
    Alcotest.test_case "if as internal choice" `Quick test_if_internal_choice;
    Alcotest.test_case "if fallback to Choice" `Quick test_if_falls_back_to_choice;
    Alcotest.test_case "framing and request effects" `Quick test_framed_and_request;
    Alcotest.test_case "type errors" `Quick test_type_errors;
    Alcotest.test_case "evaluation basics" `Quick test_eval_basics;
    Alcotest.test_case "closures" `Quick test_eval_let_closure;
    Alcotest.test_case "recursion and strategies" `Quick test_eval_recursion;
    Alcotest.test_case "runtime monitor" `Quick test_monitor_aborts;
    Alcotest.test_case "effect soundness (concrete)" `Quick test_effect_soundness_concrete;
    Alcotest.test_case "admits" `Quick test_admits;
    Alcotest.test_case "C1 as a λ-program" `Quick test_hotel_client_in_lambda;
    Alcotest.test_case "S4 as a λ-program" `Quick test_hotel_service_in_lambda;
  ]

(* --- arithmetic and pairs --- *)

let test_arith () =
  let v, _ = eval_ok (Ast.Binop (Ast.Add, Ast.Int 2, Ast.Binop (Ast.Mul, Ast.Int 3, Ast.Int 4))) in
  (match v with Eval.VInt 14 -> () | _ -> Alcotest.fail "expected 14");
  let v, _ = eval_ok (Ast.Binop (Ast.Lt, Ast.Int 1, Ast.Int 2)) in
  (match v with Eval.VBool true -> () | _ -> Alcotest.fail "expected true");
  let ty, _ = infer_ok (Ast.Binop (Ast.Sub, Ast.Int 5, Ast.Int 3)) in
  Alcotest.check ty_testable "int" Ast.TInt ty;
  let ty, _ = infer_ok (Ast.Binop (Ast.Leq, Ast.Int 5, Ast.Int 3)) in
  Alcotest.check ty_testable "bool" Ast.TBool ty;
  match Infer.infer [] (Ast.Binop (Ast.Add, Ast.Bool true, Ast.Int 1)) with
  | Error (Infer.Mismatch _) -> ()
  | _ -> Alcotest.fail "expected a type error"

let test_pairs () =
  let e = Ast.Pair (Ast.Int 1, Ast.Pair (Ast.Bool true, Ast.Unit)) in
  let ty, _ = infer_ok e in
  Alcotest.check ty_testable "nested pair"
    (Ast.TPair (Ast.TInt, Ast.TPair (Ast.TBool, Ast.TUnit)))
    ty;
  (match fst (eval_ok (Ast.Fst e)) with
  | Eval.VInt 1 -> ()
  | _ -> Alcotest.fail "fst");
  (match fst (eval_ok (Ast.Snd (Ast.Snd e))) with
  | Eval.VUnit -> ()
  | _ -> Alcotest.fail "snd.snd");
  match Infer.infer [] (Ast.Fst (Ast.Int 1)) with
  | Error (Infer.Mismatch _) -> ()
  | _ -> Alcotest.fail "fst needs a pair"

let test_pair_effects_ordered () =
  (* effects of pair components run left to right *)
  let e = Ast.Pair (Ast.ev "x", Ast.ev "y") in
  let _, eff = infer_ok e in
  Alcotest.check h_testable "sequenced"
    (Core.Hexpr.seq (Core.Hexpr.ev "x") (Core.Hexpr.ev "y"))
    eff;
  let _, h = eval_ok e in
  Alcotest.(check int) "both logged" 2 (List.length h)

let test_arith_parsing () =
  let t = Syntax.Parser.term_of_string "1 + 2 * 3 < 10" in
  (match fst (match Eval.eval t with Ok r -> r | Error _ -> Alcotest.fail "eval") with
  | Eval.VBool true -> ()
  | _ -> Alcotest.fail "left-assoc arithmetic: (1+2)*3 = 9 < 10");
  let p = Syntax.Parser.term_of_string "fst (1, true)" in
  match Eval.eval p with
  | Ok (Eval.VInt 1, _) -> ()
  | _ -> Alcotest.fail "pair projection from source"

let suite =
  suite
  @ [
      Alcotest.test_case "arithmetic" `Quick test_arith;
      Alcotest.test_case "pairs" `Quick test_pairs;
      Alcotest.test_case "pair effects ordered" `Quick test_pair_effects_ordered;
      Alcotest.test_case "arithmetic parsing" `Quick test_arith_parsing;
    ]

(* --- effect soundness on generated programs --- *)

let prop_generated_terms_type =
  QCheck.Test.make ~name:"generated terms are well-typed" ~count:300
    Testkit.Generators.lambda_arb (fun t ->
      match Infer.infer [] t with
      | Ok (Ast.TUnit, _) -> true
      | Ok (ty, _) ->
          QCheck.Test.fail_reportf "unexpected type %a" Ast.pp_ty ty
      | Error e -> QCheck.Test.fail_reportf "ill-typed: %a" Infer.pp_error e)

let prop_effect_soundness =
  QCheck.Test.make ~name:"logged histories are admitted by the effect"
    ~count:300 Testkit.Generators.lambda_arb (fun t ->
      match Infer.infer [] t with
      | Error _ -> false
      | Ok (_, eff) -> (
          match Eval.eval ~monitor:false t with
          | Error _ -> true (* stuck terms are not generated, but be safe *)
          | Ok (_, h) -> Effect.admits eff h))

let prop_monitored_histories_valid =
  QCheck.Test.make ~name:"monitored runs only log valid histories" ~count:300
    Testkit.Generators.lambda_arb (fun t ->
      match Eval.eval t with
      | Ok (_, h) -> Core.Validity.valid h
      | Error (Eval.Security _) -> true
      | Error (Eval.Stuck _) -> false)

let prop_static_validity_entails_monitor_free =
  QCheck.Test.make
    ~name:"statically valid effects run monitor-free without violations"
    ~count:300 Testkit.Generators.lambda_arb (fun t ->
      match Infer.infer [] t with
      | Error _ -> false
      | Ok (_, eff) ->
          if Result.is_ok (Core.Validity.check_expr eff) then
            match Eval.eval ~monitor:false t with
            | Ok (_, h) -> Core.Validity.valid h
            | Error _ -> true
          else true)

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_generated_terms_type;
      QCheck_alcotest.to_alcotest prop_effect_soundness;
      QCheck_alcotest.to_alcotest prop_monitored_histories_valid;
      QCheck_alcotest.to_alcotest prop_static_validity_entails_monitor_free;
    ]
