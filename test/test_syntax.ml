(* Lexer, parser, and spec elaboration — including the whole hotel
   scenario from its .susf source and a pp/parse round trip. *)

open Core

let h_testable = Alcotest.testable Hexpr.pp Hexpr.equal

(* The printed term, policies by id. A spec's [phi] numbers its
   states 0–5 in order of appearance and [Usage.Policy_lib.hotel] 1–6,
   so their instances differ and terms built from one are not [equal]
   to terms built from the other; the paper's scenario is the same
   shape in both. *)
let same_shape =
  Alcotest.testable Hexpr.pp (fun a b ->
      String.equal (Hexpr.to_string a) (Hexpr.to_string b))

let parse ?automata s = Syntax.Parser.hexpr_of_string ?automata s
let phi_env = [ ("phi", Usage.Policy_lib.hotel) ]

let test_lexer_basics () =
  let toks = Syntax.Lexer.tokenize "a?.(b! (+) c!) // comment\n <+> <= --> 42" in
  let kinds = List.map (fun t -> t.Syntax.Lexer.token) toks in
  Alcotest.(check int) "token count" 15 (List.length kinds);
  Alcotest.(check bool) "has OPLUS" true (List.mem Syntax.Lexer.OPLUS kinds);
  Alcotest.(check bool) "has CHOICE" true (List.mem Syntax.Lexer.CHOICE kinds);
  Alcotest.(check bool) "has EDGEARROW" true (List.mem Syntax.Lexer.EDGEARROW kinds);
  Alcotest.(check bool) "has INT 42" true (List.mem (Syntax.Lexer.INTLIT 42) kinds)

let test_lexer_positions () =
  match Syntax.Lexer.tokenize "a\n  b" with
  | [ _; b; _eof ] ->
      Alcotest.(check int) "line" 2 b.Syntax.Lexer.line;
      Alcotest.(check int) "col" 3 b.Syntax.Lexer.col
  | _ -> Alcotest.fail "expected two idents"

let test_lexer_error () =
  (match Syntax.Lexer.tokenize "a $ b" with
  | exception Syntax.Lexer.Error (_, 1, 3) -> ()
  | _ -> Alcotest.fail "expected a lexer error at 1:3");
  (* an integer literal too large for [int] is positioned like any other
     lexer error, not an uncaught [Failure] *)
  match Syntax.Lexer.tokenize "#price(99999999999999999999999)" with
  | exception Syntax.Lexer.Error ("integer literal out of range", 1, 8) -> ()
  | _ -> Alcotest.fail "expected an out-of-range error at 1:8"

let test_parse_atoms () =
  Alcotest.check h_testable "eps" Hexpr.nil (parse "eps");
  Alcotest.check h_testable "recv" (Hexpr.recv "a") (parse "a?");
  Alcotest.check h_testable "send" (Hexpr.send "a") (parse "a!");
  Alcotest.check h_testable "event" (Hexpr.ev "x") (parse "#x");
  Alcotest.check h_testable "event with arg"
    (Hexpr.ev ~arg:(Usage.Value.int 45) "price")
    (parse "#price(45)");
  Alcotest.check h_testable "event with str arg"
    (Hexpr.ev ~arg:(Usage.Value.str "s1") "sgn")
    (parse "#sgn(s1)")

let test_parse_choices () =
  Alcotest.check h_testable "external"
    (Hexpr.branch [ ("a", Hexpr.nil); ("b", Hexpr.nil) ])
    (parse "a? + b?");
  Alcotest.check h_testable "internal"
    (Hexpr.select [ ("a", Hexpr.ev "x"); ("b", Hexpr.nil) ])
    (parse "a!.#x (+) b!");
  Alcotest.check h_testable "prefix continuation folded"
    (Hexpr.branch [ ("a", Hexpr.ev "x") ])
    (parse "a? . #x")

let test_parse_seq_mu () =
  Alcotest.check h_testable "seq of events"
    (Hexpr.seq (Hexpr.ev "x") (Hexpr.ev "y"))
    (parse "#x . #y");
  Alcotest.check h_testable "mu loop"
    (Hexpr.mu "h" (Hexpr.branch [ ("a", Hexpr.var "h") ]))
    (parse "mu h. a?.h")

let test_parse_sessions () =
  Alcotest.check h_testable "open no policy"
    (Hexpr.open_ ~rid:3 (Hexpr.send "idc"))
    (parse "open(3){ idc! }");
  let phi = Usage.Policy_lib.hotel_policy ~blacklist:[ "s1" ] ~price:45 ~rating:100 in
  Alcotest.check h_testable "open with policy"
    (Hexpr.open_ ~rid:1 ~policy:phi (Hexpr.send "req"))
    (parse ~automata:phi_env "open(1: phi({s1},45,100)){ req! }");
  Alcotest.check h_testable "frame"
    (Hexpr.frame phi (Hexpr.ev "x"))
    (parse ~automata:phi_env "phi({s1},45,100)[ #x ]");
  Alcotest.check h_testable "frame close residual"
    (Hexpr.frame_close phi)
    (parse ~automata:phi_env "~phi({s1},45,100)");
  Alcotest.check h_testable "close residual"
    (Hexpr.close ~rid:3 ())
    (parse "close(3)")

let test_parse_unguarded_choice () =
  Alcotest.check h_testable "choice"
    (Hexpr.choice (Hexpr.ev "x") (Hexpr.ev "y"))
    (parse "#x <+> #y")

let test_parse_errors () =
  let fails s =
    match parse ~automata:phi_env s with
    | exception Syntax.Parser.Error _ -> ()
    | _ -> Alcotest.failf "expected a parse error on %S" s
  in
  fails "";
  fails "a? + b!";          (* heterogeneous choice *)
  fails "a! (+) a!";        (* duplicate channel *)
  fails "open(x){ eps }";   (* rid must be an integer *)
  fails "zzz({s1},45,100)[ eps ]"; (* unknown policy *)
  fails "phi({s1},45)[ eps ]";     (* arity *)
  fails "a? b?";            (* missing operator *)
  fails "mu . a?"           (* missing binder *)

let test_parse_spec () =
  let spec = Syntax.Parser.spec_of_file "../examples/data/hotel.susf" in
  Alcotest.(check int) "one automaton" 1 (List.length spec.Syntax.Spec.automata);
  Alcotest.(check int) "five services" 5 (List.length spec.Syntax.Spec.services);
  Alcotest.(check int) "two clients" 2 (List.length spec.Syntax.Spec.clients);
  Alcotest.(check int) "two plans" 2 (List.length spec.Syntax.Spec.plans);
  (* the parsed scenario is the programmatic scenario *)
  Alcotest.check h_testable "broker" Scenarios.Hotel.broker
    (Option.get (List.assoc_opt "br" spec.Syntax.Spec.services));
  Alcotest.check h_testable "s2" Scenarios.Hotel.s2
    (Option.get (List.assoc_opt "s2" spec.Syntax.Spec.services));
  Alcotest.check same_shape "c1" Scenarios.Hotel.client1
    (Option.get (Syntax.Spec.find_client spec "c1"));
  Alcotest.check same_shape "c2" Scenarios.Hotel.client2
    (Option.get (Syntax.Spec.find_client spec "c2"));
  Alcotest.(check bool) "pi1" true
    (Plan.equal Scenarios.Hotel.plan1 (Option.get (Syntax.Spec.find_plan spec "pi1")))

let test_parsed_spec_verifies () =
  (* the whole pipeline from source text: parse, plan, check *)
  let spec = Syntax.Parser.spec_of_file "../examples/data/hotel.susf" in
  let repo = Syntax.Spec.repo spec in
  let c1 = Option.get (Syntax.Spec.find_client spec "c1") in
  let pi1 = Option.get (Syntax.Spec.find_plan spec "pi1") in
  match Netcheck.check_client repo pi1 ("c1", c1) with
  | Netcheck.Valid _ -> ()
  | Netcheck.Invalid s -> Alcotest.failf "unexpected: %a" Netcheck.pp_stuck s

let test_parse_guard_forms () =
  let src =
    {|
policy g(p) {
  start a;
  offending bad;
  a -- e(x) when x = 3 or (x > 5 and not x >= 9) --> bad;
}
service s = #e(3);
|}
  in
  let spec = Syntax.Parser.spec_of_string src in
  let aut = Option.get (Syntax.Spec.find_automaton spec "g") in
  let pol = Usage.Usage_automaton.instantiate aut [ Usage.Value.int 0 ] in
  let e n = Usage.Event.make ~arg:(Usage.Value.int n) "e" in
  Alcotest.(check bool) "3 violates" false (Usage.Policy.respects pol [ e 3 ]);
  Alcotest.(check bool) "6 violates" false (Usage.Policy.respects pol [ e 6 ]);
  Alcotest.(check bool) "9 ok" true (Usage.Policy.respects pol [ e 9 ]);
  Alcotest.(check bool) "4 ok" true (Usage.Policy.respects pol [ e 4 ])

(* --- λ-calculus programs --- *)

let parse_term ?automata s = Syntax.Parser.term_of_string ?automata s

let test_lambda_atoms () =
  Alcotest.(check bool) "unit" true (parse_term "()" = Lambda_sec.Ast.Unit);
  Alcotest.(check bool) "int" true (parse_term "42" = Lambda_sec.Ast.Int 42);
  Alcotest.(check bool) "bool" true (parse_term "true" = Lambda_sec.Ast.Bool true);
  Alcotest.(check bool) "var" true (parse_term "x" = Lambda_sec.Ast.Var "x");
  (match parse_term "#sgn(s1)" with
  | Lambda_sec.Ast.Event e ->
      Alcotest.(check string) "event name" "sgn" e.Usage.Event.name
  | _ -> Alcotest.fail "expected an event");
  match parse_term "send req" with
  | Lambda_sec.Ast.Send "req" -> ()
  | _ -> Alcotest.fail "expected a send"

let test_lambda_structures () =
  (match parse_term "fun (x : int) -> x" with
  | Lambda_sec.Ast.Fun { self = None; param = "x"; param_ty = Lambda_sec.Ast.TInt; _ } -> ()
  | _ -> Alcotest.fail "expected a function");
  (match parse_term "rec f (x : unit) : unit -> f x" with
  | Lambda_sec.Ast.Fun { self = Some "f"; ret_ty = Some Lambda_sec.Ast.TUnit; _ } -> ()
  | _ -> Alcotest.fail "expected a recursive function");
  (match parse_term "let y = 1 in y == 1" with
  | Lambda_sec.Ast.Let ("y", Lambda_sec.Ast.Int 1, Lambda_sec.Ast.Eq _) -> ()
  | _ -> Alcotest.fail "expected a let of an equality");
  (match parse_term "if true then send a else send b" with
  | Lambda_sec.Ast.If (_, Lambda_sec.Ast.Send "a", Lambda_sec.Ast.Send "b") -> ()
  | _ -> Alcotest.fail "expected an if");
  (match parse_term "recv { a -> () | b -> send c }" with
  | Lambda_sec.Ast.Recv [ ("a", _); ("b", _) ] -> ()
  | _ -> Alcotest.fail "expected handlers");
  match parse_term "f x y" with
  | Lambda_sec.Ast.App (Lambda_sec.Ast.App (Lambda_sec.Ast.Var "f", _), _) -> ()
  | _ -> Alcotest.fail "application is left-associative"

let test_lambda_blocks () =
  match parse_term "{ #x; #y; () }" with
  | Lambda_sec.Ast.Let ("_", Lambda_sec.Ast.Event _, Lambda_sec.Ast.Let ("_", Lambda_sec.Ast.Event _, Lambda_sec.Ast.Unit)) -> ()
  | _ -> Alcotest.fail "expected sequencing sugar"

let test_lambda_session () =
  let t =
    parse_term ~automata:phi_env
      "req(1: phi({s1},45,100)){ send req; recv { cobo -> send pay | noav -> () } }"
  in
  match Lambda_sec.Infer.infer [] t with
  | Ok (_, eff) ->
      Alcotest.check h_testable "inferred C1" Scenarios.Hotel.client1
        (Hexpr.normalize eff)
  | Error e -> Alcotest.failf "inference failed: %a" Lambda_sec.Infer.pp_error e

let test_lambda_spec_programs () =
  let spec = Syntax.Parser.spec_of_file "../examples/data/hotel.susf" in
  Alcotest.(check int) "two programs" 2 (List.length spec.Syntax.Spec.programs);
  let order = Option.get (Syntax.Spec.find_program spec "order") in
  (match Lambda_sec.Infer.infer [] order with
  | Ok (_, eff) ->
      Alcotest.check same_shape "order's effect is C1" Scenarios.Hotel.client1
        (Hexpr.normalize eff)
  | Error _ -> Alcotest.fail "order must type");
  let hotel3 = Option.get (Syntax.Spec.find_program spec "hotel3") in
  match Lambda_sec.Infer.infer [] hotel3 with
  | Ok (_, eff) ->
      Alcotest.check h_testable "hotel3's effect is S3" Scenarios.Hotel.s3
        (Hexpr.normalize eff)
  | Error e -> Alcotest.failf "hotel3 must type: %a" Lambda_sec.Infer.pp_error e

let test_lambda_errors () =
  let fails s =
    match parse_term ~automata:phi_env s with
    | exception Syntax.Parser.Error _ -> ()
    | _ -> Alcotest.failf "expected a parse error on %S" s
  in
  fails "fun x -> x";            (* missing annotation parens *)
  fails "rec f (x : unit) -> x"; (* missing return type *)
  fails "recv { }";              (* empty handlers *)
  fails "let x = 1";             (* missing in *)
  fails "req(x){ () }"           (* rid must be an int *)

(* round trip: parse (pp h) = normalize h *)
let prop_roundtrip =
  QCheck.Test.make ~name:"parse . pp = normalize" ~count:300
    Testkit.Generators.hexpr_arb (fun h ->
      (* the generator's policies are parameterless; expose them *)
      let automata =
        [
          ("never_z", Usage.Policy_lib.never "z");
          ("never_y_after_x", Usage.Policy_lib.never_after ~first:"x" ~then_:"y");
          ("at_most_2_x", Usage.Policy_lib.at_most ~n:2 "x");
          ("z_requires_x", Usage.Policy_lib.requires_before ~before:"x" ~target:"z");
        ]
      in
      let printed = Hexpr.to_string h in
      match Syntax.Parser.hexpr_of_string ~automata printed with
      | parsed -> Hexpr.equal (Hexpr.normalize h) parsed
      | exception Syntax.Parser.Error (msg, l, c) ->
          QCheck.Test.fail_reportf "parse error on %S: %s at %d:%d" printed msg
            l c)

let suite =
  [
    Alcotest.test_case "lexer basics" `Quick test_lexer_basics;
    Alcotest.test_case "lexer positions" `Quick test_lexer_positions;
    Alcotest.test_case "lexer errors" `Quick test_lexer_error;
    Alcotest.test_case "atoms" `Quick test_parse_atoms;
    Alcotest.test_case "choices" `Quick test_parse_choices;
    Alcotest.test_case "sequences and recursion" `Quick test_parse_seq_mu;
    Alcotest.test_case "sessions and framings" `Quick test_parse_sessions;
    Alcotest.test_case "unguarded choice" `Quick test_parse_unguarded_choice;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "hotel.susf" `Quick test_parse_spec;
    Alcotest.test_case "parsed spec verifies" `Quick test_parsed_spec_verifies;
    Alcotest.test_case "guard forms" `Quick test_parse_guard_forms;
    Alcotest.test_case "λ atoms" `Quick test_lambda_atoms;
    Alcotest.test_case "λ structures" `Quick test_lambda_structures;
    Alcotest.test_case "λ blocks" `Quick test_lambda_blocks;
    Alcotest.test_case "λ sessions infer C1" `Quick test_lambda_session;
    Alcotest.test_case "λ programs in hotel.susf" `Quick test_lambda_spec_programs;
    Alcotest.test_case "λ parse errors" `Quick test_lambda_errors;
    QCheck_alcotest.to_alcotest prop_roundtrip;
  ]

(* --- spec round trip: parse ∘ to_susf = identity --- *)

let test_spec_roundtrip () =
  let spec = Syntax.Parser.spec_of_file "../examples/data/hotel.susf" in
  let printed = Fmt.str "%a" Syntax.Spec.to_susf spec in
  let spec2 =
    try Syntax.Parser.spec_of_string printed
    with Syntax.Parser.Error (m, l, c) ->
      Alcotest.failf "reparse failed at %d:%d: %s@.%s" l c m printed
  in
  Alcotest.(check int) "same automata" (List.length spec.Syntax.Spec.automata)
    (List.length spec2.Syntax.Spec.automata);
  List.iter
    (fun (n, h) ->
      Alcotest.check h_testable ("service " ^ n) h
        (Option.get (List.assoc_opt n spec2.Syntax.Spec.services)))
    spec.Syntax.Spec.services;
  List.iter
    (fun (n, h) ->
      Alcotest.check h_testable ("client " ^ n) h
        (Option.get (Syntax.Spec.find_client spec2 n)))
    spec.Syntax.Spec.clients;
  List.iter
    (fun (n, p) ->
      Alcotest.(check bool) ("plan " ^ n) true
        (Plan.equal p (Option.get (Syntax.Spec.find_plan spec2 n))))
    spec.Syntax.Spec.plans;
  List.iter
    (fun (n, t) ->
      Alcotest.(check bool) ("program " ^ n) true
        (Option.get (Syntax.Spec.find_program spec2 n) = t))
    spec.Syntax.Spec.programs;
  (* and the reprint of the reparse is a fixed point *)
  Alcotest.(check string) "printing is a fixed point" printed
    (Fmt.str "%a" Syntax.Spec.to_susf spec2)

let suite =
  suite
  @ [ Alcotest.test_case "spec round trip" `Quick test_spec_roundtrip ]

(* --- regex policies and conjunction in references --- *)

let test_forbid_policy_decl () =
  let spec =
    Syntax.Parser.spec_of_string
      {|
policy no_rw() = forbid #read #write;
service s = go?.(#read . #write . done_!);
client c = open(1: no_rw()){ go!.done_? };
plan p = { 1 -> s };
|}
  in
  let c = Option.get (Syntax.Spec.find_client spec "c") in
  match
    Planner.(analyze (Syntax.Spec.repo spec) ~client:("c", c)
               (Option.get (Syntax.Spec.find_plan spec "p")))
      .verdict
  with
  | Error (Planner.Insecure _) -> ()
  | _ -> Alcotest.fail "the regex policy must block the write"

let test_forbid_policy_guarded () =
  let spec =
    Syntax.Parser.spec_of_string
      {|
policy cap(limit) = forbid #charge when x > limit;
service s = go?.(#charge(80) . done_!);
client cheap = open(1: cap(100)){ go!.done_? };
client strict = open(2: cap(50)){ go!.done_? };
plan p1 = { 1 -> s };
plan p2 = { 2 -> s };
|}
  in
  let repo = Syntax.Spec.repo spec in
  let run name plan =
    Planner.(analyze repo
               ~client:(name, Option.get (Syntax.Spec.find_client spec name))
               (Option.get (Syntax.Spec.find_plan spec plan)))
      .verdict
  in
  Alcotest.(check bool) "within limit" true (Result.is_ok (run "cheap" "p1"));
  Alcotest.(check bool) "over limit" true (Result.is_error (run "strict" "p2"))

let test_forbid_alternation_star () =
  let spec =
    Syntax.Parser.spec_of_string
      {|
policy guard() = forbid (#a | #b) (#skip)* #c;
service s = eps;
|}
  in
  let aut = Option.get (Syntax.Spec.find_automaton spec "guard") in
  let p = Usage.Usage_automaton.instantiate aut [] in
  let e n = Usage.Event.make n in
  Alcotest.(check bool) "a skip skip c violates" false
    (Usage.Policy.respects p [ e "a"; e "skip"; e "skip"; e "c" ]);
  Alcotest.(check bool) "b c violates" false
    (Usage.Policy.respects p [ e "b"; e "c" ]);
  Alcotest.(check bool) "c alone fine" true (Usage.Policy.respects p [ e "c" ])

let test_policy_conjunction_ref () =
  let spec =
    Syntax.Parser.spec_of_string
      {|
policy no_x() = forbid #x;
policy cap(limit) = forbid #charge when x > limit;
service s = go?.(#charge(80) . done_!);
service bad = go?.(#x . done_!);
client c = open(1: no_x() & cap(100)){ go!.done_? };
client framed = no_x() & cap(100)[ go!.done_? ];
client nested = open(2: (no_x() & cap(1)) & no_x()){ go!.done_? };
client nested_framed = (no_x() & cap(1)) & no_x()[ go!.done_? ];
plan p = { 1 -> s };
plan pb = { 1 -> bad };
|}
  in
  let repo = Syntax.Spec.repo spec in
  let c = Option.get (Syntax.Spec.find_client spec "c") in
  let verdict plan =
    Planner.(analyze repo ~client:("c", c)
               (Option.get (Syntax.Spec.find_plan spec plan)))
      .verdict
  in
  Alcotest.(check bool) "both conjuncts satisfied" true
    (Result.is_ok (verdict "p"));
  Alcotest.(check bool) "left conjunct enforced" true
    (Result.is_error (verdict "pb"));
  (* the client's policy really is the conjunction *)
  (match Hexpr.policies c with
  | [ p ] ->
      Alcotest.(check string) "conj id" "(no_x() & cap(100))" (Usage.Policy.id p)
  | _ -> Alcotest.fail "one policy expected");
  (* a conjunction prints as its parenthesised id, in a request, a
     framing and a nested conjunction alike, and parses back to it *)
  let printed = Fmt.str "%a" Syntax.Spec.to_susf spec in
  let spec2 =
    try Syntax.Parser.spec_of_string printed
    with Syntax.Parser.Error (m, l, col) ->
      Alcotest.failf "reparse failed at %d:%d: %s@.%s" l col m printed
  in
  Alcotest.(check string) "the reprint is a fixed point" printed
    (Fmt.str "%a" Syntax.Spec.to_susf spec2);
  List.iter
    (fun name ->
      let ids s =
        List.map Usage.Policy.id
          (Hexpr.policies (Option.get (Syntax.Spec.find_client s name)))
      in
      Alcotest.(check (list string)) (name ^ ": same policies") (ids spec)
        (ids spec2))
    [ "c"; "framed"; "nested"; "nested_framed" ]

let test_forbid_nullable_is_error () =
  match
    Syntax.Parser.spec_of_string {|
policy bad() = forbid (#x)*;
|}
  with
  | exception Syntax.Parser.Error _ -> ()
  | _ -> Alcotest.fail "nullable forbid must be rejected"

let suite =
  suite
  @ [
      Alcotest.test_case "forbid declarations" `Quick test_forbid_policy_decl;
      Alcotest.test_case "guarded forbid" `Quick test_forbid_policy_guarded;
      Alcotest.test_case "forbid alternation and star" `Quick
        test_forbid_alternation_star;
      Alcotest.test_case "policy conjunction references" `Quick
        test_policy_conjunction_ref;
      Alcotest.test_case "nullable forbid rejected" `Quick
        test_forbid_nullable_is_error;
    ]

(* --- network declarations (plan vectors) --- *)

let test_network_decl () =
  let spec = Syntax.Parser.spec_of_file "../examples/data/hotel.susf" in
  match Syntax.Spec.resolve_network spec "both" with
  | Error m -> Alcotest.fail m
  | Ok vector -> (
      Alcotest.(check int) "two clients" 2 (List.length vector);
      match Netcheck.check (Syntax.Spec.repo spec) vector with
      | Netcheck.Valid _ -> ()
      | Netcheck.Invalid s -> Alcotest.failf "unexpected: %a" Netcheck.pp_stuck s)

let test_network_bad_refs () =
  let spec =
    Syntax.Parser.spec_of_string
      {|
client c = open(1){ a! };
plan p = { 1 -> ghost_service };
network n = { c with p, ghost with p };
|}
  in
  (match Syntax.Spec.resolve_network spec "n" with
  | Error msg -> Alcotest.(check string) "ghost client" "unknown client ghost" msg
  | Ok _ -> Alcotest.fail "expected a resolution error");
  let fs = Syntax.Lint.spec spec in
  Alcotest.(check bool) "lint flags it" true
    (List.exists
       (fun f ->
         f.Syntax.Lint.severity = Syntax.Lint.Error
         && String.equal f.Syntax.Lint.subject "network n")
       fs)

let test_network_roundtrip () =
  let spec = Syntax.Parser.spec_of_file "../examples/data/hotel.susf" in
  let printed = Fmt.str "%a" Syntax.Spec.to_susf spec in
  let spec2 = Syntax.Parser.spec_of_string printed in
  Alcotest.(check int) "networks survive" 1
    (List.length spec2.Syntax.Spec.networks)

let suite =
  suite
  @ [
      Alcotest.test_case "network declarations" `Quick test_network_decl;
      Alcotest.test_case "network bad references" `Quick test_network_bad_refs;
      Alcotest.test_case "network round trip" `Quick test_network_roundtrip;
    ]

(* --- interning: one text, one term; one policy id, two automata --- *)

let test_parse_twice_shares () =
  let text = "open(1: phi({s1},45,100)){ req!.(cobo?.pay! + noav?) }" in
  let a = parse ~automata:phi_env text and b = parse ~automata:phi_env text in
  Alcotest.(check bool) "one client text, one term" true (a == b);
  let load () = Syntax.Parser.spec_of_file "../examples/data/hotel.susf" in
  let s1 = load () and s2 = load () in
  List.iter
    (fun (name, h) ->
      Alcotest.(check bool) ("client " ^ name) true
        (h == Option.get (Syntax.Spec.find_client s2 name)))
    s1.Syntax.Spec.clients

(* Two specs declare [once()] with different automata: in
   once_touch.susf the service's [#touch] is a violation, in
   once_other.susf it is not. The client texts are identical, so
   interning that captured one automaton for the other would flip a
   verdict. *)
let once_spec offending_event =
  Printf.sprintf
    "policy once() {\n\
    \  start q0;\n\
    \  offending bad;\n\
    \  q0 -- %s(x) --> bad;\n\
     }\n\
     service s = go?.(#touch . done_!);\n\
     client c = open(1: once()){ go!.done_? };\n\
     plan pi = { 1 -> s };\n"
    offending_event

let check_output spec =
  let repo = Syntax.Spec.repo spec in
  List.concat_map
    (fun (name, h) ->
      match Planner.valid_plans ~all:false repo ~client:(name, h) with
      | [] -> [ Fmt.str "%s: NO valid plan" name ]
      | reports ->
          List.map (fun r -> Fmt.str "%s: %a" name Planner.pp_report r) reports)
    spec.Syntax.Spec.clients

let test_policy_id_two_automata () =
  let files =
    List.map
      (fun ev ->
        let file = Printf.sprintf "once_%s.susf" ev in
        Out_channel.with_open_text file (fun oc ->
            output_string oc (once_spec ev));
        file)
      [ "touch"; "other" ]
  in
  (* each spec loaded alone: a susf process of its own *)
  let alone file =
    let out = file ^ ".out" in
    ignore
      (Sys.command
         (Filename.quote_command "../bin/susf.exe" [ "check"; file ]
            ~stdout:out));
    In_channel.with_open_text out In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let expected = List.map alone files in
  Alcotest.(check bool) "the two automata disagree" false
    (List.equal String.equal (List.nth expected 0) (List.nth expected 1));
  List.iter
    (fun order ->
      let specs =
        List.map (fun i -> Syntax.Parser.spec_of_file (List.nth files i)) order
      in
      List.iter2
        (fun i spec ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s, loaded with the other" (List.nth files i))
            (List.nth expected i) (check_output spec))
        order specs)
    [ [ 0; 1 ]; [ 1; 0 ] ]

let suite =
  suite
  @ [
      Alcotest.test_case "one client text parses to one term" `Quick
        test_parse_twice_shares;
      Alcotest.test_case "one policy id, two automata, one process" `Quick
        test_policy_id_two_automata;
    ]
