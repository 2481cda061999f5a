(* The compiled engine against its interpreted oracles: byte-identical
   verdicts for Product.survey / admits / compliance / Netcheck at every
   level, the product automaton agrees with the survey, and the on-disk
   table cache refuses damage and never changes an answer. *)

open Core

let prop name count gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen f)

let pair_arb =
  QCheck.pair Testkit.Generators.contract_arb Testkit.Generators.contract_arb

(* Toggle the compiled dispatch (the backend stays installed) and
   restore it afterwards, whatever happens. *)
let with_compiled on f =
  let prev = Compile.Backend.enabled () in
  Compile.Backend.set_enabled on;
  Fun.protect ~finally:(fun () -> Compile.Backend.set_enabled prev) f

let levels =
  [
    Compliance.Strict;
    Compliance.Skip_k 0;
    Compliance.Skip_k 1;
    Compliance.Skip_k 3;
    Compliance.Affectible;
  ]

(* --- lowering units ---------------------------------------------------- *)

let test_lower_shapes () =
  let t = Option.get (Compile.Table.lower Contract.nil) in
  Alcotest.(check int) "nil is one state" 1 t.Compile.Table.states;
  Alcotest.(check bool) "nil kind" true (t.Compile.Table.kind.(0) = Compile.Table.Knil);
  let t = Option.get (Compile.Table.lower (Contract.recv "a")) in
  Alcotest.(check int) "a? has two states" 2 t.Compile.Table.states;
  Alcotest.(check bool) "a? inputs" true (t.Compile.Table.kind.(0) = Compile.Table.Kin);
  Alcotest.(check int) "a? row" 1 (Array.length t.Compile.Table.row_syms.(0));
  let sel =
    Contract.select [ ("a", Contract.nil); ("b", Contract.recv "c") ]
  in
  let t = Option.get (Compile.Table.lower sel) in
  Alcotest.(check bool) "select outputs" true
    (t.Compile.Table.kind.(0) = Compile.Table.Kout);
  Alcotest.(check int) "two output branches" 2
    (Array.length t.Compile.Table.row_syms.(0));
  Alcotest.(check (option reject)) "open contracts do not lower" None
    (Option.map ignore (Compile.Table.lower (Contract.var "x")))

(* --- compiled vs interpreted verdicts ---------------------------------- *)

let render_survey (s : Product.survey) =
  Fmt.str "%d|%b|%a" s.Product.stuck_states s.Product.successful
    Fmt.(option Product.pp_counterexample)
    s.Product.first_counterexample

let prop_survey_identical =
  prop "Product.survey compiled = interpreted (rendered)" 400 pair_arb
    (fun (c1, c2) ->
      let compiled = with_compiled true (fun () -> Product.survey c1 c2) in
      let interpreted = Product.survey_interpreted c1 c2 in
      String.equal (render_survey compiled) (render_survey interpreted))

let prop_admits_identical =
  prop "Product.admits agrees at every level" 300 pair_arb (fun (c1, c2) ->
      let compiled = with_compiled true (fun () -> Product.survey c1 c2) in
      let interpreted = Product.survey_interpreted c1 c2 in
      List.for_all
        (fun l -> Product.admits l compiled = Product.admits l interpreted)
        levels)

let prop_compliant_engines_identical =
  prop "Product.compliant compiled = interpreted" 400 pair_arb
    (fun (c1, c2) ->
      with_compiled true (fun () -> Product.compliant c1 c2)
      = with_compiled false (fun () -> Product.compliant c1 c2))

(* [susf dot] draws [Product.build]; every verdict comes from the
   survey. Both must count the same stuck configurations. *)
let prop_build_finals_are_survey_stucks =
  prop "Product.build finals = survey stuck states" 300 pair_arb
    (fun (c1, c2) ->
      let finals = List.length (Product.build c1 c2).Product.finals in
      List.for_all
        (fun on ->
          let s = with_compiled on (fun () -> Product.survey c1 c2) in
          s.Product.stuck_states = finals)
        [ true; false ])

let render_check_expr = function
  | Ok () -> "ok"
  | Error v -> Fmt.str "%a" Validity.pp_violation v

let prop_check_expr_identical =
  prop "Validity.check_expr compiled = interpreted (rendered)" 200
    Testkit.Generators.hexpr_arb (fun h ->
      let compiled =
        with_compiled true (fun () -> render_check_expr (Validity.check_expr h))
      in
      let interpreted =
        with_compiled false (fun () ->
            render_check_expr (Validity.check_expr h))
      in
      String.equal compiled interpreted)

(* --- the scenario sweep: rendered planner reports at every level ------- *)

let scenario_clients =
  [
    ("hotel", Scenarios.Hotel.repo,
     [ ("c1", Scenarios.Hotel.client1); ("c2", Scenarios.Hotel.client2) ]);
    ("mesh", Scenarios.Mesh.repo, [ ("shopper", Scenarios.Mesh.shopper) ]);
    ("churn", Scenarios.Churn.repo, Scenarios.Churn.clients);
    ("loose", Scenarios.Loose.repo_with_sound,
     [ ("client", Scenarios.Loose.client) ]);
    ("ecommerce", Scenarios.Ecommerce.repo,
     [
       ("shopper", Scenarios.Ecommerce.shopper);
       ("careful", Scenarios.Ecommerce.careful_shopper);
     ]);
    ("cloud", Scenarios.Cloud.repo ~worker:Scenarios.Cloud.frugal_worker,
     [ ("analyst", Scenarios.Cloud.analyst) ]);
    ("redundant", Scenarios.Redundant.repo, [ Scenarios.Redundant.client ]);
  ]

let test_scenario_reports_identical () =
  List.iter
    (fun (scenario, repo, clients) ->
      List.iter
        (fun client ->
          let plans = Planner.enumerate repo ~client in
          List.iter
            (fun plan ->
              List.iter
                (fun level ->
                  let render () =
                    Fmt.str "%a" Planner.pp_report
                      (Planner.analyze ~level repo ~client plan)
                  in
                  let compiled = with_compiled true render in
                  let interpreted = with_compiled false render in
                  Alcotest.(check string)
                    (Fmt.str "%s/%s at %a" scenario (fst client)
                       Compliance.pp_level level)
                    interpreted compiled)
                levels)
            plans)
        clients)
    scenario_clients

(* --- the table codec ------------------------------------------------- *)

let prop_encode_roundtrip =
  prop "decode o encode is the identity (re-encoded)" 300
    Testkit.Generators.contract_arb (fun c ->
      match Compile.Table.lower c with
      | None -> QCheck.assume_fail ()
      | Some t -> (
          let s = Compile.Table.encode t in
          match Compile.Table.decode s with
          | Error e -> QCheck.Test.fail_report e
          | Ok t' -> String.equal s (Compile.Table.encode t')))

let test_store_keys_stable () =
  (* store keys are part of the on-disk format: pinned byte for byte *)
  List.iter
    (fun (want, c) ->
      Alcotest.(check string) want want (Compile.Table.contract_key c))
    [
      ("n", Contract.nil);
      ( "e(req:i(cobo:e(pay:n),noav:n))",
        Contract.project Scenarios.Hotel.broker );
      ( "mh;s(i(a:n),vh;)",
        Contract.mu "h" (Contract.seq (Contract.send "a") (Contract.var "h")) );
      ( "e(a%2Db:n,c:n)",
        Contract.branch [ ("a-b", Contract.nil); ("c", Contract.nil) ] );
    ]

(* --- the persistent store ---------------------------------------------- *)

let store_contracts =
  lazy
    (List.map Contract.project
       [
         Scenarios.Hotel.broker;
         Scenarios.Hotel.s1;
         Scenarios.Hotel.s2;
         Scenarios.Hotel.broker_request_body;
       ])

let with_store_file f =
  let file = Filename.temp_file "susf-tables" ".susfc" in
  Sys.remove file;
  Fun.protect
    ~finally:(fun () ->
      Compile.Store.detach ();
      if Sys.file_exists file then Sys.remove file;
      if Sys.file_exists (file ^ ".tmp") then Sys.remove (file ^ ".tmp"))
    (fun () -> f file)

let populate file =
  (match Compile.Store.attach file with
  | Ok 0 -> ()
  | Ok n -> Alcotest.failf "fresh cache claims %d entries" n
  | Error e -> Alcotest.fail e);
  (* earlier tests may have memoized these contracts with no store
     attached; drop the memo so compilation runs (and records) again *)
  Repr.Cache.clear_all ();
  List.iter
    (fun c -> ignore (Compile.Backend.get c))
    (Lazy.force store_contracts);
  match Compile.Store.save () with
  | Ok n ->
      Alcotest.(check bool) "entries saved" true (n > 0);
      Alcotest.(check bool) "no tmp residue" false
        (Sys.file_exists (file ^ ".tmp"));
      n
  | Error e -> Alcotest.fail e

let test_store_warm_restart () =
  with_store_file @@ fun file ->
  let saved = populate file in
  Compile.Store.detach ();
  Repr.Cache.clear_all ();
  let before = Compile.Backend.lower_count () in
  (match Compile.Store.attach file with
  | Ok n -> Alcotest.(check int) "every entry reloads" saved n
  | Error e -> Alcotest.fail e);
  Repr.Cache.clear_all ();
  List.iter
    (fun c -> ignore (Compile.Backend.get c))
    (Lazy.force store_contracts);
  Alcotest.(check int) "warm restart recompiles nothing" before
    (Compile.Backend.lower_count ());
  let s = List.assoc "compile.store" (Repr.Cache.stats ()) in
  Alcotest.(check bool) "store hits recorded" true (s.Repr.Cache.hits > 0)

let read_lines file =
  In_channel.with_open_bin file In_channel.input_all
  |> String.split_on_char '\n'

let write_raw file lines =
  Out_channel.with_open_bin file (fun oc ->
      Out_channel.output_string oc (String.concat "\n" lines))

let test_store_refuses_corruption () =
  with_store_file @@ fun file ->
  ignore (populate file : int);
  Compile.Store.detach ();
  let lines = read_lines file in
  (* flip a payload byte on line 2: the checksum must catch it *)
  let corrupt =
    List.mapi
      (fun i l ->
        if i = 1 then
          String.mapi (fun j ch -> if j = String.length l - 1 then '#' else ch) l
        else l)
      lines
  in
  write_raw file corrupt;
  (match Compile.Store.attach file with
  | Ok _ -> Alcotest.fail "corrupt cache accepted"
  | Error diag ->
      Alcotest.(check bool)
        (Fmt.str "diagnostic %S names file:line" diag)
        true
        (Astring.String.is_prefix ~affix:(file ^ ":2:") diag));
  (* refused cache must not change any verdict: everything recompiles *)
  Repr.Cache.clear_all ();
  List.iter
    (fun c ->
      let compiled = with_compiled true (fun () -> Product.survey c c) in
      let interpreted = Product.survey_interpreted c c in
      Alcotest.(check string) "verdict after refusal"
        (render_survey interpreted) (render_survey compiled))
    (Lazy.force store_contracts)

let test_store_refuses_stale_version () =
  with_store_file @@ fun file ->
  ignore (populate file : int);
  Compile.Store.detach ();
  let lines = read_lines file in
  write_raw file ("susf-tables 1 999" :: List.tl lines);
  match Compile.Store.attach file with
  | Ok _ -> Alcotest.fail "stale cache accepted"
  | Error diag ->
      Alcotest.(check bool)
        (Fmt.str "diagnostic %S names line 1" diag)
        true
        (Astring.String.is_prefix ~affix:(file ^ ":1:") diag)

let test_store_rebuilds_format_1 () =
  (* format 1 also carried a minimized table per line: such a file is
     refused at its header, and the next save rewrites it in format 2 *)
  with_store_file @@ fun file ->
  ignore (populate file : int);
  Compile.Store.detach ();
  let lines = read_lines file in
  write_raw file ("susf-tables 1 1" :: List.tl lines);
  (match Compile.Store.attach file with
  | Ok _ -> Alcotest.fail "format-1 cache accepted"
  | Error diag ->
      Alcotest.(check bool)
        (Fmt.str "diagnostic %S names line 1" diag)
        true
        (Astring.String.is_prefix ~affix:(file ^ ":1:") diag));
  Repr.Cache.clear_all ();
  List.iter
    (fun c -> ignore (Compile.Backend.get c))
    (Lazy.force store_contracts);
  (match Compile.Store.save () with
  | Ok n -> Alcotest.(check bool) "rebuilt entries saved" true (n > 0)
  | Error e -> Alcotest.fail e);
  Alcotest.(check string) "rewritten in the current format" "susf-tables 2 1"
    (List.hd (read_lines file))

let test_store_drops_torn_tail () =
  with_store_file @@ fun file ->
  let saved = populate file in
  Compile.Store.detach ();
  let pristine = In_channel.with_open_bin file In_channel.input_all in
  (* crash mid-append: an unterminated garbage line must be dropped,
     the intact prefix loaded *)
  Out_channel.with_open_gen
    [ Open_append; Open_binary ] 0o644 file (fun oc ->
      Out_channel.output_string oc "1234 torn-entry-without-newl");
  (match Compile.Store.attach file with
  | Ok n -> Alcotest.(check int) "prefix survives the tear" saved n
  | Error e -> Alcotest.fail e);
  Compile.Store.detach ();
  (* a tear mid-entry (newline lost AND payload truncated) too *)
  Out_channel.with_open_bin file (fun oc ->
      Out_channel.output_string oc
        (String.sub pristine 0 (String.length pristine - 7)));
  match Compile.Store.attach file with
  | Ok n -> Alcotest.(check int) "truncated entry dropped" (saved - 1) n
  | Error e -> Alcotest.fail e

let suite =
  [
    Alcotest.test_case "lowering shapes" `Quick test_lower_shapes;
    prop_survey_identical;
    prop_admits_identical;
    prop_compliant_engines_identical;
    prop_build_finals_are_survey_stucks;
    prop_check_expr_identical;
    Alcotest.test_case "scenario reports identical at every level" `Slow
      test_scenario_reports_identical;
    prop_encode_roundtrip;
    Alcotest.test_case "store keys are stable" `Quick test_store_keys_stable;
    Alcotest.test_case "store warm restart" `Quick test_store_warm_restart;
    Alcotest.test_case "store refuses corruption" `Quick
      test_store_refuses_corruption;
    Alcotest.test_case "store refuses stale version" `Quick
      test_store_refuses_stale_version;
    Alcotest.test_case "store rebuilds a format-1 file" `Quick
      test_store_rebuilds_format_1;
    Alcotest.test_case "store drops a torn tail" `Quick
      test_store_drops_torn_tail;
  ]
