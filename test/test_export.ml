(* DOT exports and batch simulation statistics. *)

open Core

let count s sub =
  let m = String.length sub in
  let rec go i n =
    if i + m > String.length s then n
    else go (i + 1) (if String.sub s i m = sub then n + 1 else n)
  in
  go 0 0

let contains s sub = count s sub > 0

let test_hexpr_dot () =
  let out = Fmt.str "%a" Export.hexpr_dot Scenarios.Hotel.s3 in
  Alcotest.(check bool) "digraph" true (contains out "digraph hexpr");
  Alcotest.(check bool) "has event label" true (contains out "sgn(s3)");
  Alcotest.(check bool) "has terminal" true (contains out "doublecircle");
  Alcotest.(check bool) "has init" true (contains out "init ->")

let test_client_graph_dot () =
  let out =
    Fmt.str "%t"
      (Export.client_graph_dot Scenarios.Hotel.repo Scenarios.Hotel.plan1
         ("c1", Scenarios.Hotel.client1))
  in
  Alcotest.(check bool) "digraph" true (contains out "digraph client");
  Alcotest.(check bool) "shows sync moves" true (contains out "tau(req)");
  Alcotest.(check bool) "no blocked moves under pi1" false
    (contains out "blocked by");
  Alcotest.(check bool) "no condemned state under pi1" false
    (contains out "color=red")

let test_client_graph_blocked () =
  (* under the black-listed plan, the graph shows the blocked event *)
  let out =
    Fmt.str "%t"
      (Export.client_graph_dot Scenarios.Hotel.repo Scenarios.Hotel.plan2_s3
         ("c2", Scenarios.Hotel.client2))
  in
  Alcotest.(check bool) "dashed blocked edge" true (contains out "blocked by");
  Alcotest.(check bool) "names the policy" true
    (contains out "phi({s1,s3},40,70)");
  Alcotest.(check bool) "stuck state highlighted" true (contains out "color=red")

let test_client_graph_mismatch () =
  (* the moody translator may answer retry!, which the writer cannot
     take: check and diagnose condemn that settled session
     (Definition 5(ii)) although it still has enabled moves, and the
     graph draws it red *)
  let spec = Syntax.Parser.spec_of_file "../examples/data/tutorial.susf" in
  let repo = Syntax.Spec.repo spec in
  let plan = Option.get (Syntax.Spec.find_plan spec "q") in
  let writer = ("writer", Option.get (Syntax.Spec.find_client spec "writer")) in
  let out = Fmt.str "%t" (Export.client_graph_dot repo plan writer) in
  let residual =
    match Netcheck.failures repo plan writer with
    | [ s ] ->
        String.escaped
          (Fmt.str "%a" Network.pp_component s.Netcheck.component)
    | fs -> Alcotest.failf "expected one stuck state, got %d" (List.length fs)
  in
  Alcotest.(check int) "one condemned state" 1
    (count out "doublecircle,color=red");
  Alcotest.(check bool) "labelled with the diagnosed residual" true
    (contains out ("doublecircle,color=red,label=\"" ^ residual ^ "\""))

let test_batch_valid_plan () =
  let stats =
    Simulate.batch ~runs:40 Scenarios.Hotel.repo (fun () ->
        Network.initial ~plan:Scenarios.Hotel.plan1
          [ ("c1", Scenarios.Hotel.client1) ])
  in
  Alcotest.(check int) "all complete" 40 stats.Simulate.completed;
  Alcotest.(check int) "all valid" 40 stats.Simulate.outcomes_valid;
  Alcotest.(check int) "none stuck" 0 stats.Simulate.stuck;
  Alcotest.(check bool) "sensible step count" true
    (stats.Simulate.avg_steps >= 11.0 && stats.Simulate.avg_steps <= 13.0);
  Alcotest.(check (float 1e-9)) "three events per run" 3.0 stats.Simulate.avg_events

let test_batch_insecure_plan () =
  let stats =
    Simulate.batch ~runs:40 Scenarios.Hotel.repo (fun () ->
        Network.initial
          ~plan:(Plan.of_list [ (1, "br"); (3, "s1") ])
          [ ("c1", Scenarios.Hotel.client1) ])
  in
  (* the monitor blocks the black-listed signing, so every run strands *)
  Alcotest.(check int) "all stuck" 40 stats.Simulate.stuck;
  (* but no history is ever invalid: the monitor did its job *)
  Alcotest.(check int) "histories stay valid" 40 stats.Simulate.outcomes_valid

let suite =
  [
    Alcotest.test_case "hexpr dot" `Quick test_hexpr_dot;
    Alcotest.test_case "client graph dot" `Quick test_client_graph_dot;
    Alcotest.test_case "blocked moves rendered" `Quick test_client_graph_blocked;
    Alcotest.test_case "mismatched session drawn condemned" `Quick
      test_client_graph_mismatch;
    Alcotest.test_case "batch: valid plan" `Quick test_batch_valid_plan;
    Alcotest.test_case "batch: insecure plan" `Quick test_batch_insecure_plan;
  ]
