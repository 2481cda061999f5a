(* A three-level cloud workflow (examples/data/cloud.susf): analyst →
   orchestrator → worker → storage. Sessions nest three deep; the policy
   imposed by the analyst at the top constrains write events performed
   by the storage service two sessions below. Storage is a recursive
   service (guarded tail recursion). Run from the repository root. *)

open Core

let pf = Format.printf
let spec = Syntax.Parser.spec_of_file "examples/data/cloud.susf"
let service name = List.assoc name (Syntax.Spec.repo spec)
let client name = Option.get (Syntax.Spec.find_client spec name)
let plan name = Option.get (Syntax.Spec.find_plan spec name)
let analyst = client "analyst"
let good_plan = plan "good"

(* the workflow with [worker]'s body at location wrk *)
let repo ~worker =
  List.map
    (fun loc -> (loc, service (if loc = "wrk" then worker else loc)))
    [ "orc"; "wrk"; "store"; "compact"; "flaky" ]

let () =
  pf "== the workflow (frugal worker: 2 writes) ==@.";
  List.iter
    (fun r -> pf "  %a@." Planner.pp_report r)
    (Planner.valid_plans (repo ~worker:"wrk") ~client:("ana", analyst));

  pf "@.== the greedy worker (3 writes) breaks the analyst's policy ==@.";
  let r3 =
    Planner.analyze (repo ~worker:"greedy") ~client:("ana", analyst) good_plan
  in
  pf "  %a@." Planner.pp_report r3;

  pf "@.== snapshot-then-delete storage under a stricter analyst ==@.";
  let r =
    Planner.analyze (repo ~worker:"wrk")
      ~client:("ana", client "strict_analyst")
      (plan "compact")
  in
  pf "  %a@." Planner.pp_report r;

  pf "@.== a run three sessions deep ==@.";
  let t =
    Simulate.run
      (repo ~worker:"wrk")
      (Network.initial ~plan:good_plan [ ("ana", analyst) ])
      Simulate.first
  in
  Simulate.pp_trace_compact Fmt.stdout t;
  (match t.Simulate.final with
  | [ c ] ->
      pf "ana's history: %a@." History.pp
        (Validity.Monitor.history c.Network.monitor)
  | _ -> ());

  pf "@.== statically: the flaky storage would deadlock the worker ==@.";
  (match
     Netcheck.check_client (repo ~worker:"wrk") (plan "flaky") ("ana", analyst)
   with
  | Netcheck.Valid _ -> pf "  unexpected: valid@."
  | Netcheck.Invalid s -> pf "  %a@." Netcheck.pp_stuck s);

  pf "@.== worst-case storage bill ==@.";
  let model = Quant.Model.of_list [ ("write", 5.0) ] in
  match
    Quant.Plan_cost.worst_case (repo ~worker:"wrk") good_plan ("ana", analyst)
      model
  with
  | Some c -> pf "  the frugal worker bills at most %g@." c
  | None -> pf "  unbounded@."
