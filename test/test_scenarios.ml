(* End-to-end verification of the non-paper scenarios shipped as
   specifications: examples/data/ecommerce.susf, examples/data/cloud.susf
   and test/corpus/mesh.susf. *)

open Core

let ecommerce_repo = Syntax.Spec.repo Fixture.ecommerce
let shopper = Fixture.(client ecommerce "shopper")
let careful_shopper = Fixture.(client ecommerce "careful_shopper")
let careful_plan = Fixture.(plan ecommerce "careful")
let analyst = Fixture.(client cloud "analyst")
let good_plan = Fixture.(plan cloud "good")

(* the workflow with [worker]'s body at location wrk *)
let cloud_repo ~worker =
  List.map
    (fun loc -> (loc, Fixture.(service cloud (if loc = "wrk" then worker else loc))))
    [ "orc"; "wrk"; "store"; "compact"; "flaky" ]

let verdict repo client plan =
  match Planner.(analyze repo ~client plan).verdict with
  | Ok _ -> "valid"
  | Error (Planner.Not_compliant _) -> "not-compliant"
  | Error (Planner.Insecure _) -> "insecure"
  | Error (Planner.Unserved _) -> "unserved"
  | Error (Planner.Outside_fragment _) -> "outside-fragment"

(* --- e-commerce --- *)

let test_ecommerce_matrix () =
  let shopper = ("shopper", shopper) in
  let plan20 loc = Plan.of_list [ (10, "mkt"); (20, loc) ] in
  Alcotest.(check string) "alpha" "valid" (verdict ecommerce_repo shopper (plan20 "alpha"));
  Alcotest.(check string) "bravo (overcharge)" "insecure"
    (verdict ecommerce_repo shopper (plan20 "bravo"));
  Alcotest.(check string) "charlie (retry)" "not-compliant"
    (verdict ecommerce_repo shopper (plan20 "charlie"));
  Alcotest.(check string) "mkt serving itself" "not-compliant"
    (verdict ecommerce_repo shopper (plan20 "mkt"))

let test_ecommerce_unique_valid () =
  let reports =
    Planner.valid_plans ~all:false ecommerce_repo ~client:("shopper", shopper)
  in
  Alcotest.(check int) "one valid plan" 1 (List.length reports);
  Alcotest.(check bool) "it is {10[mkt],20[alpha]}" true
    (Plan.equal (List.hd reports).Planner.plan Fixture.(plan ecommerce "good"))

let test_careful_shopper () =
  let carol = ("carol", careful_shopper) in
  Alcotest.(check string) "alpha authenticates" "valid"
    (verdict ecommerce_repo carol careful_plan);
  (* with a huge limit, bravo still fails carol: no auth before charge *)
  let lax = Fixture.(client ecommerce "lax") in
  match
    Planner.(
      analyze ecommerce_repo ~client:("lax", lax)
        (Plan.of_list [ (12, "mkt"); (20, "bravo") ]))
      .verdict
  with
  | Error (Planner.Insecure stuck) -> (
      match stuck.Netcheck.kind with
      | Netcheck.Security p ->
          Alcotest.(check string) "auth_first blocks"
            (Usage.Policy.id Fixture.(policy ecommerce "charge_requires_auth" []))
            (Usage.Policy.id p)
      | _ -> Alcotest.fail "expected a security stuckness")
  | _ -> Alcotest.fail "bravo must be insecure for carol"

let test_ecommerce_runs () =
  let t =
    Simulate.run ecommerce_repo
      (Network.initial ~plan:careful_plan [ ("carol", careful_shopper) ])
      (Simulate.random ~seed:5)
  in
  Alcotest.(check bool) "completes" true (t.Simulate.outcome = Simulate.Completed);
  match t.Simulate.final with
  | [ c ] ->
      let h = Validity.Monitor.history c.Network.monitor in
      Alcotest.(check bool) "history valid" true (Validity.valid h);
      Alcotest.(check bool) "auth before charge" true
        (let names =
           List.map (fun (e : Usage.Event.t) -> e.name) (History.flatten h)
         in
         names = [ "auth"; "charge" ])
  | _ -> Alcotest.fail "one client"

let test_spend_policy () =
  let p = Fixture.(policy ecommerce "spend" [ Usage.Value.int 100 ]) in
  let charge n = Usage.Event.make ~arg:(Usage.Value.int n) "charge" in
  Alcotest.(check bool) "100 ok" true (Usage.Policy.respects p [ charge 100 ]);
  Alcotest.(check bool) "101 over" false (Usage.Policy.respects p [ charge 101 ]);
  Alcotest.(check bool) "several small ok" true
    (Usage.Policy.respects p [ charge 60; charge 60 ])

(* --- cloud --- *)

let test_cloud_matrix () =
  let ana = ("ana", analyst) in
  let repo = cloud_repo ~worker:"wrk" in
  let plan3 loc = Plan.of_list [ (1, "orc"); (2, "wrk"); (3, loc) ] in
  Alcotest.(check string) "store" "valid" (verdict repo ana (plan3 "store"));
  Alcotest.(check string) "flaky" "not-compliant" (verdict repo ana (plan3 "flaky"));
  (* the compacting storage writes 3 events per put but only 1 write
     counts against max_writes: 2 puts = 2 writes: fine for the plain
     analyst *)
  Alcotest.(check string) "compact (plain analyst)" "valid"
    (verdict repo ana (plan3 "compact"));
  Alcotest.(check string) "compact (strict analyst)" "insecure"
    (verdict repo
       ("ana", Fixture.(client cloud "strict_analyst"))
       (plan3 "compact"))

let test_cloud_greedy () =
  let repo = cloud_repo ~worker:"greedy" in
  match Planner.(analyze repo ~client:("ana", analyst) good_plan).verdict with
  | Error (Planner.Insecure stuck) -> (
      match stuck.Netcheck.kind with
      | Netcheck.Security p ->
          Alcotest.(check string) "max_writes blocks"
            (Usage.Policy.id Fixture.(policy cloud "at_most_2_write" []))
            (Usage.Policy.id p)
      | _ -> Alcotest.fail "expected security")
  | _ -> Alcotest.fail "greedy worker must be insecure"

let test_cloud_depth () =
  (* the run really goes three sessions deep *)
  let repo = cloud_repo ~worker:"wrk" in
  let cfg = Network.initial ~plan:good_plan [ ("ana", analyst) ] in
  let t = Simulate.run repo cfg Simulate.first in
  Alcotest.(check bool) "completes" true (t.Simulate.outcome = Simulate.Completed);
  let max_depth =
    List.fold_left
      (fun acc (_, cfg) ->
        (* count session nodes on the deepest branch *)
        let rec depth = function
          | Network.Leaf _ -> 0
          | Network.Session (a, b) -> 1 + max (depth a) (depth b)
        in
        List.fold_left (fun acc c -> max acc (depth c.Network.comp)) acc cfg)
      0 t.Simulate.steps
  in
  Alcotest.(check int) "three nested sessions" 3 max_depth

let test_cloud_cost () =
  let repo = cloud_repo ~worker:"wrk" in
  let model = Quant.Model.of_list [ ("write", 5.0) ] in
  Alcotest.(check (option (float 1e-9))) "two writes at 5" (Some 10.0)
    (Quant.Plan_cost.worst_case repo good_plan ("ana", analyst) model);
  (* the unbounded storage loop is bounded by the worker's protocol *)
  Alcotest.(check bool) "storage alone is unbounded" true
    (Quant.Cost.worst_case model Fixture.(service cloud "store") = None)

let suite =
  [
    Alcotest.test_case "ecommerce verdicts" `Quick test_ecommerce_matrix;
    Alcotest.test_case "ecommerce unique valid plan" `Quick test_ecommerce_unique_valid;
    Alcotest.test_case "careful shopper" `Quick test_careful_shopper;
    Alcotest.test_case "ecommerce runs" `Quick test_ecommerce_runs;
    Alcotest.test_case "spend policy" `Quick test_spend_policy;
    Alcotest.test_case "cloud verdicts" `Quick test_cloud_matrix;
    Alcotest.test_case "greedy worker" `Quick test_cloud_greedy;
    Alcotest.test_case "three-level nesting" `Quick test_cloud_depth;
    Alcotest.test_case "cloud costs" `Quick test_cloud_cost;
  ]

(* --- the payment mesh --- *)

let mesh_repo = Syntax.Spec.repo Fixture.mesh
let mesh_shopper = Fixture.(client mesh "shopper")
let mesh_good = Fixture.(plan mesh "good")

let test_mesh_good_plan () =
  Alcotest.(check string) "good plan valid" "valid"
    (verdict mesh_repo ("shopper", mesh_shopper) mesh_good)

let test_mesh_failures () =
  let plan ~pay ~inv =
    Plan.of_list [ (1, "gw"); (2, "orders"); (3, pay); (4, inv) ]
  in
  (* payB breaks both conjuncts of the shopper's policy *)
  Alcotest.(check string) "payB insecure" "insecure"
    (verdict mesh_repo ("shopper", mesh_shopper) (plan ~pay:"payB" ~inv:"inv"));
  (* the flaky inventory may answer backorder: non-compliant *)
  Alcotest.(check string) "invX not compliant" "not-compliant"
    (verdict mesh_repo ("shopper", mesh_shopper) (plan ~pay:"payA" ~inv:"invX"))

let test_mesh_unique_valid () =
  let reports =
    Planner.valid_plans ~all:false mesh_repo ~client:("shopper", mesh_shopper)
  in
  Alcotest.(check int) "unique valid plan" 1 (List.length reports);
  Alcotest.(check bool) "it is the good plan" true
    (Plan.equal (List.hd reports).Planner.plan mesh_good)

let test_mesh_runs_clean () =
  let stats =
    Simulate.batch ~runs:50 mesh_repo (fun () ->
        Network.initial ~plan:mesh_good [ ("shopper", mesh_shopper) ])
  in
  Alcotest.(check int) "all complete" 50 stats.Simulate.completed;
  Alcotest.(check int) "all valid" 50 stats.Simulate.outcomes_valid

let test_mesh_sequence_of_sessions () =
  (* the order service's two nested sessions happen in sequence: the
     payment session closes before the inventory session opens *)
  let t =
    Simulate.run mesh_repo
      (Network.initial ~plan:mesh_good [ ("shopper", mesh_shopper) ])
      Simulate.first
  in
  Alcotest.(check bool) "completed" true (t.Simulate.outcome = Simulate.Completed);
  let indexed =
    List.mapi (fun i (g, _) -> (i, g)) t.Simulate.steps
  in
  let find f =
    match List.find_opt (fun (_, g) -> f g) indexed with
    | Some (i, _) -> i
    | None -> Alcotest.fail "expected step missing"
  in
  let close3 = find (function Network.L_close (r, _) -> r.Hexpr.rid = 3 | _ -> false) in
  let open4 = find (function Network.L_open (r, _, _) -> r.Hexpr.rid = 4 | _ -> false) in
  Alcotest.(check bool) "payment closes before inventory opens" true
    (close3 < open4)

let test_mesh_policy_reaches_grandchild () =
  (* the shopper's conjoined policy blocks the uncapped charge performed
     two sessions below; the witness trace shows the whole chain *)
  match
    Netcheck.check_client mesh_repo
      (Plan.of_list [ (1, "gw"); (2, "orders"); (3, "payB"); (4, "inv") ])
      ("shopper", mesh_shopper)
  with
  | Netcheck.Valid _ -> Alcotest.fail "payB must be blocked"
  | Netcheck.Invalid stuck ->
      let opens =
        List.filter
          (function Network.L_open _ -> true | _ -> false)
          stuck.Netcheck.trace
      in
      Alcotest.(check int) "three opens before the block" 3 (List.length opens)

let suite =
  suite
  @ [
      Alcotest.test_case "mesh: good plan" `Quick test_mesh_good_plan;
      Alcotest.test_case "mesh: failure taxonomy" `Quick test_mesh_failures;
      Alcotest.test_case "mesh: unique valid plan" `Quick test_mesh_unique_valid;
      Alcotest.test_case "mesh: runs clean" `Quick test_mesh_runs_clean;
      Alcotest.test_case "mesh: sessions in sequence" `Quick
        test_mesh_sequence_of_sessions;
      Alcotest.test_case "mesh: policy reaches grandchild" `Quick
        test_mesh_policy_reaches_grandchild;
    ]
