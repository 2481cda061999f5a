(* An e-commerce marketplace (examples/data/ecommerce.susf): a shopper
   buys through a marketplace that delegates payment to one of three
   providers. The shopper imposes a spending-limit policy on the whole
   (nested) session; a second variant additionally wraps itself in an
   authenticate-before-charge framing — layered policies across session
   boundaries, which the paper's history-dependent validity handles for
   free. Ends with a cost-aware plan selection (the quantitative
   extension). Run from the repository root. *)

open Core

let pf = Format.printf
let spec = Syntax.Parser.spec_of_file "examples/data/ecommerce.susf"
let repo = Syntax.Spec.repo spec
let client name = Option.get (Syntax.Spec.find_client spec name)
let plan name = Option.get (Syntax.Spec.find_plan spec name)
let shopper = client "shopper"
let careful_shopper = client "careful_shopper"

let () =
  pf "== services ==@.";
  List.iter (fun (l, h) -> pf "  %s = %a@." l Hexpr.pp h) repo;

  pf "@.== plans for the shopper (spend(100)) ==@.";
  List.iter
    (fun r -> pf "  %a@." Planner.pp_report r)
    (Planner.valid_plans repo ~client:("shopper", shopper));

  pf "@.== plans for the careful shopper (auth_first[spend(100)]) ==@.";
  List.iter
    (fun r -> pf "  %a@." Planner.pp_report r)
    (Planner.valid_plans repo ~client:("carol", careful_shopper));

  (* bravo fails the plain shopper on the spending limit; with a lax
     limit it still fails the careful shopper on authentication *)
  pf "@.== with a higher limit, authentication still matters ==@.";
  let r = Planner.analyze repo ~client:("lax", client "lax") (plan "lax") in
  pf "  %a@." Planner.pp_report r;

  pf "@.== a full run (careful shopper via alpha) ==@.";
  let t =
    Simulate.run repo
      (Network.initial ~plan:(plan "careful")
         [ ("carol", careful_shopper) ])
      (Simulate.random ~seed:11)
  in
  Simulate.pp_trace_compact Fmt.stdout t;
  (match t.Simulate.final with
  | [ c ] ->
      pf "carol's history: %a@." History.pp
        (Validity.Monitor.history c.Network.monitor)
  | _ -> ());

  (* the quantitative extension: pick the cheapest valid plan when
     charges are billed at face value *)
  pf "@.== cost-aware planning ==@.";
  let model = Quant.Model.of_list [ ("charge", 1.0); ("auth", 0.1) ] in
  match Quant.Plan_cost.cheapest repo ~client:("shopper", shopper) model with
  | Some priced -> pf "  cheapest: %a@." Quant.Plan_cost.pp_priced priced
  | None -> pf "  no valid plan@."
