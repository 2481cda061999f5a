(* The orchestration tier: n-party contract automata, most-permissive
   controller synthesis, and the planner fallback — including the
   soundness property of ISSUE 9 (every synthesized controller verifies
   against the original parties; declines carry a concrete,
   replayable counterexample) and the Theorem 1 reduction when the
   parties happen to be two. *)

open Core
open Orchestration
module Repair = Mediator.Repair

(* Replay a counterexample trace through the full product and confirm it
   lands on the advertised stuck state, which is concretely stuck for
   the advertised reason. *)
let check_counterexample (ce : Controller.counterexample) =
  let a = ce.Controller.automaton in
  let step s (m : Automaton.move) =
    match
      List.find_opt
        (fun ((m' : Automaton.move), _) ->
          m'.sender = m.sender && m'.receiver = m.receiver
          && String.equal m'.channel m.channel)
        (Automaton.moves a s)
    with
    | Some (_, j) -> j
    | None -> Alcotest.fail "counterexample trace is not a product run"
  in
  let final = List.fold_left step 0 ce.Controller.trace in
  Alcotest.(check int) "trace reaches the stuck state" ce.Controller.stuck final;
  Alcotest.(check bool) "stuck state is not successful" false
    (Automaton.client_done a final);
  match ce.Controller.reason with
  | Controller.Deadlock ->
      Alcotest.(check int) "deadlock: no match enabled" 0
        (List.length (Automaton.moves a final))
  | Controller.Unmatched_offer { party; channel } ->
      Alcotest.(check bool) "the party does offer the channel" true
        (List.exists
           (fun (p, ch) -> p = party && String.equal ch channel)
           (Automaton.offers a final));
      Alcotest.(check bool) "and nobody can receive it" false
        (List.exists
           (fun ((m : Automaton.move), _) ->
             m.sender = party && String.equal m.channel channel)
           (Automaton.moves a final))
  | Controller.Starved ->
      (* not locally stuck: matches remain, none leads anywhere the
         client progresses *)
      Alcotest.(check bool) "starved: some match is still enabled" true
        (Automaton.moves a final <> [])

(* --- supply chains ---------------------------------------------------- *)

let test_supply_chain_synthesizes () =
  List.iter
    (fun parties ->
      let repo, client = Testkit.Supply_chain.chain ~parties in
      (* no 1:1 plan exists: every stage needs its downstream *)
      Alcotest.(check int)
        (Fmt.str "no valid 1:1 plan (%d parties)" parties)
        0
        (List.length (Planner.valid_plans ~all:false repo ~client));
      match Repair.analyze repo ~client with
      | Repair.Orchestrated { coalitions = [ c ]; _ } ->
          Alcotest.(check int) "request id" Testkit.Supply_chain.rid
            c.Orchestrate.rid;
          Alcotest.(check int)
            (Fmt.str "coalition spans the whole chain (%d parties)" parties)
            (parties - 1)
            (List.length c.Orchestrate.members);
          (match Controller.verify c.Orchestrate.controller with
          | Ok () -> ()
          | Error e -> Alcotest.fail ("controller fails verification: " ^ e));
          (* B12: the chain is linear, so nothing is pruned — the
             controller is the whole product, the 2(k-1)-match
             conversation through 2k-1 states *)
          let ctrl = c.Orchestrate.controller in
          Alcotest.(check int)
            (Fmt.str "chain of %d: linear controller (B12)" parties)
            ((2 * parties) - 1)
            ctrl.Controller.states;
          Alcotest.(check int) "nothing pruned"
            (Automaton.size ctrl.Controller.automaton)
            ctrl.Controller.states
      | v ->
          Alcotest.failf "expected an orchestration: %a" Repair.pp_verdict
            v)
    [ 3; 4; 5; 6 ]

let test_supply_chain_broken_declines () =
  List.iter
    (fun parties ->
      let repo, client = Testkit.Supply_chain.broken ~parties in
      Alcotest.(check bool) "no valid 1:1 plan" true
        (Option.is_none (Planner.first_valid repo ~client));
      match Repair.climb ~mediate:false repo ~client with
      | Repair.Declined
          { coalition = Orchestrate.No_controller { rid; counterexample; _ }; _ }
        ->
          Alcotest.(check int) "request id" Testkit.Supply_chain.rid rid;
          Alcotest.(check bool) "the trace walks down the chain" true
            (List.length counterexample.Controller.trace > 0);
          check_counterexample counterexample
      | v ->
          Alcotest.failf "expected a decline: %a" Repair.pp_verdict v)
    [ 3; 4; 5; 6 ]

(* --- marketplace ------------------------------------------------------ *)

let test_marketplace_coalition () =
  match
    Repair.analyze
      (Syntax.Spec.repo Fixture.marketplace)
      ~client:("buyer", Fixture.(client marketplace "buyer"))
  with
  | Repair.Orchestrated { coalitions = [ c ]; _ } -> (
      Alcotest.(check (list string))
        "the sound seller and the escrow, not the rogue"
        [ "seller"; "escrow" ] c.Orchestrate.members;
      match Controller.verify c.Orchestrate.controller with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("controller fails verification: " ^ e))
  | v -> Alcotest.failf "expected an orchestration: %a" Repair.pp_verdict v

let test_marketplace_no_escrow_declines () =
  let repo = Fixture.(services marketplace [ "seller"; "rogue" ])
  and client = ("buyer", Fixture.(client marketplace "buyer")) in
  Alcotest.(check bool) "no valid 1:1 plan" true
    (Option.is_none (Planner.first_valid repo ~client));
  match Repair.climb ~mediate:false repo ~client with
  | Repair.Declined
      { coalition = Orchestrate.No_controller { counterexample; _ }; _ } -> (
      check_counterexample counterexample;
      match counterexample.Controller.reason with
      | Controller.Unmatched_offer { party = 0; channel = "pay" } -> ()
      | r ->
          Alcotest.failf "expected the buyer's pay to be unmatched: %a"
            (Controller.pp_reason
               ~names:
                 (Array.map
                    (fun p -> p.Automaton.name)
                    (Automaton.parties counterexample.Controller.automaton)))
            r)
  | v -> Alcotest.failf "expected a decline: %a" Repair.pp_verdict v

(* The most-permissive-controller showcase: with a rogue seller in the
   session the controller must never route the rfq to it; with two sound
   sellers both routings survive. *)
let test_marketplace_pruning () =
  let party name contract = { Automaton.name; contract } in
  let proj = Contract.project in
  let service name = proj Fixture.(service marketplace name) in
  let buyer =
    match Hexpr.node Fixture.(client marketplace "buyer") with
    | Hexpr.Open (_, body) -> proj body
    | _ -> Alcotest.fail "the buyer opens one session"
  in
  let four =
    Automaton.build
      [
        party "buyer" buyer;
        party "seller" (service "seller");
        party "rogue" (service "rogue");
        party "escrow" (service "escrow");
      ]
  in
  (match Controller.synthesize four with
  | Error _ -> Alcotest.fail "controller should exist around the rogue"
  | Ok ctrl ->
      (match Controller.verify ctrl with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("controller fails verification: " ^ e));
      Alcotest.(check bool) "the rogue's states are pruned" true
        (ctrl.Controller.states < Automaton.size four);
      for s = 0 to Automaton.size four - 1 do
        List.iter
          (fun ((m : Automaton.move), _) ->
            if String.equal m.channel "rfq" && m.receiver = 2 then
              Alcotest.fail "the controller routed the rfq to the rogue")
          ctrl.Controller.edges.(s)
      done);
  let competing =
    Automaton.build
      [
        party "buyer" buyer;
        party "seller_a" (service "seller");
        party "seller_b" (service "seller");
        party "escrow" (service "escrow");
      ]
  in
  match Controller.synthesize competing with
  | Error _ -> Alcotest.fail "controller should exist for competing sellers"
  | Ok ctrl ->
      let initial_rfq_routes =
        List.filter_map
          (fun ((m : Automaton.move), _) ->
            if String.equal m.channel "rfq" then Some m.receiver else None)
          ctrl.Controller.edges.(0)
      in
      Alcotest.(check (list int))
        "most-permissive: both sellers stay routable" [ 1; 2 ]
        (List.sort compare initial_rfq_routes)

(* --- planner fallback ordering (satellite) ---------------------------- *)

let test_fallback_ordering () =
  let client = ("c1", Scenarios.Hotel.client1) in
  let reports = Planner.valid_plans Scenarios.Hotel.repo ~client in
  (* the 1-based position of the first valid plan in enumeration order *)
  let rec position i = function
    | [] -> Alcotest.fail "hotel c1 has no valid plan"
    | (r : Planner.report) :: rest ->
        if Result.is_ok r.Planner.verdict then i else position (i + 1) rest
  in
  let first_valid = position 1 reports in
  Obs.Metrics.install ();
  Fun.protect ~finally:Obs.Metrics.uninstall @@ fun () ->
  (match Repair.analyze Scenarios.Hotel.repo ~client with
  | Repair.Planned r ->
      Alcotest.(check bool) "the 1:1 plan is valid" true
        (Result.is_ok r.Planner.verdict)
  | v ->
      Alcotest.failf "expected the 1:1 plan to win: %a" Repair.pp_verdict
        v);
  let snap = Obs.Metrics.snapshot () in
  let counter name =
    Option.value ~default:0 (List.assoc_opt name snap.Obs.Metrics.counters)
  in
  Alcotest.(check int)
    "orchestration.synthesis.runs untouched when a 1:1 plan exists" 0
    (counter "orchestration.synthesis.runs");
  Alcotest.(check bool) "plans follow the first valid one" true
    (first_valid < List.length reports);
  Alcotest.(check int) "analysis stops at the first valid plan" first_valid
    (counter "planner.analyze.calls");
  (* and the converse: with no 1:1 plan the synthesis tier does run *)
  let repo, client = Testkit.Supply_chain.chain ~parties:3 in
  (match Repair.analyze repo ~client with
  | Repair.Orchestrated _ -> ()
  | v -> Alcotest.failf "expected an orchestration: %a" Repair.pp_verdict v);
  let snap = Obs.Metrics.snapshot () in
  let counter name =
    Option.value ~default:0 (List.assoc_opt name snap.Obs.Metrics.counters)
  in
  Alcotest.(check bool) "synthesis ran for the chain" true
    (counter "orchestration.synthesis.runs" > 0)

(* --- two parties reduce to Theorem 1 ---------------------------------- *)

let contract_pair_arb =
  QCheck.make
    ~print:(fun (a, b) ->
      Fmt.str "%a / %a" Contract.pp a Contract.pp b)
    QCheck.Gen.(pair Testkit.Generators.contract_gen Testkit.Generators.contract_gen)

let prop_two_party_theorem1 =
  QCheck.Test.make ~name:"2-party controller exists iff strictly compliant"
    ~count:400 contract_pair_arb (fun (c, s) ->
      let controller =
        Controller.synthesize
          (Automaton.build
             [
               { Automaton.name = "client"; contract = c };
               { Automaton.name = "server"; contract = s };
             ])
      in
      Result.is_ok controller = Product.compliant c s)

(* --- soundness over generated multi-party corpora --------------------- *)

let parties_arb =
  let gen =
    QCheck.Gen.(
      let* n = int_range 3 5 in
      let small = sized_size (int_bound 6) Testkit.Generators.contract_gen_sized in
      let* cs = flatten_l (List.init n (fun _ -> small)) in
      return cs)
  in
  QCheck.make
    ~print:(fun cs ->
      Fmt.str "%a" Fmt.(list ~sep:(any " | ") Contract.pp) cs)
    gen

let prop_synthesis_sound =
  QCheck.Test.make
    ~name:"synthesized controllers verify; declines replay concretely"
    ~count:300 parties_arb (fun cs ->
      let parties =
        List.mapi
          (fun i c -> { Automaton.name = Fmt.str "p%d" i; contract = c })
          cs
      in
      let a = Automaton.build ~limit:50_000 parties in
      match Controller.synthesize a with
      | Ok ctrl -> (
          match Controller.verify ctrl with
          | Ok () -> true
          | Error e -> QCheck.Test.fail_report e)
      | Error ce ->
          check_counterexample ce;
          true)

(* --- the client-progress rule ------------------------------------------ *)

(* Two members looping on p while the client waits for z: nothing is
   locally stuck, yet the client never moves. Synthesis declines with a
   starvation counterexample, and [verify] refuses a hand-made
   controller that keeps the loop. *)
let test_starving_coalition () =
  let party name src =
    {
      Automaton.name;
      contract = Contract.project (Syntax.Parser.hexpr_of_string src);
    }
  in
  let a =
    Automaton.build
      [ party "c" "z?"; party "loop_out" "mu h. p!.h"; party "loop_in" "mu h. p?.h" ]
  in
  (match Controller.synthesize a with
  | Ok _ -> Alcotest.fail "a loop without the client was accepted"
  | Error ce -> (
      check_counterexample ce;
      match ce.Controller.reason with
      | Controller.Starved -> ()
      | _ -> Alcotest.fail "expected a starvation counterexample"));
  let n = Automaton.size a in
  let keep_all =
    {
      Controller.automaton = a;
      good = Array.make n true;
      edges = Array.init n (Automaton.moves a);
      states = n;
      transitions = 1;
    }
  in
  match Controller.verify keep_all with
  | Ok () -> Alcotest.fail "verify accepted a starving controller"
  | Error e ->
      Alcotest.(check bool) "verify names the starvation" true
        (Astring.String.is_infix ~affix:"starves" e)

(* A client that may send b forever to a member that loops back, or d
   into a dead end. The start is condemned by its d offer while its b
   offer loops back to it: the counterexample must follow d, to a state
   condemned earlier, and not b back to the start, which would never
   end. *)
let test_counterexample_descends () =
  let party name src =
    {
      Automaton.name;
      contract = Contract.project (Syntax.Parser.hexpr_of_string src);
    }
  in
  let a =
    Automaton.build
      [
        party "p0" "mu h. (b!.h (+) d!.h)";
        party "p1" "eps";
        party "p2" "mu h. (b?.h + c?.h + d?.(c! (+) d!.h))";
      ]
  in
  match Controller.synthesize a with
  | Ok _ -> Alcotest.fail "a dead-end offer was accepted"
  | Error ce ->
      check_counterexample ce;
      Alcotest.(check int) "one match, then stuck" 1
        (List.length ce.Controller.trace)

let suite =
  [
    Alcotest.test_case "supply chains 3-6 synthesize and verify" `Quick
      test_supply_chain_synthesizes;
    Alcotest.test_case "broken chains decline with a concrete trace" `Quick
      test_supply_chain_broken_declines;
    Alcotest.test_case "marketplace coalition" `Quick test_marketplace_coalition;
    Alcotest.test_case "marketplace without escrow declines" `Quick
      test_marketplace_no_escrow_declines;
    Alcotest.test_case "rogue pruning is most-permissive" `Quick
      test_marketplace_pruning;
    Alcotest.test_case "1:1 plans win before synthesis (metrics pin)" `Quick
      test_fallback_ordering;
    QCheck_alcotest.to_alcotest prop_two_party_theorem1;
    QCheck_alcotest.to_alcotest prop_synthesis_sound;
    Alcotest.test_case "a loop without the client starves it" `Quick
      test_starving_coalition;
    Alcotest.test_case "counterexamples descend past a self-loop" `Quick
      test_counterexample_descends;
  ]
