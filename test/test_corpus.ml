(* Data-driven regression corpus: every [.susf] file under [corpus/],
   and every one under [examples/data/] that has them, carries
   machine-checked expectations in its comments.

   - [// EXPECT-CHECK <client> <plan> <verdict>]
     runs the planner ([analyze]) and compares the verdict
     (valid | not-compliant | insecure | unserved);
   - [// EXPECT-VALIDITY <client-or-service> <valid|invalid>]
     checks stand-alone static validity (both engines must agree);
   - [// EXPECT-EFFECT <program> <client>]
     the program's inferred, normalised effect must be exactly the named
     client's history expression;
   - [// EXPECT-FAILOVER <client> <plan> <crashloc> <newloc|degraded>]
     crashes <crashloc> right after the client binds it and checks that
     the fault-tolerant runtime re-binds to <newloc> and completes (or
     reports a Degraded outcome when no compliant substitute exists);
   - [// EXPECT-ORCHESTRATE <client> <declined|m1,m2,...>]
     climbs the repair ladder to its coalition rung (no valid 1:1
     plan, then [Repair.climb ~mediate:false]): either no
     orchestrator exists, or the coalitions' members, in site order,
     are exactly m1,m2,... and every controller re-verifies;
   - [// EXPECT-MEDIATE <client> <declined|loc1,loc2,...>]
     climbs the whole ladder (no valid 1:1 plan, then
     [Repair.climb ~mediate:true]): either it declines, and so does the
     broker's mediate verb, or the client is mediated with the services
     bound at its sites, in site order, exactly loc1,loc2,.... *)

open Core

let corpus_dir = "corpus"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let expectations src =
  String.split_on_char '\n' src
  |> List.filter_map (fun line ->
         let line = String.trim line in
         match String.split_on_char ' ' line with
         | "//" :: "EXPECT-CHECK" :: client :: plan :: verdict :: [] ->
             Some (`Check (client, plan, verdict))
         | "//" :: "EXPECT-VALIDITY" :: name :: verdict :: [] ->
             Some (`Validity (name, verdict))
         | "//" :: "EXPECT-EFFECT" :: program :: client :: [] ->
             Some (`Effect (program, client))
         | "//" :: "EXPECT-FAILOVER" :: client :: plan :: crashloc :: target
           :: [] ->
             Some (`Failover (client, plan, crashloc, target))
         | "//" :: "EXPECT-ORCHESTRATE" :: client :: verdict :: [] ->
             Some (`Orchestrate (client, verdict))
         | "//" :: "EXPECT-MEDIATE" :: client :: verdict :: [] ->
             Some (`Mediate (client, verdict))
         | _ -> None)

let verdict_string (r : Planner.report) =
  match r.Planner.verdict with
  | Ok _ -> "valid"
  | Error (Planner.Not_compliant _) -> "not-compliant"
  | Error (Planner.Insecure _) -> "insecure"
  | Error (Planner.Unserved _) -> "unserved"
  | Error (Planner.Outside_fragment _) -> "outside-fragment"

let lookup_expr spec name =
  match Syntax.Spec.find_client spec name with
  | Some h -> h
  | None -> (
      match List.assoc_opt name (Syntax.Spec.repo spec) with
      | Some h -> h
      | None -> Alcotest.failf "unknown client or service %s" name)

let run_file path () =
  let src = read_file path in
  let spec = Syntax.Parser.spec_of_string src in
  let expected = expectations src in
  Alcotest.(check bool)
    (path ^ " has expectations") true (expected <> []);
  List.iter
    (function
      | `Check (client, plan, verdict) ->
          let h = lookup_expr spec client in
          let p =
            match Syntax.Spec.find_plan spec plan with
            | Some p -> p
            | None -> Alcotest.failf "unknown plan %s" plan
          in
          let r = Planner.analyze (Syntax.Spec.repo spec) ~client:(client, h) p in
          Alcotest.(check string)
            (Printf.sprintf "%s: %s under %s" path client plan)
            verdict (verdict_string r)
      | `Validity (name, verdict) ->
          let h = lookup_expr spec name in
          let direct = Result.is_ok (Validity.check_expr h) in
          let bpa = Result.is_ok (Bpa.Check.valid h) in
          Alcotest.(check bool)
            (Printf.sprintf "%s: engines agree on %s" path name)
            true (direct = bpa);
          Alcotest.(check string)
            (Printf.sprintf "%s: validity of %s" path name)
            verdict
            (if direct then "valid" else "invalid")
      | `Failover (client, plan, crashloc, target) -> (
          let h = lookup_expr spec client in
          let p =
            match Syntax.Spec.find_plan spec plan with
            | Some p -> p
            | None -> Alcotest.failf "unknown plan %s" plan
          in
          let repo = Syntax.Spec.repo spec in
          (* find the step that binds the doomed service, then crash it
             one step later: mid-session *)
          let plain =
            Simulate.run repo
              (Network.initial ~plan:p [ (client, h) ])
              Simulate.first
          in
          let crash_at =
            match
              List.mapi (fun i (g, _) -> (i, g)) plain.Simulate.steps
              |> List.find_map (fun (i, g) ->
                     match g with
                     | Network.L_open (_, _, l) when String.equal l crashloc ->
                         Some (i + 1)
                     | _ -> None)
            with
            | Some k -> k
            | None ->
                Alcotest.failf "%s: %s never binds %s under %s" path client
                  crashloc plan
          in
          let r =
            Runtime.Engine.run
              ~faults:[ Runtime.Faults.at crash_at (Runtime.Faults.Crash crashloc) ]
              repo
              [ (p, (client, h)) ]
              Simulate.first
          in
          let rebound_to =
            List.filter_map
              (fun (_, ev) ->
                match ev with
                | Runtime.Engine.Recovery (Runtime.Engine.Rebound { to_; _ }) ->
                    Some to_
                | _ -> None)
              r.Runtime.Engine.events
          in
          match (target, r.Runtime.Engine.trace.Simulate.outcome) with
          | "degraded", Simulate.Degraded _ ->
              Alcotest.(check (list string))
                (Printf.sprintf "%s: no rebind for %s" path client)
                [] rebound_to
          | "degraded", o ->
              Alcotest.failf "%s: expected a degraded outcome, got %a" path
                Simulate.pp_outcome o
          | newloc, Simulate.Completed ->
              Alcotest.(check (list string))
                (Printf.sprintf "%s: %s fails over %s -> %s" path client
                   crashloc newloc)
                [ newloc ] rebound_to
          | newloc, o ->
              Alcotest.failf "%s: expected completion via %s, got %a" path
                newloc Simulate.pp_outcome o)
      | `Orchestrate (client, expected) ->
          let h = lookup_expr spec client in
          let repo = Syntax.Spec.repo spec in
          let got =
            if Option.is_some (Planner.first_valid repo ~client:(client, h))
            then "planned"
            else
              match
                Mediator.Repair.climb ~mediate:false repo ~client:(client, h)
              with
              | Mediator.Repair.Declined _ -> "declined"
              | Mediator.Repair.Planned _ | Mediator.Repair.Mediated _ ->
                  Alcotest.failf "%s: %s climbed past the coalition rung" path
                    client
              | Mediator.Repair.Orchestrated o ->
                  List.iter
                    (fun (c : Orchestration.Orchestrate.coalition) ->
                      match Orchestration.Controller.verify c.controller with
                      | Ok () -> ()
                      | Error e ->
                          Alcotest.failf "%s: %s controller fails: %s" path
                            client e)
                    o.Orchestration.Orchestrate.coalitions;
                  List.concat_map
                    (fun (c : Orchestration.Orchestrate.coalition) -> c.members)
                    o.Orchestration.Orchestrate.coalitions
                  |> String.concat ","
          in
          Alcotest.(check string)
            (Printf.sprintf "%s: orchestration of %s" path client)
            expected got
      | `Mediate (client, expected) ->
          let h = lookup_expr spec client in
          let repo = Syntax.Spec.repo spec in
          let got =
            if Option.is_some (Planner.first_valid repo ~client:(client, h))
            then "planned"
            else
              match
                Mediator.Repair.climb ~mediate:true repo ~client:(client, h)
              with
              | Mediator.Repair.Declined _ -> "declined"
              | Mediator.Repair.Planned _ -> "planned"
              | Mediator.Repair.Orchestrated _ -> "orchestrated"
              | Mediator.Repair.Mediated m ->
                  let bound =
                    List.map
                      (fun (hd : Mediator.Repair.healed) ->
                        (hd.rid, hd.service))
                      m.Mediator.Repair.healed
                    @ m.Mediator.Repair.direct
                  in
                  Planner.client_sites (client, h)
                  |> List.map (fun (s : Planner.site) ->
                         List.assoc s.Planner.req.Hexpr.rid bound)
                  |> String.concat ","
          in
          Alcotest.(check string)
            (Printf.sprintf "%s: mediation of %s" path client)
            expected got;
          if expected = "declined" then begin
            let b = Broker.create repo in
            ignore (Broker.process b (Broker.Open { client; body = h }));
            match
              (Broker.process b (Broker.Mediate { client })).Broker.outcome
            with
            | Broker.Rejected _ -> ()
            | o ->
                Alcotest.failf "%s: the broker's mediate %s answered %a" path
                  client Broker.pp_outcome o
          end
      | `Effect (program, client) -> (
          let t =
            match Syntax.Spec.find_program spec program with
            | Some t -> t
            | None -> Alcotest.failf "unknown program %s" program
          in
          let expected_effect = lookup_expr spec client in
          match Lambda_sec.Infer.infer [] t with
          | Error e ->
              Alcotest.failf "%s: %s does not type: %a" path program
                Lambda_sec.Infer.pp_error e
          | Ok (_, eff) ->
              Alcotest.check
                (Alcotest.testable Hexpr.pp Hexpr.equal)
                (Printf.sprintf "%s: effect of %s" path program)
                expected_effect (Hexpr.normalize eff)))
    expected

(* every corpus file, and the shipped examples that state expectations *)
let suite =
  let specs dir =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".susf")
    |> List.sort compare
    |> List.map (Filename.concat dir)
  in
  specs corpus_dir
  @ List.filter
      (fun path -> expectations (read_file path) <> [])
      (specs "../examples/data")
  |> List.map (fun path ->
         Alcotest.test_case (Filename.basename path) `Quick (run_file path))
