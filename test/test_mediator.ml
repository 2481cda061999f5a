(* The mediator tier: synthesis heals every Mismatched pair into a
   strictly verified triple (security is never loosened), the provably
   unmediable witness declines with a concrete trace, and the repair
   ladder tries direct plan, then coalition, then mediation, in that
   order. *)

open Core
open Mediator

let synth ?(reserved = []) ?(capacity = Synthesis.default_capacity) cb sb =
  let config = { Synthesis.capacity; reserved } in
  Synthesis.synthesize ~config ~client:(Contract.project cb)
    ~service:(Contract.project sb) ()

(* --- every Mismatched pair is non-compliant yet mediable --------------- *)

let test_pairs_mediable () =
  List.iter
    (fun (name, cb, sb) ->
      let c = Contract.project cb and s = Contract.project sb in
      Alcotest.(check bool)
        (name ^ ": directly non-compliant")
        true
        ((Product.survey c s).Product.stuck_states > 0);
      match synth cb sb with
      | Error ce ->
          Alcotest.failf "%s: declined — %a" name Synthesis.pp_counterexample ce
      | Ok m ->
          Alcotest.(check bool)
            (name ^ ": mediated pair strictly compliant")
            true
            ((Product.survey c m.Synthesis.adapter).Product.stuck_states = 0);
          Alcotest.(check bool)
            (name ^ ": independent verifier accepts")
            true
            (Synthesis.verify ~client:c ~service:s m);
          Alcotest.(check bool) (name ^ ": repair steps recorded") true
            (m.Synthesis.steps <> []))
    Scenarios.Mismatched.pairs

(* every repair plan explains itself: at least one step discharges a
   stuck configuration of the direct product *)
let test_steps_discharge_counterexamples () =
  List.iter
    (fun (name, cb, sb) ->
      match synth cb sb with
      | Error _ -> Alcotest.failf "%s: declined" name
      | Ok m ->
          let discharged =
            List.filter_map (fun s -> s.Synthesis.discharges) m.Synthesis.steps
          in
          Alcotest.(check bool)
            (name ^ ": some step discharges a stuck configuration")
            true (discharged <> []);
          List.iter
            (fun (st, reason) ->
              match Product.final_reason st with
              | Some r ->
                  Alcotest.(check bool)
                    (name ^ ": discharged state is genuinely stuck")
                    true (r = reason)
              | None ->
                  Alcotest.fail
                    (name ^ ": discharged state is not stuck at all"))
            discharged)
    Scenarios.Mismatched.pairs

(* the reorder pair is healed by reordering alone — no renames *)
let test_reorder_reorders () =
  match
    synth Scenarios.Mismatched.reorder_client_body
      Scenarios.Mismatched.reorder_service
  with
  | Error _ -> Alcotest.fail "reorder pair declined"
  | Ok m ->
      let repairs = List.map (fun s -> s.Synthesis.repair) m.Synthesis.steps in
      Alcotest.(check bool) "no renames" true
        (List.for_all
           (function Synthesis.Renamed _ -> false | _ -> true)
           repairs);
      Alcotest.(check bool) "a delivery skipped past the buffer" true
        (List.exists
           (function
             | Synthesis.Fed { skipped; _ } -> skipped > 0
             | Synthesis.Delivered { skipped; _ } -> skipped > 0
             | _ -> false)
           repairs)

(* the rename pair is healed by the forced fee→pay rename *)
let test_rename_forced () =
  match
    synth Scenarios.Mismatched.rename_client_body
      Scenarios.Mismatched.rename_service
  with
  | Error _ -> Alcotest.fail "rename pair declined"
  | Ok m ->
      Alcotest.(check bool) "fee renamed to pay" true
        (List.exists
           (function
             | { Synthesis.repair = Synthesis.Renamed { from_ = "fee"; to_ = "pay" }; _ }
               ->
                 true
             | _ -> false)
           m.Synthesis.steps)

(* the same pair under never(fee): the channel is policy-reserved, the
   rename is forbidden, and synthesis must decline — never weaken *)
let test_policy_blocks_rename () =
  match
    synth ~reserved:[ "fee" ] Scenarios.Mismatched.rename_client_body
      Scenarios.Mismatched.rename_service
  with
  | Ok _ -> Alcotest.fail "reserved channel was renamed anyway"
  | Error ce ->
      Alcotest.(check bool) "decline carries a trace" true
        (ce.Synthesis.trace <> [])

(* the witness is unmediable and the decline carries a concrete trace *)
let test_witness_declines () =
  match
    synth Scenarios.Mismatched.witness_client_body
      Scenarios.Mismatched.witness_service
  with
  | Ok _ -> Alcotest.fail "the unmediable witness was mediated"
  | Error ce ->
      Alcotest.(check bool) "nonempty trace" true (ce.Synthesis.trace <> []);
      Alcotest.(check bool) "the decline renders" true
        (String.length (Fmt.str "%a" Synthesis.pp_counterexample ce) > 0)

(* --- the adapter stays inside the §4 fragment -------------------------- *)

let test_adapter_roundtrips () =
  List.iter
    (fun (name, cb, sb) ->
      match synth cb sb with
      | Error _ -> Alcotest.failf "%s: declined" name
      | Ok m ->
          let h = (m.Synthesis.adapter :> Hexpr.t) in
          Alcotest.(check bool)
            (name ^ ": projection of the rendering is the adapter")
            true
            (Contract.equal (Contract.project h) m.Synthesis.adapter))
    Scenarios.Mismatched.pairs

(* --- the repair ladder ------------------------------------------------- *)

let test_ladder_direct_first () =
  (* a valid 1:1 plan exists: the ladder answers Planned and synthesis
     never runs *)
  let repo = Fixture.(services loose [ "ss" ]) in
  let runs () =
    let snap = Obs.Metrics.snapshot () in
    match
      List.assoc_opt "mediator.synthesis.runs" snap.Obs.Metrics.counters
    with
    | Some n -> n
    | None -> 0
  in
  let before = runs () in
  match Repair.analyze repo ~client:("c", Fixture.(client loose "c")) with
  | Repair.Planned r ->
      Alcotest.(check bool) "the 1:1 plan verifies" true
        (Result.is_ok r.Planner.verdict);
      Alcotest.(check bool) "synthesis never ran" true (runs () = before)
  | _ -> Alcotest.fail "expected Planned"

let test_ladder_heals_mismatched () =
  List.iter
    (fun (client, rid, service) ->
      match
        Repair.analyze Scenarios.Mismatched.repo ~client:("c", client)
      with
      | Repair.Mediated m ->
          Alcotest.(check bool) "strict re-verification holds" true
            (Result.is_ok m.Repair.report.Planner.verdict);
          Alcotest.(check (list string)) "the expected service was healed"
            [ service ]
            (List.map (fun h -> h.Repair.service) m.Repair.healed);
          List.iter
            (fun h ->
              Alcotest.(check string) "adapter published under ~med"
                (Fmt.str "%s~med%d" service rid)
                h.Repair.adapter_loc)
            m.Repair.healed
      | v ->
          Alcotest.failf "expected Mediated, got %a" Repair.pp_verdict v)
    [
      (Scenarios.Mismatched.reorder_client, Scenarios.Mismatched.reorder_rid,
       "m_reorder");
      (Scenarios.Mismatched.buffer_client, Scenarios.Mismatched.buffer_rid,
       "m_buffer");
    ]

let test_ladder_declines_witness () =
  match
    Repair.analyze Scenarios.Mismatched.witness_repo
      ~client:("c", Scenarios.Mismatched.witness_client)
  with
  | Repair.Declined
      { mediation = Some (Repair.Unmediable { counterexample; _ }); _ }
    ->
      Alcotest.(check bool) "decline carries the synthesis trace" true
        (counterexample.Synthesis.trace <> [])
  | v -> Alcotest.failf "expected Unmediable decline, got %a" Repair.pp_verdict v

let test_blocked_client_declines () =
  (* rename service only, client under never(fee): unmediable *)
  let repo = [ ("m_rename", Scenarios.Mismatched.rename_service) ] in
  match
    Repair.analyze repo ~client:("c", Scenarios.Mismatched.blocked_client)
  with
  | Repair.Declined { mediation = Some (Repair.Unmediable _); _ } -> ()
  | v -> Alcotest.failf "expected Unmediable decline, got %a" Repair.pp_verdict v

(* --- the property: random permutation pairs ---------------------------- *)

let perm_gen n =
  QCheck.Gen.(shuffle_l (List.init n (fun i -> i + 1)))

let scramble_gen =
  QCheck.Gen.(
    int_range 2 5 >>= fun n ->
    perm_gen n >>= fun p1 ->
    perm_gen n >>= fun p2 -> return (n, p1, p2))

let prop_scrambles_mediable =
  QCheck.Test.make ~count:60 ~name:"scrambled pairs mediate and re-verify"
    (QCheck.make
       ~print:(fun (n, p1, p2) ->
         Fmt.str "n=%d client=%a service=%a" n
           Fmt.(Dump.list int)
           p1
           Fmt.(Dump.list int)
           p2)
       scramble_gen)
    (fun (n, p1, p2) ->
      let chan i = Fmt.str "x%d" i in
      let client =
        Hexpr.seq_all
          (List.map (fun i -> Hexpr.send (chan i)) p1 @ [ Hexpr.recv "done" ])
      in
      let service =
        Hexpr.seq_all
          (List.map (fun i -> Hexpr.recv (chan i)) p2 @ [ Hexpr.send "done" ])
      in
      (* all names reserved: reorders and buffering only, never renames *)
      let reserved = "done" :: List.map chan (List.init n (fun i -> i + 1)) in
      match synth ~reserved ~capacity:(n + 1) client service with
      | Error ce ->
          QCheck.Test.fail_reportf "declined: %a" Synthesis.pp_counterexample
            ce
      | Ok m ->
          let c = Contract.project client and s = Contract.project service in
          Product.compliant c m.Synthesis.adapter
          && Synthesis.verify
               ~config:{ Synthesis.capacity = n + 1; reserved }
               ~client:c ~service:s m)

(* --- mediation vs counterexample depth (B13) ----------------------------- *)

let buffered (m : Synthesis.mediator) =
  List.length
    (List.filter
       (fun (s : Synthesis.step) ->
         match s.Synthesis.repair with Synthesis.Buffered _ -> true | _ -> false)
       m.Synthesis.steps)

(* A reversed pipe of depth n with every name reserved: the only repair
   buffers all n messages and replays them backwards, and the mediated
   triple re-verifies strictly. *)
let test_reversed_pipes () =
  List.iter
    (fun n ->
      let client, service = Scenarios.Mismatched.reversed n in
      let config =
        {
          Synthesis.capacity = n + 1;
          reserved = Scenarios.Mismatched.reversed_channels n;
        }
      in
      match Synthesis.synthesize ~config ~client ~service () with
      | Error ce ->
          Alcotest.failf "reversed %d declined: %a" n
            Synthesis.pp_counterexample ce
      | Ok m ->
          Alcotest.(check int)
            (Fmt.str "reversed %d: every message buffered" n)
            n (buffered m);
          Alcotest.(check bool)
            (Fmt.str "reversed %d re-verifies" n)
            true
            (Synthesis.verify ~config ~client ~service m))
    [ 2; 4; 8; 16 ]

(* A seeded corpus of 200 scrambled pipelines, a quarter of which mute
   the service's closing done!, leaving the client waiting forever. The
   mix is exact: mediation heals every live scramble and declines every
   muted one. *)
let test_scramble_corpus () =
  let rand = Testkit.Rng.make () in
  let gen =
    QCheck.Gen.(
      let* n = int_range 2 5 in
      let* order = shuffle_l (List.init n (fun i -> i + 1)) in
      let* mute = map (fun k -> k = 0) (int_bound 3) in
      return (n, order, mute))
  in
  let muted = ref 0 in
  for _ = 1 to 200 do
    let n, order, mute = QCheck.Gen.generate1 ~rand gen in
    if mute then incr muted;
    let chan i = Fmt.str "x%d" i in
    let client =
      Hexpr.seq_all
        (List.init n (fun i -> Hexpr.send (chan (i + 1))) @ [ Hexpr.recv "done" ])
    in
    let service =
      Hexpr.seq_all
        (List.map (fun i -> Hexpr.recv (chan i)) order
        @ if mute then [] else [ Hexpr.send "done" ])
    in
    let repaired =
      Result.is_ok
        (synth ~reserved:(Scenarios.Mismatched.reversed_channels n)
           ~capacity:(n + 1) client service)
    in
    Alcotest.(check bool)
      (Fmt.str "order %a%s: repaired" Fmt.(Dump.list int) order
         (if mute then ", muted" else ""))
      (not mute) repaired
  done;
  Alcotest.(check bool) "the corpus mutes some scrambles" true (!muted > 0)

let suite =
  [
    Alcotest.test_case "mismatched pairs mediable" `Quick test_pairs_mediable;
    Alcotest.test_case "steps discharge counterexamples" `Quick
      test_steps_discharge_counterexamples;
    Alcotest.test_case "reorder pair reorders" `Quick test_reorder_reorders;
    Alcotest.test_case "rename pair forced" `Quick test_rename_forced;
    Alcotest.test_case "policy blocks rename" `Quick test_policy_blocks_rename;
    Alcotest.test_case "witness declines with trace" `Quick
      test_witness_declines;
    Alcotest.test_case "adapter round-trips through projection" `Quick
      test_adapter_roundtrips;
    Alcotest.test_case "ladder: direct plan first" `Quick
      test_ladder_direct_first;
    Alcotest.test_case "ladder: heals mismatched" `Quick
      test_ladder_heals_mismatched;
    Alcotest.test_case "ladder: witness declines" `Quick
      test_ladder_declines_witness;
    Alcotest.test_case "ladder: policy-blocked client declines" `Quick
      test_blocked_client_declines;
    QCheck_alcotest.to_alcotest prop_scrambles_mediable;
    Alcotest.test_case "reversed pipes buffer every message (B13)" `Quick
      test_reversed_pipes;
    Alcotest.test_case "scrambles: live repaired, muted declined (B13)" `Quick
      test_scramble_corpus;
  ]
