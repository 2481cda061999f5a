open Core

(* Mediator synthesis (the repair program of "Orchestrated Session
   Compliance"): given a non-compliant contract pair, build a minimal
   bounded-buffer adapter that stands between client and service. The
   adapter may

   - {e buffer} a client output the service cannot take yet (one FIFO
     per direction, bounded by [config.capacity]);
   - {e reorder} independent exchanges — a delivery may skip over
     buffered messages the receiver is not ready for;
   - {e rename} an action, but only when the correspondence is forced
     (exactly one buffered message against exactly one expected input)
     and the usage policy permits it — channel names that coincide with
     an event name watched by any policy in scope are {e reserved} and
     never renamed, so a repair can never trade away an obligation the
     security check depends on.

   The synthesis walks the mediated configuration space
   (client, service, buffers) with one deterministic strategy (drain
   the service eagerly, deliver first-deliverable-first) and extracts
   the client-facing adapter as a {!Core.Contract.t} of the §4
   fragment, which reads back as the history expression
   [(adapter :> Hexpr.t)], so the mediated triple re-verifies through
   the unchanged strict pipeline. Every repair step performed at a
   configuration whose underlying direct pair is a stuck configuration
   of [H₁ ⊗ H₂] records that counterexample as {e discharged}. *)

type config = { capacity : int; reserved : string list }

let default_capacity = 4
let default_config = { capacity = default_capacity; reserved = [] }

type repair =
  | Forwarded of { channel : string }
  | Buffered of { channel : string }
  | Fed of { channel : string; skipped : int }
  | Absorbed of { channel : string }
  | Delivered of { channel : string; skipped : int }
  | Renamed of { from_ : string; to_ : string }

type step = {
  repair : repair;
  discharges : (Product.state * Product.stuck_reason) option;
}

type mediator = {
  adapter : Contract.t;
  steps : step list;
  states : int;  (** mediated configurations explored *)
  capacity : int;
}

type stuck =
  | Undeliverable of { waiting : string list }
  | Overflow of { channel : string }
  | Unmergeable of { channels : string list }

type counterexample = {
  trace : string list;
  client : Contract.t;
  service : Contract.t;
  client_buffer : string list;
  service_buffer : string list;
  reason : stuck;
}

exception Stuck of counterexample

(* ---- pretty-printing -------------------------------------------------- *)

let pp_repair ppf = function
  | Forwarded { channel } -> Fmt.pf ppf "forward %s" channel
  | Buffered { channel } -> Fmt.pf ppf "buffer %s!" channel
  | Fed { channel; skipped = 0 } -> Fmt.pf ppf "feed %s" channel
  | Fed { channel; skipped } ->
      Fmt.pf ppf "feed %s (reordered past %d)" channel skipped
  | Absorbed { channel } -> Fmt.pf ppf "absorb %s!" channel
  | Delivered { channel; skipped = 0 } -> Fmt.pf ppf "deliver %s" channel
  | Delivered { channel; skipped } ->
      Fmt.pf ppf "deliver %s (reordered past %d)" channel skipped
  | Renamed { from_; to_ } -> Fmt.pf ppf "rename %s -> %s" from_ to_

let pp_step ppf s =
  match s.discharges with
  | None -> pp_repair ppf s.repair
  | Some ((c, sv), reason) ->
      Fmt.pf ppf "%a — discharges stuck ⟨%a, %a⟩ (%a)" pp_repair s.repair
        Contract.pp c Contract.pp sv Product.pp_stuck_reason reason

let pp_stuck ppf = function
  | Undeliverable { waiting } ->
      Fmt.pf ppf "nothing deliverable while the client waits for {%a}"
        Fmt.(list ~sep:(any ", ") string)
        waiting
  | Overflow { channel } ->
      Fmt.pf ppf "buffer full: cannot absorb %s!" channel
  | Unmergeable { channels } ->
      Fmt.pf ppf "service branches {%a} do not map onto client inputs"
        Fmt.(list ~sep:(any ", ") string)
        channels

let pp_counterexample ppf ce =
  Fmt.pf ppf "after [%a]: %a (client %a, service %a, buffers [%a]/[%a])"
    Fmt.(list ~sep:(any "; ") string)
    ce.trace pp_stuck ce.reason Contract.pp ce.client Contract.pp ce.service
    Fmt.(list ~sep:(any ", ") string)
    ce.client_buffer
    Fmt.(list ~sep:(any ", ") string)
    ce.service_buffer

let pp_mediator ppf m =
  Fmt.pf ppf "adapter %a (%d states, %d steps, capacity %d)" Contract.pp
    m.adapter m.states (List.length m.steps) m.capacity

(* ---- the exploration --------------------------------------------------- *)

let split_ready c =
  List.fold_right
    (fun (d, a, k) (ins, outs) ->
      match d with
      | Contract.I -> ((a, k) :: ins, outs)
      | Contract.O -> (ins, (a, k) :: outs))
    (Contract.transitions c) ([], [])

(* remove the [i]-th element *)
let remove_nth i l =
  List.filteri (fun j _ -> j <> i) l

(* first buffered message (FIFO order, skipping allowed) the receiver
   has a direct input for: (position, channel, continuation) *)
let first_match buffer inputs =
  let rec go i = function
    | [] -> None
    | x :: rest -> (
        match List.assoc_opt x inputs with
        | Some k -> Some (i, x, k)
        | None -> go (i + 1) rest)
  in
  go 0 buffer

type state = {
  c : Contract.t;  (* client *)
  s : Contract.t;  (* service *)
  bcs : string list;  (* client -> service buffer, FIFO *)
  bsc : string list;  (* service -> client buffer, FIFO *)
}

let key st = (Contract.id st.c, Contract.id st.s, st.bcs, st.bsc)

let synthesize ?(config = default_config) ~client ~service () =
  Obs.Trace.with_span "mediator.synthesis" @@ fun () ->
  Obs.Metrics.incr "mediator.synthesis.runs";
  let renameable a = not (List.mem a config.reserved) in
  let steps = ref [] in
  let explored = ref 0 in
  let record st repair =
    (* a repair performed where the direct product is stuck discharges
       that very counterexample — [Product.final_reason] is the
       state-local finality predicate of Definition 5 *)
    let discharges =
      match Product.final_reason (st.c, st.s) with
      | Some reason -> Some ((st.c, st.s), reason)
      | None -> None
    in
    steps := { repair; discharges } :: !steps
  in
  (* drain the service to quiescence: feed its inputs from [bcs]
     (first-match-first, renaming only when forced and permitted),
     absorb its deterministic (single-branch) outputs into [bsc].
     Branching outputs are left in place — they are delivered to the
     client as a coupled internal choice by [build]. *)
  let rec drain trace st =
    let ins, outs = split_ready st.s in
    if ins <> [] then
      match first_match st.bcs ins with
      | Some (i, x, k) ->
          record st (Fed { channel = x; skipped = i });
          drain
            (Fmt.str "%s>" x :: trace)
            { st with s = k; bcs = remove_nth i st.bcs }
      | None -> (
          match (st.bcs, ins) with
          | [ x ], [ (a, k) ] when x <> a && renameable x && renameable a ->
              Obs.Metrics.incr "mediator.repairs.renamed";
              record st (Renamed { from_ = x; to_ = a });
              drain (Fmt.str "%s>%s" x a :: trace) { st with s = k; bcs = [] }
          | _ -> (trace, st))
    else
      match outs with
      | [ (a, k) ] when List.length st.bsc < config.capacity ->
          record st (Absorbed { channel = a });
          drain (Fmt.str "<%s" a :: trace) { st with s = k; bsc = st.bsc @ [ a ] }
      | _ -> (trace, st)
  in
  (* build the client-facing adapter for a drained configuration.
     Returns the contract and the set of μ-variables it references
     (back-edges to configurations still on the exploration stack);
     closed results are memoized. *)
  let module S = Set.Make (String) in
  let stack = Hashtbl.create 64 in
  let memo = Hashtbl.create 64 in
  let fresh =
    let n = ref 0 in
    fun () ->
      incr n;
      Fmt.str "m%d" !n
  in
  let rec build trace st =
    let trace, st = drain trace st in
    let k = key st in
    match Hashtbl.find_opt stack k with
    | Some name -> (Contract.var name, S.singleton name)
    | None -> (
        match Hashtbl.find_opt memo k with
        | Some a -> (a, S.empty)
        | None ->
            incr explored;
            let name = fresh () in
            Hashtbl.replace stack k name;
            let body, refs = expand trace st in
            Hashtbl.remove stack k;
            let body =
              if S.mem name refs then Contract.mu name body else body
            in
            let refs = S.remove name refs in
            if S.is_empty refs then Hashtbl.replace memo k body;
            (body, refs))
  and expand trace st =
    if Contract.is_terminated st.c then (Contract.nil, S.empty)
    else
      let c_ins, c_outs = split_ready st.c in
      if c_outs <> [] then begin
        (* the client will internally choose an output: the adapter must
           stand ready to take every branch (an offer is not refusable —
           condition (ii) of Definition 5) *)
        if List.length st.bcs >= config.capacity then
          raise
            (Stuck
               {
                 trace = List.rev trace;
                 client = st.c;
                 service = st.s;
                 client_buffer = st.bcs;
                 service_buffer = st.bsc;
                 reason = Overflow { channel = fst (List.hd c_outs) };
               });
        let branches, refs =
          List.fold_right
            (fun (a, ck) (bs, rs) ->
              Obs.Metrics.incr "mediator.repairs.buffered";
              record st (Buffered { channel = a });
              let sub, r =
                build
                  (Fmt.str "%s!" a :: trace)
                  { st with c = ck; bcs = st.bcs @ [ a ] }
              in
              ((a, sub) :: bs, S.union r rs))
            c_outs ([], S.empty)
        in
        (Contract.branch branches, refs)
      end
      else begin
        (* the client waits: the adapter must output something the
           client accepts — from the service buffer first (skipping =
           reordering), then coupled to the service's own internal
           choice, then a forced rename *)
        match first_match st.bsc c_ins with
        | Some (i, x, ck) ->
            if i > 0 then Obs.Metrics.incr "mediator.repairs.reordered";
            record st (Delivered { channel = x; skipped = i });
            let sub, refs =
              build
                (Fmt.str "%s?" x :: trace)
                { st with c = ck; bsc = remove_nth i st.bsc }
            in
            (Contract.select [ (x, sub) ], refs)
        | None -> (
            let _, s_outs = split_ready st.s in
            let stuck reason =
              raise
                (Stuck
                   {
                     trace = List.rev trace;
                     client = st.c;
                     service = st.s;
                     client_buffer = st.bcs;
                     service_buffer = st.bsc;
                     reason;
                   })
            in
            if s_outs <> [] then begin
              (* couple the service's internal choice to the delivery:
                 every branch must land on a client input (renaming only
                 when forced), or the choice cannot be mediated *)
              let mapped =
                List.map
                  (fun (a, sk) ->
                    if List.mem_assoc a c_ins then Some (a, a, sk)
                    else
                      match (s_outs, c_ins) with
                      | [ _ ], [ (b, _) ] when renameable a && renameable b ->
                          Some (a, b, sk)
                      | _ -> None)
                  s_outs
              in
              if List.exists (fun o -> o = None) mapped then
                stuck (Unmergeable { channels = List.map fst s_outs })
              else
                let mapped = List.filter_map Fun.id mapped in
                let targets = List.map (fun (_, b, _) -> b) mapped in
                if
                  List.length (List.sort_uniq String.compare targets)
                  <> List.length targets
                then stuck (Unmergeable { channels = List.map fst s_outs })
                else
                  let branches, refs =
                    List.fold_right
                      (fun (a, b, sk) (bs, rs) ->
                        (if a = b then record st (Forwarded { channel = a })
                         else begin
                           Obs.Metrics.incr "mediator.repairs.renamed";
                           record st (Renamed { from_ = a; to_ = b })
                         end);
                        let ck = List.assoc b c_ins in
                        let sub, r =
                          build (Fmt.str "%s?" b :: trace)
                            { st with c = ck; s = sk }
                        in
                        ((b, sub) :: bs, S.union r rs))
                      mapped ([], S.empty)
                  in
                  (Contract.select branches, refs)
            end
            else
              match (st.bsc, c_ins) with
              | [ x ], [ (b, ck) ] when x <> b && renameable x && renameable b
                ->
                  Obs.Metrics.incr "mediator.repairs.renamed";
                  record st (Renamed { from_ = x; to_ = b });
                  let sub, refs =
                    build (Fmt.str "%s?%s" x b :: trace)
                      { st with c = ck; bsc = [] }
                  in
                  (Contract.select [ (b, sub) ], refs)
              | _ -> stuck (Undeliverable { waiting = List.map fst c_ins }))
      end
  in
  let init = { c = client; s = service; bcs = []; bsc = [] } in
  match build [] init with
  | adapter, _ ->
      Obs.Metrics.add "mediator.synthesis.states" !explored;
      if Obs.Trace.active () then
        Obs.Trace.add_attr "states" (Obs.Trace.Int !explored);
      (* first occurrence order, duplicates (re-explorations of shared
         configurations) collapsed *)
      let steps =
        List.fold_left
          (fun acc s -> if List.mem s acc then acc else s :: acc)
          []
          (List.rev !steps)
        |> List.rev
      in
      Ok { adapter; steps; states = !explored; capacity = config.capacity }
  | exception Stuck ce ->
      Obs.Metrics.incr "mediator.synthesis.declined";
      if Obs.Trace.active () then
        Obs.Trace.add_attr "verdict" (Obs.Trace.Str "declined");
      Error ce

(* ---- the independent verifier ----------------------------------------- *)

(* Re-walk the mediated triple with the synthesized adapter pinned:
   a graph reachability check (worklist, visited set) over
   (adapter, client, service, buffers) configurations, structurally
   unlike the term extraction above. At every configuration the
   adapter's ready set must agree with the mediation semantics — its
   inputs must cover exactly the client's offers, and each of its
   outputs must be justified by a buffered or service-offered message
   the client accepts. On top of the walk, the client/adapter pair must
   be strictly compliant (Theorem 1). *)
let verify ?(config = default_config) ~client ~service m =
  let renameable a = not (List.mem a config.reserved) in
  if not (Product.compliant client m.adapter) then false
  else begin
    let seen = Hashtbl.create 64 in
    let ok = ref true in
    let rec drain st =
      (* the same deterministic service schedule as synthesis, shared
         semantics re-expressed: feed first match, rename when forced,
         absorb deterministic outputs *)
      let ins, outs = split_ready st.s in
      if ins <> [] then
        match first_match st.bcs ins with
        | Some (i, _, k) -> drain { st with s = k; bcs = remove_nth i st.bcs }
        | None -> (
            match (st.bcs, ins) with
            | [ x ], [ (a, k) ] when x <> a && renameable x && renameable a ->
                drain { st with s = k; bcs = [] }
            | _ -> st)
      else
        match outs with
        | [ (a, k) ] when List.length st.bsc < config.capacity ->
            drain { st with s = k; bsc = st.bsc @ [ a ] }
        | _ -> st
    in
    let rec walk a st =
      let st = drain st in
      let k = (Contract.id a, key st) in
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.replace seen k ();
        if Contract.is_terminated a then begin
          (* the adapter may only stop once the client is satisfied *)
          if not (Contract.is_terminated st.c) then ok := false
        end
        else
          let a_ins, a_outs = split_ready a in
          let c_ins, c_outs = split_ready st.c in
          if a_ins <> [] then begin
            (* adapter inputs = exactly the client's current offers *)
            let offered = List.map fst c_outs |> List.sort String.compare in
            let accepted = List.map fst a_ins |> List.sort String.compare in
            if offered <> accepted || offered = [] then ok := false
            else if List.length st.bcs >= config.capacity then ok := false
            else
              List.iter
                (fun (ch, ak) ->
                  let ck = List.assoc ch c_outs in
                  walk ak { st with c = ck; bcs = st.bcs @ [ ch ] })
                a_ins
          end
          else
            List.iter
              (fun (ch, ak) ->
                (* every adapter output must be a client input and be
                   justified: buffered (delivery, reordering allowed),
                   service-offered (coupled forward), or a forced
                   rename of either *)
                match List.assoc_opt ch c_ins with
                | None -> ok := false
                | Some ck -> (
                    let _, s_outs = split_ready st.s in
                    let justified =
                      let rec from_buffer i = function
                        | [] -> None
                        | x :: rest ->
                            if x = ch then
                              Some { st with c = ck; bsc = remove_nth i st.bsc }
                            else from_buffer (i + 1) rest
                      in
                      match from_buffer 0 st.bsc with
                      | Some st' -> Some st'
                      | None -> (
                          match List.assoc_opt ch s_outs with
                          | Some sk -> Some { st with c = ck; s = sk }
                          | None -> (
                              (* forced rename: a single source against a
                                 single client input *)
                              match (st.bsc, s_outs, c_ins) with
                              | [ x ], [], [ _ ]
                                when x <> ch && renameable x && renameable ch
                                ->
                                  Some { st with c = ck; bsc = [] }
                              | [], [ (x, sk) ], [ _ ]
                                when x <> ch && renameable x && renameable ch
                                ->
                                  Some { st with c = ck; s = sk }
                              | _ -> None))
                    in
                    match justified with
                    | None -> ok := false
                    | Some st' -> walk ak st'))
              a_outs
      end
    in
    walk m.adapter { c = client; s = service; bcs = []; bsc = [] };
    !ok
  end
