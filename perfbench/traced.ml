(* The traced run: a single-domain replay of a workload's inputs that
   calls each layer's public functions in the order the serving path
   uses them, with Obs.Metrics installed. Every call records one span
   (name, start, end, parent, request id), kept in memory and written to
   spans.tsv at the end. A layer's self time is its spans' duration
   minus the part its child spans cover. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  rid : int;
  name : string;
  start : float;
  stop : float;
}

type tracer = {
  on : bool;
  mutable spans : span list;
  mutable next : int;
  mutable controllers : int;  (** coalitions that yielded a controller *)
}

let tracer on = { on; spans = []; next = 0; controllers = 0 }

(* Run [f] under a span whose name is chosen from its result; [f] gets
   the span's id, to parent the spans it opens. Off, [f] runs bare. *)
let span_by tr ~rid ?(parent = -1) name f =
  if not tr.on then f (-1)
  else begin
    let id = tr.next in
    tr.next <- id + 1;
    let start = Proc.now () in
    let r = f id in
    let stop = Proc.now () in
    tr.spans <- { id; parent; rid; name = name r; start; stop } :: tr.spans;
    r
  end

let span tr ~rid ?parent name f = span_by tr ~rid ?parent (fun _ -> name) f

(* Per span name: (calls, self seconds). *)
let self_times tr =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (s.stop -. s.start
          +. Option.value ~default:0.0 (Hashtbl.find_opt children s.parent)))
    tr.spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        s.stop -. s.start
        -. Option.value ~default:0.0 (Hashtbl.find_opt children s.id)
      in
      let n, t = Option.value ~default:(0, 0.0) (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (n + 1, t +. self))
    tr.spans;
  by_name

let write_spans tr path =
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "id\tparent\trid\tname\tstart_us\tdur_us\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%d\t%d\t%d\t%s\t%.3f\t%.3f\n" s.id s.parent s.rid
            s.name (s.start *. 1e6) ((s.stop -. s.start) *. 1e6))
        (List.rev tr.spans))

(* ---- the serving path -------------------------------------------------- *)

let engine_kind (resp : Broker.response) =
  match resp.Broker.outcome with
  | Broker.Served { cached = true; _ } -> "engine.hit"
  | Broker.Served { cached = false; _ } | Broker.Degraded _ -> "engine.miss"
  | _ -> "engine.other"

(* Replay request lines through [shards] engines in one domain, as a
   shard pool serves them: parse, route, submit + step (broadcasts:
   process on every engine), flush the journal, render the reply. The
   write-ahead hook is the benchmark's own, timed as journal.append.
   Returns the reply lines. *)
let serve_replay tr ~dir ~shards ~repo lines =
  Repr.Cache.clear_all ();
  let journals =
    Array.init shards (fun i ->
        Broker.Journal.create ~hexpr_to_string:Gen.hexpr_to_string ~batch:1
          (Filename.concat dir (Printf.sprintf "traced.journal.%d" i)))
  in
  let submitted = Array.make shards 0 in
  let rid = ref 0 and parent = ref (-1) in
  let engines =
    Array.init shards (fun i ->
        let e = Broker.create repo in
        Broker.set_journal e
          (Some
             (fun ~seq ~level request ->
               span tr ~rid:!rid ~parent:!parent "journal.append" (fun _ ->
                   Broker.Journal.append journals.(i)
                     {
                       Broker.Journal.seq;
                       submit = submitted.(i) - 1;
                       shed = false;
                       rescued = false;
                       level;
                       request;
                     })));
        e)
  in
  let on_engine i id f =
    submitted.(i) <- submitted.(i) + 1;
    parent := id;
    f engines.(i)
  in
  let replies =
    Array.mapi
      (fun k line ->
        rid := k;
        span tr ~rid:k "request" @@ fun root ->
        let request =
          span tr ~rid:k ~parent:root "script.parse" (fun _ ->
              Broker.Script.request_of_line ~hexpr_of_string:Gen.hexpr_of_string
                line)
          |> Result.get_ok
        in
        let owners, resp =
          match Broker.target ~shards request with
          | Broker.Shard i ->
              ( [ i ],
                span_by tr ~rid:k ~parent:root engine_kind (fun id ->
                    on_engine i id (fun e ->
                        match Broker.submit e request with
                        | Some resp -> resp
                        | None -> Option.get (Broker.step e))) )
          | Broker.Broadcast ->
              let resps =
                List.init shards (fun i ->
                    span_by tr ~rid:k ~parent:root engine_kind (fun id ->
                        on_engine i id (fun e -> Broker.process e request)))
              in
              (List.init shards Fun.id, List.hd resps)
        in
        List.iter
          (fun i ->
            span tr ~rid:k ~parent:root "journal.flush" (fun _ ->
                Broker.Journal.flush journals.(i)))
          owners;
        span tr ~rid:k ~parent:root "reply.render" (fun _ ->
            Gates.reply_line ~shards resp))
      lines
  in
  Array.iter Broker.Journal.close journals;
  replies

(* ---- the repair ladder ------------------------------------------------- *)

(* Coalition synthesis plus controller re-verification, as the CLI runs
   them; [true] when every request site got a coalition. *)
let orchestrate tr ~rid ~parent repo client =
  span tr ~rid ~parent "orchestrate" (fun _ ->
      match Orchestration.Orchestrate.synthesize_client repo ~client with
      | Ok o ->
          List.iter
            (fun (c : Orchestration.Orchestrate.coalition) ->
              tr.controllers <- tr.controllers + 1;
              ignore (Orchestration.Controller.verify c.controller))
            o.Orchestration.Orchestrate.coalitions;
          true
      | Error _ -> false)

let heal tr ~rid ~parent repo client =
  span tr ~rid ~parent "mediator.heal" (fun _ ->
      Result.is_ok (Mediator.Repair.heal repo ~client))

(* What `susf plans --mediate` does per client: enumerate plans; with no
   valid one, coalition synthesis; with no coalition, mediator
   synthesis. Returns each client's rung. *)
let ladder tr ~repo clients =
  Repr.Cache.clear_all ();
  List.mapi
    (fun k client ->
      span tr ~rid:k "client" @@ fun root ->
      let reports =
        span tr ~rid:k ~parent:root "planner" (fun _ ->
            Core.Planner.valid_plans ~all:true repo ~client)
      in
      if List.exists (fun r -> Result.is_ok r.Core.Planner.verdict) reports then
        Gen.Plan
      else if orchestrate tr ~rid:k ~parent:root repo client then Gen.Coalition
      else if heal tr ~rid:k ~parent:root repo client then Gen.Mediated
      else Gen.Declined)
    (clients : (string * Core.Hexpr.t) list)

(* Both repair rungs on each client, whatever its plans: what coalition
   and mediator synthesis cost on a serving workload's own clients. *)
let repair_rungs tr ~repo clients =
  List.iteri
    (fun k client ->
      span tr ~rid:k "client" @@ fun root ->
      ignore (orchestrate tr ~rid:k ~parent:root repo client);
      ignore (heal tr ~rid:k ~parent:root repo client))
    clients
