(* The sharded broker: N full engines, each served by one worker domain
   (spawned when the first job has to queue for it), with requests
   routed by [Engine.target] — session requests to their
   client's shard, repository mutations broadcast to every shard (each
   shard replicates the repository; hash-consing makes the replicas
   share structure). A shard is a deterministic single-threaded broker:
   whoever holds its [busy] flag owns its engine — the worker for a
   cycle over its queue, or an inline submitter that found the shard
   idle with an empty queue — and at most one thread holds it, so every
   per-shard guarantee of the unsharded broker — submission-order
   processing, the oracle-replay property, byte-identical journal
   recovery — carries over verbatim, per shard.

   Group commit: each worker cycle moves every waiting submission into
   the engine's admission queue (so queue pressure, shedding and the
   degradation ladder behave exactly as in the unsharded loop), steps
   the engine until the queue is empty, then flushes the journal once
   and only then invokes the response callbacks. A callback thus always
   implies a durable journal entry, and a crash loses at most the
   un-acked tail of one batch — never a mid-file hole. *)

type callback = shard:int -> Engine.response -> unit

type job = {
  request : Engine.request;
  callback : callback option;
  broadcast : bool;
      (* replication traffic: applied unconditionally, never shed —
         a shard that dropped a [Publish] under load would silently
         fork its repository replica from the other shards' *)
}

type shard = {
  sid : int;
  engine : Engine.t;
  journal : Journal.writer option;
  lock : Mutex.t;  (* guards jobs / stopping / busy / failed *)
  wake : Condition.t;  (* signalled on new jobs, on stop, and when an
                          inline cycle ends with jobs queued behind it *)
  idle : Condition.t;  (* signalled whenever a cycle releases [busy] *)
  jobs : job Queue.t;
  feed : Journal.feed;
      (* the engine under the write-ahead contract: a cycle submits,
         processes and steps through it *)
  mutable submitted : int;
      (* per-shard submission index (journal key), owned with the engine *)
  mutable stopping : bool;
  mutable busy : bool;  (* a cycle is running: its runner owns the engine *)
  mutable failed : exn option;
  mutable worker : unit Domain.t option;  (* spawned on the first queued job *)
}

type t = { shards : shard array }

let shards t = Array.length t.shards
let engine t i = t.shards.(i).engine
let seqs t = Array.map (fun s -> Engine.seq s.engine) t.shards

(* ---- the worker ------------------------------------------------------- *)

let run_cycle sh jobs =
  (* callbacks of the engine-queued submissions, FIFO alongside the
     engine's own queue; a step journals through the feed's hook *)
  let callbacks = Queue.create () in
  let acc = ref [] in
  let rec steps_dry () =
    match Engine.step sh.engine with
    | None -> ()
    | Some resp ->
        acc := (Queue.pop callbacks, resp) :: !acc;
        steps_dry ()
  in
  List.iter
    (fun j ->
      let submit = sh.submitted in
      sh.submitted <- submit + 1;
      Obs.Metrics.incr "broker.shard.submitted";
      if j.broadcast then begin
        (* drain what is already queued (FIFO order preserved), then
           apply the replicated mutation bypassing admission: the
           bounded queue sheds load, and replication is not load *)
        steps_dry ();
        acc := (j.callback, Journal.process sh.feed ~submit j.request) :: !acc
      end
      else
        match Journal.submit sh.feed ~submit j.request with
        | None -> Queue.add j.callback callbacks
        | Some resp -> acc := (j.callback, resp) :: !acc)
    jobs;
  steps_dry ();
  (* the group-commit barrier: everything this cycle journaled becomes
     durable in one flush, before any caller sees a response *)
  Option.iter Journal.flush sh.journal;
  List.iter
    (fun (cb, resp) ->
      Obs.Metrics.incr "broker.shard.processed";
      Option.iter (fun cb -> cb ~shard:sh.sid resp) cb)
    (List.rev !acc)

(* Run one cycle as the holder of [sh.busy] (set by the caller, under
   the lock), then release it. The lock is never held across the cycle,
   so a callback may submit. A failing cycle retires the shard exactly
   as a failing worker cycle would. *)
let run_owned sh jobs =
  (try run_cycle sh jobs
   with e ->
     Mutex.lock sh.lock;
     sh.failed <- Some e;
     sh.stopping <- true;
     Mutex.unlock sh.lock);
  Mutex.lock sh.lock;
  sh.busy <- false;
  Condition.broadcast sh.idle;
  (* the worker may be parked on [busy] with jobs behind it (or a stop);
     with neither it has nothing to do, so it is left asleep *)
  if sh.stopping || not (Queue.is_empty sh.jobs) then Condition.signal sh.wake;
  Mutex.unlock sh.lock

let rec worker sh =
  Mutex.lock sh.lock;
  while sh.busy || (Queue.is_empty sh.jobs && not sh.stopping) do
    Condition.wait sh.wake sh.lock
  done;
  if Queue.is_empty sh.jobs then begin
    (* stopping, queue drained: flush and retire *)
    Mutex.unlock sh.lock;
    Option.iter Journal.close sh.journal
  end
  else begin
    sh.busy <- true;
    let jobs = List.of_seq (Queue.to_seq sh.jobs) in
    Queue.clear sh.jobs;
    Mutex.unlock sh.lock;
    run_owned sh jobs;
    worker sh
  end

(* ---- the pool --------------------------------------------------------- *)

(* The runtime's domain cap ([Max_domains] in caml/domain.h) less the
   main domain: a larger pool could not give every shard a worker. *)
let max_shards = 127

let of_engines ?journal engines =
  if Array.length engines = 0 then
    invalid_arg "Shard.of_engines: need at least one engine";
  if Array.length engines > max_shards then
    invalid_arg
      (Fmt.str "Shard.of_engines: at most %d shards, got %d" max_shards
         (Array.length engines));
  let make sid engine =
    let writer = Option.map (fun f -> f sid) journal in
    {
      sid;
      engine;
      journal = writer;
      feed = Journal.feed ?writer engine;
      lock = Mutex.create ();
      wake = Condition.create ();
      idle = Condition.create ();
      jobs = Queue.create ();
      submitted = 0;
      stopping = false;
      busy = false;
      failed = None;
      worker = None;
    }
  in
  let t = { shards = Array.mapi make engines } in
  Obs.Metrics.set "broker.shard.count" (Array.length t.shards);
  t

let create ?admission ?journal ~shards:n repo =
  if n < 1 then invalid_arg "Shard.create: shards must be >= 1";
  of_engines ?journal (Array.init n (fun _ -> Engine.create ?admission repo))

let check_failed sh =
  match sh.failed with None -> () | Some e -> raise e

(* Hand [job] to its shard. With [inline], a shard that is idle with an
   empty queue runs the job's cycle on the calling thread instead, so
   no worker wakes up; otherwise the job queues for the worker, which is
   spawned here, under the lock, if this is the first job to queue. *)
let enqueue ?(inline = false) sh job =
  Mutex.lock sh.lock;
  if sh.stopping then begin
    Mutex.unlock sh.lock;
    check_failed sh;
    invalid_arg "Shard.submit: pool stopped"
  end;
  if inline && (not sh.busy) && Queue.is_empty sh.jobs then begin
    sh.busy <- true;
    Mutex.unlock sh.lock;
    Obs.Metrics.incr "broker.shard.inline";
    run_owned sh [ job ]
  end
  else begin
    (if Option.is_none sh.worker then
       match Domain.spawn (fun () -> worker sh) with
       | d ->
           sh.worker <- Some d;
           Obs.Metrics.incr "broker.shard.workers"
       | exception e ->
           Mutex.unlock sh.lock;
           raise e);
    Queue.add job sh.jobs;
    Obs.Metrics.set_max "broker.shard.queue.depth" (Queue.length sh.jobs);
    Condition.signal sh.wake;
    Mutex.unlock sh.lock
  end

let submit ?inline t ?callback request =
  match Engine.target ~shards:(Array.length t.shards) request with
  | Engine.Shard i ->
      enqueue ?inline t.shards.(i) { request; callback; broadcast = false }
  | Engine.Broadcast ->
      (* every shard applies the mutation (FIFO per shard, so it orders
         correctly against that shard's session requests); the caller's
         callback fires once, from shard 0 — whose copy is handed over
         last, so every other copy is queued before the callback can
         fire *)
      Obs.Metrics.incr "broker.shard.broadcast";
      let job callback = { request; callback; broadcast = true } in
      for i = Array.length t.shards - 1 downto 1 do
        enqueue t.shards.(i) (job None)
      done;
      enqueue ?inline t.shards.(0) (job callback)

let drain t =
  Array.iter
    (fun sh ->
      Mutex.lock sh.lock;
      while (not (Queue.is_empty sh.jobs)) || sh.busy do
        Condition.wait sh.idle sh.lock
      done;
      Mutex.unlock sh.lock;
      check_failed sh)
    t.shards

let stop t =
  Array.iter
    (fun sh ->
      Mutex.lock sh.lock;
      sh.stopping <- true;
      Condition.broadcast sh.wake;
      Mutex.unlock sh.lock)
    t.shards;
  Array.iter
    (fun sh ->
      Mutex.lock sh.lock;
      (* a shard that never queued a job has no worker to flush and close
         its journal: wait out any inline cycle and do it here *)
      if Option.is_none sh.worker then
        while sh.busy do
          Condition.wait sh.idle sh.lock
        done;
      let worker = sh.worker in
      Mutex.unlock sh.lock;
      match worker with
      | Some d -> Domain.join d
      | None -> Option.iter Journal.close sh.journal)
    t.shards;
  Array.iter check_failed t.shards
