(* Socket front end for the sharded broker: a line-oriented protocol
   over TCP that reuses the script grammar verbatim for requests. Each
   request line is answered with exactly one response line:

     ok SHARD SEQ OUTCOME     the request was processed; SHARD is the
                              owning shard id ('*' for broadcasts,
                              answered once, from shard 0), SEQ the
                              per-shard sequence number, OUTCOME the
                              one-line rendering of [Engine.pp_outcome]
     err MESSAGE              the line did not parse, or is longer
                              than [max_line] (nothing was submitted;
                              the connection stays usable)
     ok bye                   the reply to the 'shutdown' verb, sent
                              only after every shard has drained and
                              the journals are flushed and closed — a
                              client that has read it can recover the
                              journals immediately

   The accept/read loop is a single [Unix.select] thread, and requests
   are processed on the shard worker domains, with one exception: when
   a pass reads exactly one complete request line, the server has no
   other open connection and the pool has one shard, the select thread
   runs that request itself if the shard is idle with an empty queue,
   so one request in flight costs no cross-domain wake-up. While two or
   more connections are open every request goes to the workers, so a
   slow request never holds the select thread while another connection
   waits; multi-shard pools keep the worker path too (with one
   connection over two shards the inline path measured slower, for
   reasons not yet known). Whichever thread ran the cycle writes the
   response to the client socket from its callback (serialized by a
   per-connection mutex — responses to one connection can complete on
   different shards concurrently). Responses to pipelined requests on
   one connection arrive in per-shard order but may interleave across
   shards — SHARD/SEQ identify them; drivers that need strict
   request/response pairing (the workload driver below, the CI smoke)
   simply keep one request in flight per connection. *)

let one_line s =
  String.split_on_char '\n' s
  |> List.map String.trim
  |> List.filter (fun l -> l <> "")
  |> String.concat " "

(* The longest request line the server buffers, in bytes. *)
let max_line = 1 lsl 20

type conn = {
  fd : Unix.file_descr;
  rbuf : Buffer.t;  (* partial input line, select-loop private *)
  mutable skipping : bool;
      (* an overlong line was answered: drop input through its newline *)
  wlock : Mutex.t;  (* serializes response writes across shards *)
  mutable closed : bool;
  mutable last_read : float;  (* of the last accepted/readable moment *)
}

type t = {
  pool : Shard.t;
  lsock : Unix.file_descr;
  port : int;
  hexpr_of_string : string -> Core.Hexpr.t;
  idle_timeout : float option;
      (* a connection with no readable input for this many seconds is
         answered 'err timeout' and closed; [None] (the default) keeps
         the historical pin-a-worker-forever behaviour *)
  read_buf : Bytes.t;
      (* select-loop private; [feed] copies what it keeps. One buffer per
         server, not one per read: a 4 KiB block goes straight to the
         major heap, and allocating one per request drove a major GC
         cycle every few hundred requests *)
  mutable conns : conn list;
  mutable shutdown : conn option;
      (* the connection that sent 'shutdown': it gets the 'ok bye',
         after the pool has stopped *)
}

let port t = t.port
let pool t = t.pool

let create ~hexpr_of_string ?idle_timeout ?(port = 0) pool =
  (match idle_timeout with
  | Some s when s <= 0. -> invalid_arg "Net.create: idle_timeout must be > 0"
  | _ -> ());
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen lsock 64;
  let port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  { pool; lsock; port; hexpr_of_string; idle_timeout;
    read_buf = Bytes.create 4096; conns = []; shutdown = None }

let write_line conn line =
  Mutex.lock conn.wlock;
  (try
     if not conn.closed then begin
       let b = Bytes.of_string (line ^ "\n") in
       let n = Bytes.length b in
       let rec go off =
         if off < n then go (off + Unix.write conn.fd b off (n - off))
       in
       go 0
     end
   with Unix.Unix_error _ -> conn.closed <- true);
  Mutex.unlock conn.wlock

let close_conn conn =
  Mutex.lock conn.wlock;
  if not conn.closed then begin
    conn.closed <- true;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ())
  end;
  Mutex.unlock conn.wlock

let handle_line t ~inline (conn, line) =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then ()
  else if line = "shutdown" then begin
    Obs.Metrics.incr "net.shutdowns";
    (* the 'ok bye' is deferred until the pool has stopped: reading it
       means the journals are flushed, closed and safe to recover *)
    t.shutdown <- Some conn
  end
  else if line = "ping" then write_line conn "ok pong"
  else
    match Script.request_of_line ~hexpr_of_string:t.hexpr_of_string line with
    | Error msg ->
        Obs.Metrics.incr "net.errors";
        write_line conn ("err " ^ one_line msg)
    | Ok request ->
        Obs.Metrics.incr "net.requests";
        let tag =
          match Engine.target ~shards:(Shard.shards t.pool) request with
          | Engine.Broadcast -> "*"
          | Engine.Shard i -> string_of_int i
        in
        Shard.submit ~inline t.pool request ~callback:(fun ~shard:_ resp ->
            Obs.Metrics.incr "net.responses";
            write_line conn
              (Fmt.str "ok %s %d %s" tag resp.Engine.seq
                 (one_line (Fmt.str "%a" Engine.pp_outcome resp.Engine.outcome))))

let line_too_long conn =
  Obs.Metrics.incr "net.errors";
  write_line conn "err line too long";
  Buffer.reset conn.rbuf

(* Only the [len] fresh bytes are scanned for newlines, and a partial
   line is buffered up to [max_line] bytes: past that it is answered
   once, and skipped through its newline. Complete lines are pushed onto
   [lines] (newest first) for [step] to handle. *)
let feed lines conn bytes len =
  let rec newline i =
    if i >= len then None
    else if Bytes.get bytes i = '\n' then Some i
    else newline (i + 1)
  in
  let rec go start =
    match newline start with
    | Some i ->
        let n = i - start in
        if conn.skipping then conn.skipping <- false
        else if Buffer.length conn.rbuf + n > max_line then line_too_long conn
        else begin
          Buffer.add_subbytes conn.rbuf bytes start n;
          lines := (conn, Buffer.contents conn.rbuf) :: !lines;
          Buffer.reset conn.rbuf
        end;
        go (i + 1)
    | None ->
        let n = len - start in
        if conn.skipping then ()
        else if Buffer.length conn.rbuf + n > max_line then begin
          line_too_long conn;
          conn.skipping <- true
        end
        else Buffer.add_subbytes conn.rbuf bytes start n
  in
  go 0

(* One pass of the accept/read loop; returns [false] once the server
   should stop (shutdown requested and observed). The lines a pass
   reads are handled after its reads, in read order; a lone line may
   run inline (see the header). Idleness is judged at the end of the
   reads, before any line is handled. *)
let step t =
  let alive = List.filter (fun c -> not c.closed) t.conns in
  t.conns <- alive;
  let fds = t.lsock :: List.map (fun c -> c.fd) alive in
  match Unix.select fds [] [] 0.2 with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
  | readable, _, _ ->
      let lines = ref [] in
      List.iter
        (fun fd ->
          if fd = t.lsock then begin
            let cfd, _ = Unix.accept t.lsock in
            Obs.Metrics.incr "net.connections";
            t.conns <-
              {
                fd = cfd;
                rbuf = Buffer.create 256;
                skipping = false;
                wlock = Mutex.create ();
                closed = false;
                last_read = Unix.gettimeofday ();
              }
              :: t.conns
          end
          else
            match List.find_opt (fun c -> c.fd = fd) t.conns with
            | None -> ()
            | Some conn -> (
                conn.last_read <- Unix.gettimeofday ();
                let cap = Bytes.length t.read_buf in
                match Unix.read conn.fd t.read_buf 0 cap with
                | 0 -> close_conn conn
                | n -> feed lines conn t.read_buf n
                | exception Unix.Unix_error _ -> close_conn conn))
        readable;
      let now = Unix.gettimeofday () in
      let alone c = List.for_all (fun o -> o == c || o.closed) t.conns in
      (match !lines with
      | [ ((from, _) as one) ] when Shard.shards t.pool = 1 && alone from ->
          handle_line t ~inline:true one
      | several -> List.iter (handle_line t ~inline:false) (List.rev several));
      (* reap idle connections: a client that connected and went silent
         would otherwise hold its slot forever *)
      (match t.idle_timeout with
      | None -> ()
      | Some limit ->
          List.iter
            (fun conn ->
              if
                (not conn.closed)
                && now -. conn.last_read > limit
                && t.shutdown <> Some conn
              then begin
                Obs.Metrics.incr "net.timeouts";
                write_line conn "err timeout";
                close_conn conn
              end)
            t.conns);
      Option.is_none t.shutdown

let serve t =
  Obs.Metrics.set "net.port" t.port;
  while step t do
    ()
  done;
  (* shutdown: stop the pool first — workers drain what is queued and
     the response callbacks still reach their sockets, the journals
     flush and close — only then acknowledge and hang up *)
  Shard.stop t.pool;
  Option.iter (fun conn -> write_line conn "ok bye") t.shutdown;
  List.iter close_conn t.conns;
  (try Unix.close t.lsock with Unix.Unix_error _ -> ())

(* ---- the synchronous workload driver ---------------------------------- *)

(* Drive M request streams over M connections, one request in flight
   per connection (send, then block on the response line), rotating
   across connections so up to M requests are in flight server-side at
   any moment. The per-connection request/response pairing this buys is
   what the CI smoke and the bench validation key on. *)

type driven = {
  stream : int;
  request : Engine.request;
  reply : string;
}

let drive ?(host = "127.0.0.1") ~port ~hexpr_to_string
    (streams : Engine.request list array) =
  let inet =
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found -> failwith ("Net.drive: unknown host " ^ host))
  in
  let addr = Unix.ADDR_INET (inet, port) in
  (* retry refused connections for a few seconds: drivers are routinely
     started right after the server process, before it binds *)
  let rec connect tries =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> fd
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) when tries > 0 ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Unix.sleepf 0.1;
        connect (tries - 1)
  in
  let conns =
    Array.map
      (fun _ ->
        let fd = connect 50 in
        (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd))
      streams
  in
  let cursors = Array.map (fun s -> ref s) streams in
  let results = ref [] in
  let remaining () =
    Array.exists (fun c -> !c <> []) cursors
  in
  while remaining () do
    (* send one request per connection with work left... *)
    Array.iteri
      (fun i c ->
        match !c with
        | [] -> ()
        | r :: _ ->
            let _, _, oc = conns.(i) in
            output_string oc (Script.request_line ~hexpr_to_string r ^ "\n");
            flush oc)
      cursors;
    (* ...then collect the one response each owes *)
    Array.iteri
      (fun i c ->
        match !c with
        | [] -> ()
        | r :: rest ->
            let _, ic, _ = conns.(i) in
            let reply = input_line ic in
            results := { stream = i; request = r; reply } :: !results;
            c := rest)
      cursors
  done;
  (conns, List.rev !results)

let shutdown_conns conns =
  (match Array.length conns with
  | 0 -> ()
  | _ ->
      let _, ic, oc = conns.(0) in
      output_string oc "shutdown\n";
      flush oc;
      (try ignore (input_line ic) with End_of_file -> ()));
  Array.iter
    (fun (fd, _, _) -> try Unix.close fd with Unix.Unix_error _ -> ())
    conns
