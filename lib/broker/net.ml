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

   A served verdict's OUTCOME is [Engine.served_line] over the report
   text the engine rendered when it settled the verdict, so a hit is
   answered without a formatter.

   The accept/read loop is a single [Unix.select] thread, and requests
   are processed on the shard worker domains, with one exception: when
   a pass reads exactly one complete request line and the server has no
   other open connection, the select thread runs that request's shard
   cycle itself if the shard is idle with an empty queue, so one request
   in flight costs no cross-domain wake-up, at any shard count. (A
   broadcast's copies for shards 1..N-1 still queue for their workers;
   only shard 0's copy, which answers, runs inline.) While two or more
   connections are open every request goes to the workers, so a slow
   request never holds the select thread while another connection
   waits; several lines read in one pass go to the workers too.
   Whichever thread ran the cycle writes the response to the client
   socket from its callback (serialized by a per-connection mutex —
   responses to one connection can complete on different shards
   concurrently). Responses to pipelined requests on one connection
   arrive in per-shard order but may interleave across shards —
   SHARD/SEQ identify them; drivers that need strict request/response
   pairing (the workload driver below, the CI smoke) simply keep one
   request in flight per connection.

   After a pass that handled a lone line, the select thread polls for
   [poll_window] before it blocks (see [wait]): a closed-loop client's
   next request usually lands inside the window, and a thread that
   blocks pays the host's wake-up of an idle CPU on every request.

   One client cannot take the server down (see net.mli): SIGPIPE is
   ignored, a failed [accept] parks the listener instead of spinning on
   it, a descriptor [select] cannot watch is refused, and client sockets
   never block a write — output a client does not read waits in its
   connection's buffer, up to [max_line] bytes. *)

(* The longest request line the server buffers, in bytes; also the
   most output it keeps for a client that does not read. *)
let max_line = 1 lsl 20

(* How long the select thread polls after a lone line before it blocks,
   in seconds. On a 2-vCPU virtual host a loopback round trip took 30 µs
   through a blocking [select] and 16 µs through a polling one; windows
   of 30 to 200 µs gave a closed-loop ping within 2 µs of each other. *)
let poll_window = 50e-6

type conn = {
  fd : Unix.file_descr;
  rbuf : Buffer.t;  (* partial input line, select-loop private *)
  mutable skipping : bool;
      (* an overlong line was answered: drop input through its newline *)
  wlock : Mutex.t;
      (* serializes response writes across shards; guards [out], [sent]
         and [closed] *)
  out : Buffer.t;
      (* output the socket did not take, from [sent] on; while any is
         left, later replies queue behind it and the select loop drains
         it *)
  mutable sent : int;
  mutable closed : bool;
      (* set under [wlock]: no more writes. The select loop closes [fd]
         on its next pass — never another thread, so a descriptor is
         never closed under a running [select] *)
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
  mutable accepting : bool;
      (* the listener is in the select set; cleared by a failed
         [accept], set again when a connection closes or a pass finds
         nothing to read *)
  mutable shutdown : conn option;
      (* the connection that sent 'shutdown': it gets the 'ok bye',
         after the pool has stopped *)
  mutable polling : bool;
      (* the last pass handled a lone line: poll before blocking *)
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
    read_buf = Bytes.create 4096; conns = []; accepting = true;
    shutdown = None; polling = false }

(* Output not yet taken by the socket; under [wlock]. *)
let pending conn = Buffer.length conn.out - conn.sent

(* Keep [s] from [off] on for the select loop to send, unless that takes
   the connection's unread output past [max_line]: then the client is
   not reading, and the connection is closed. Under [wlock]. *)
let keep conn s off =
  if pending conn + String.length s - off > max_line then begin
    Obs.Metrics.incr "net.overflows";
    conn.closed <- true
  end
  else Buffer.add_substring conn.out s off (String.length s - off)

(* Send [s] (it ends in a newline) without blocking: what the socket
   does not take is kept, and once anything is kept every later reply
   queues behind it, so replies stay in order. A failed write (the
   client hung up: with SIGPIPE ignored that is EPIPE) marks the
   connection closed. *)
let write conn s =
  Mutex.protect conn.wlock @@ fun () ->
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.single_write_substring conn.fd s off (n - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          keep conn s off
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error _ -> conn.closed <- true
  in
  if conn.closed then ()
  else if pending conn > 0 then keep conn s 0
  else go 0

(* Send what the socket takes of [conn]'s kept output; the select loop
   calls it when [select] finds the socket writable. Output a worker
   keeps while the select thread is blocked waits for the next pass,
   at most the 0.2 s tick: only a client that stopped reading long
   enough to fill its socket's buffers meets that wait. *)
let drain conn =
  Mutex.protect conn.wlock @@ fun () ->
  let len = Buffer.length conn.out in
  let rec go () =
    if (not conn.closed) && conn.sent < len then
      let n = min (len - conn.sent) 65536 in
      let chunk = Buffer.sub conn.out conn.sent n in
      match Unix.single_write_substring conn.fd chunk 0 n with
      | k ->
          conn.sent <- conn.sent + k;
          if k = n then go ()
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
      | exception Unix.Unix_error _ -> conn.closed <- true
  in
  go ();
  if conn.closed || conn.sent = len then begin
    Buffer.reset conn.out;
    conn.sent <- 0
  end
  else if conn.sent >= max_line then begin
    (* drop the sent prefix, so a client that reads as fast as it asks
       does not grow the buffer without bound *)
    let rest = Buffer.sub conn.out conn.sent (len - conn.sent) in
    Buffer.reset conn.out;
    Buffer.add_string conn.out rest;
    conn.sent <- 0
  end

let has_output conn =
  Mutex.protect conn.wlock (fun () -> (not conn.closed) && pending conn > 0)

let write_line conn line = write conn (line ^ "\n")

let close_conn conn = Mutex.protect conn.wlock (fun () -> conn.closed <- true)

(* Close a closed connection's descriptor; select loop only. *)
let release conn =
  Mutex.protect conn.wlock (fun () ->
      try Unix.close conn.fd with Unix.Unix_error _ -> ())

let outcome_line = function
  | Engine.Served { text; cached; level; _ } ->
      Engine.served_line ~cached ~level text
  | o -> Script.one_line (Fmt.str "%a" Engine.pp_outcome o)

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
        write_line conn ("err " ^ Script.one_line msg)
    | Ok request ->
        Obs.Metrics.incr "net.requests";
        let tag =
          match Engine.target ~shards:(Shard.shards t.pool) request with
          | Engine.Broadcast -> "*"
          | Engine.Shard i -> string_of_int i
        in
        Shard.submit ~inline t.pool request ~callback:(fun ~shard:_ resp ->
            Obs.Metrics.incr "net.responses";
            write conn
              (String.concat ""
                 [ "ok "; tag; " "; string_of_int resp.Engine.seq; " ";
                   outcome_line resp.Engine.outcome; "\n" ]))

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

(* [select] takes only descriptors below FD_SETSIZE; ask it about a new
   one rather than assume the constant. *)
let rec watchable fd =
  match Unix.select [ fd ] [] [] 0.0 with
  | _ -> true
  | exception Unix.Unix_error (Unix.EINVAL, _, _) -> false
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> watchable fd

let accept t =
  match Unix.accept t.lsock with
  | exception Unix.Unix_error _ ->
      Obs.Metrics.incr "net.accept_errors";
      t.accepting <- false
  | fd, _ when not (watchable fd) ->
      Obs.Metrics.incr "net.accept_errors";
      let msg = "err too many connections\n" in
      (try ignore (Unix.write_substring fd msg 0 (String.length msg))
       with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())
  | fd, _ ->
      Obs.Metrics.incr "net.connections";
      Unix.set_nonblock fd;
      t.conns <-
        {
          fd;
          rbuf = Buffer.create 256;
          skipping = false;
          wlock = Mutex.create ();
          out = Buffer.create 256;
          sent = 0;
          closed = false;
          last_read = Unix.gettimeofday ();
        }
        :: t.conns

(* Wait for a descriptor to turn ready. After a pass that handled a
   lone line, poll for [poll_window] first, timed by the clock
   [last_read] uses (a step back ends the window); otherwise, and once
   the window has passed, block for the 0.2 s tick. *)
let wait t rfds wfds =
  let block () = Unix.select rfds wfds [] 0.2 in
  if not t.polling then block ()
  else begin
    t.polling <- false;
    let start = Unix.gettimeofday () in
    let rec poll () =
      match Unix.select rfds wfds [] 0.0 with
      | [], [], _ ->
          let now = Unix.gettimeofday () in
          if now >= start && now -. start < poll_window then poll ()
          else begin
            Obs.Metrics.incr "net.poll.slept";
            block ()
          end
      | ready ->
          Obs.Metrics.incr "net.poll.caught";
          ready
    in
    poll ()
  end

let conn_of t fd = List.find_opt (fun c -> c.fd = fd) t.conns

(* One pass of the accept/read loop; returns [false] once the server
   should stop (shutdown requested and observed). It first drains the
   connections whose kept output the socket now takes. The lines a pass
   reads are handled after its reads, in read order; a lone line may
   run inline (see the header). Idleness is judged at the end of the
   reads, before any line is handled. *)
let step t =
  let alive, gone = List.partition (fun c -> not c.closed) t.conns in
  if gone <> [] then begin
    List.iter release gone;
    t.conns <- alive;
    t.accepting <- true
  end;
  let fds = List.map (fun c -> c.fd) alive in
  let fds = if t.accepting then t.lsock :: fds else fds in
  let wfds =
    List.filter_map (fun c -> if has_output c then Some c.fd else None) alive
  in
  match wait t fds wfds with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
  | readable, writable, _ ->
      if readable = [] then t.accepting <- true;
      List.iter (fun fd -> Option.iter drain (conn_of t fd)) writable;
      let lines = ref [] in
      List.iter
        (fun fd ->
          if fd = t.lsock then accept t
          else
            match conn_of t fd with
            | None -> ()
            | Some conn -> (
                conn.last_read <- Unix.gettimeofday ();
                let cap = Bytes.length t.read_buf in
                match Unix.read conn.fd t.read_buf 0 cap with
                | 0 -> close_conn conn
                | n -> feed lines conn t.read_buf n
                | exception
                    Unix.Unix_error
                      ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
                    ()
                | exception Unix.Unix_error _ -> close_conn conn))
        readable;
      let now = Unix.gettimeofday () in
      let alone c = List.for_all (fun o -> o == c || o.closed) t.conns in
      (match !lines with
      | [ ((from, _) as one) ] when alone from ->
          handle_line t ~inline:true one;
          t.polling <- true
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

(* Before the sockets close, hand every client its kept output, the
   'ok bye' included, for as long as some client keeps reading: a
   second in which no such socket turns writable ends the wait. *)
let rec linger t =
  match List.filter has_output t.conns with
  | [] -> ()
  | waiting -> (
      match Unix.select [] (List.map (fun c -> c.fd) waiting) [] 1.0 with
      | _, [], _ -> ()
      | _, writable, _ ->
          List.iter (fun fd -> Option.iter drain (conn_of t fd)) writable;
          linger t
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> linger t)

let serve t =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Obs.Metrics.set "net.port" t.port;
  while step t do
    ()
  done;
  (* shutdown: stop the pool first — workers drain what is queued and
     the response callbacks still reach their sockets, the journals
     flush and close — only then acknowledge and hang up *)
  Shard.stop t.pool;
  Option.iter (fun conn -> write_line conn "ok bye") t.shutdown;
  linger t;
  List.iter release t.conns;
  t.conns <- [];
  (try Unix.close t.lsock with Unix.Unix_error _ -> ())

(* ---- the synchronous workload driver ---------------------------------- *)

(* Drive M request streams over M connections, one request in flight
   per connection (send, then block on the response line), rotating
   across connections so up to M requests are in flight server-side at
   any moment. The per-connection request/response pairing this buys is
   what the CI socket smoke keys on. *)

type driven = {
  stream : int;
  request : Engine.request;
  reply : string;
}

exception Closed of { replies : int; requests : int }

let drive ?(host = "127.0.0.1") ~port ~hexpr_to_string
    (streams : Engine.request list array) =
  (* a server that hangs up must fail a write, not kill the driver *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let inet =
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found -> failwith "unknown host")
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
  let results = ref [] and replies = ref 0 in
  let remaining () =
    Array.exists (fun c -> !c <> []) cursors
  in
  let lost () =
    Array.iter
      (fun (fd, _, _) -> try Unix.close fd with Unix.Unix_error _ -> ())
      conns;
    raise
      (Closed
         {
           replies = !replies;
           requests = Array.fold_left (fun n s -> n + List.length s) 0 streams;
         })
  in
  while remaining () do
    (* send one request per connection with work left... *)
    Array.iteri
      (fun i c ->
        match !c with
        | [] -> ()
        | r :: _ -> (
            let _, _, oc = conns.(i) in
            try
              output_string oc (Script.request_line ~hexpr_to_string r ^ "\n");
              flush oc
            with Sys_error _ -> lost ()))
      cursors;
    (* ...then collect the one response each owes *)
    Array.iteri
      (fun i c ->
        match !c with
        | [] -> ()
        | r :: rest ->
            let _, ic, _ = conns.(i) in
            let reply =
              try input_line ic with End_of_file | Sys_error _ -> lost ()
            in
            incr replies;
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
      try
        output_string oc "shutdown\n";
        flush oc;
        ignore (input_line ic)
      with End_of_file | Sys_error _ -> ());
  Array.iter
    (fun (fd, _, _) -> try Unix.close fd with Unix.Unix_error _ -> ())
    conns
