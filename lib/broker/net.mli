(** Socket front end for the sharded broker.

    A line-oriented TCP protocol reusing the script grammar: each
    request line ({!Script.request_of_line}) is answered with exactly
    one response line —

    {v
    ok SHARD SEQ OUTCOME     processed; SHARD is the owning shard id
                             ('*' for broadcasts, answered once, from
                             shard 0), SEQ the per-shard sequence
                             number, OUTCOME the one-line rendering of
                             [Engine.pp_outcome]
    err MESSAGE              parse failure; nothing was submitted, the
                             connection stays usable
    err line too long        the line exceeds 1 MiB; it is answered
                             once and skipped through its newline, and
                             the connection stays usable
    ok pong                  reply to the 'ping' verb
    ok bye                   reply to the 'shutdown' verb, sent {e
                             after} every shard has drained and the
                             journals are flushed and closed — reading
                             it means the journals are safe to recover
    v}

    Responses to pipelined requests on one connection may interleave
    across shards (per-shard order is preserved); drivers that need
    strict pairing keep one request in flight per connection, as
    {!drive} does. Blank lines and [#] comment lines are ignored.

    {b Who runs a request.} One [Unix.select] thread accepts and reads.
    When one pass of it reads exactly one complete line, from the
    server's only open connection, and the pool has one shard, the
    request runs on that thread ([Shard.submit ~inline:true]) if the
    shard is idle with an empty queue, so a lone request in flight costs
    no cross-domain wake-up. All other requests — several lines in one
    pass, two or more open connections, a multi-shard pool or a busy
    shard — run on the shard worker domains, so a slow request never
    holds the select thread while another connection waits. The thread
    that ran a request writes its response, under a per-connection
    mutex. Writes block: a client that never reads can stall that
    thread.

    Instruments: [net.connections], [net.requests], [net.responses],
    [net.errors], [net.timeouts], [net.shutdowns], [net.port]. *)

type t

val create :
  hexpr_of_string:(string -> Core.Hexpr.t) ->
  ?idle_timeout:float ->
  ?port:int ->
  Shard.t ->
  t
(** Bind a loopback listener (port 0 — the default — picks a free
    port, see {!port}) in front of this shard pool. The pool is owned
    by the server from here on: {!serve}'s shutdown path stops it.

    [idle_timeout] (seconds, default off; must be positive) reaps
    connections with no readable input for that long: the server writes
    [err timeout] and closes them ([net.timeouts] counts the reaps) —
    without it, a client that connects and goes silent pins its
    server slot forever. Idleness is sampled by the select loop's 0.2s
    tick, so reaping happens within a tick of the deadline. *)

val port : t -> int
val pool : t -> Shard.t

val serve : t -> unit
(** The accept/read loop. Blocks until a client sends [shutdown], then
    stops the pool (draining queued work, flushing and closing the
    per-shard journals) and closes every socket. *)

(** {1 The synchronous workload driver} *)

type driven = {
  stream : int;  (** index of the connection that carried it *)
  request : Engine.request;
  reply : string;  (** the raw response line *)
}

val drive :
  ?host:string ->
  port:int ->
  hexpr_to_string:(Core.Hexpr.t -> string) ->
  Engine.request list array ->
  (Unix.file_descr * in_channel * out_channel) array * driven list
(** Drive M request streams over M connections, one request in flight
    per connection, rotating across connections (so up to M requests
    are in flight server-side). Refused connections are retried for a
    few seconds — drivers routinely start right after the server
    process, before it binds. [host] may be an IP literal or a name.
    Returns the still-open connections and every (stream, request,
    reply) in completion order. Raises [Failure "unknown host"] when
    [host] does not resolve, and [Unix.Unix_error] when a connection
    cannot be made. *)

val shutdown_conns :
  (Unix.file_descr * in_channel * out_channel) array -> unit
(** Send [shutdown] on the first connection, await the [ok bye], and
    close them all. *)
