(** Deterministic workload scripts for the broker.

    A script is a line-oriented text format replayed through one
    broker's event loop ({!Journal.run}) — the transport of
    [susf serve --script] and of the {!Testkit} workload generator, and
    the reason broker runs are reproducible byte-for-byte: the same
    script against the same starting repository yields the same
    responses.

    {v
    # whole-line comment (blank lines ignored; '#' inside a line is
    # NOT a comment — events spell as #name(v))
    open c1 = open(1){ req!.(cobo?.pay! + noav?) }
    serve c1
    publish s9 = req?.(cobo!.pay? (+) noav!)
    update s1 = ...      retract s2      close c1
    run c1 seed 7
    policy queue 8 budget 3 floor affectible   # any field may be omitted
    tick                      # process one queued request
    drain                     # process everything queued
    v}

    [policy] values must be ≥ 1 ([queue]/[budget]) — out-of-range
    values are rejected at parse time with a positioned diagnostic, not
    clamped; [floor] takes a compliance level ([strict], [skip:K],
    [affectible]).

    [open]/[publish]/[update] take a history expression after [=],
    parsed by the [hexpr_of_string] callback (the CLI passes
    [Syntax.Parser.hexpr_of_string]); the broker library itself stays
    independent of the surface syntax. Every request line {e submits};
    processing happens at [tick]/[drain] boundaries, so scripts also
    exercise admission control (submitting past the queue capacity
    sheds). *)

type item =
  | Submit of Engine.request
  | Tick  (** process the oldest queued request *)
  | Drain  (** process until the queue is empty *)

val parse :
  ?file:string ->
  hexpr_of_string:(string -> Core.Hexpr.t) ->
  string ->
  (item list, string) result
(** Parse a script text; the error carries a position ([FILE:LINE:]
    when [~file] is given, [line N:] otherwise) and names the
    offending token. Exceptions raised by [hexpr_of_string] are caught
    and reported the same way. *)

val one_line : string -> string
(** Collapse formatter line breaks (a newline plus indentation) to
    single spaces, dropping blank lines: the one-line form of a
    pretty-printed term, decline or outcome. *)

val request_line : hexpr_to_string:(Core.Hexpr.t -> string) -> Engine.request -> string
(** Render a request as a single script line (the journal payload
    codec). Formatter line breaks inside the history-expression
    rendering are collapsed to single spaces, so the result always
    occupies one line and — provided [hexpr_to_string] prints the
    surface syntax — parses back with {!request_of_line}. Names
    containing whitespace or ['='] are not representable. *)

val request_of_line :
  hexpr_of_string:(string -> Core.Hexpr.t) ->
  string ->
  (Engine.request, string) result
(** Parse one request line produced by {!request_line}. [tick]/[drain]/
    blank lines are not requests and are rejected. *)

val partition : streams:int -> item list -> Engine.request list array
(** Split a script into per-connection request streams for the socket
    front end ({!Net.drive}): session requests follow their client
    (via {!Engine.target}, the shard routing rule, so one client's
    open/serve/close order survives per-shard FIFO processing),
    broadcasts (mutations and [policy]) go to stream 0, [tick]/[drain]
    boundaries are dropped — concurrent submission replaces them. Raises
    [Invalid_argument] when [streams < 1]. *)

val pp_item : item Fmt.t
