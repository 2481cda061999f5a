(** A seeded, reproducible fault model for the execution layer.

    Faults are {e interference}: they restrict or perturb the moves the
    network semantics offers, they never forge transitions — so every
    step a faulty run takes is still a step of the paper's semantics,
    and recovery can never smuggle an invalid history past the monitor.

    Four kinds of fault:
    - [Crash loc]: the service at [loc] dies permanently; sessions it
      participates in are broken and opens routed to it fail;
    - [Drop chan]: a synchronisation on [chan] is lost this step (the
      message is dropped; the parties may retry later);
    - [Delay (chan, d)]: synchronisations on [chan] are blocked for the
      next [d] steps;
    - [Violate loc]: the service at [loc] attempts a policy-violating
      action. Under the monitor this is {e blocked}, and the runtime
      records the attempt — demonstrating the monitor is never bypassed.

    A fault fires either at one absolute step ([At k]) or independently
    at every step with a fixed probability ([Rate p]), drawn from the
    engine's seeded generator — runs are reproducible from the seed. *)

type kind =
  | Crash of string  (** location *)
  | Drop of string  (** channel *)
  | Delay of string * int  (** channel, steps *)
  | Violate of string  (** location *)

type trigger = At of int | Rate of float

type fault = { trigger : trigger; kind : kind }
type spec = fault list

val at : int -> kind -> fault
val rate : float -> kind -> fault

val fires : Random.State.t -> step:int -> fault -> bool
(** Whether the fault fires at this step. [Rate] faults consume one
    draw from the generator at {e every} step, so firing decisions are
    a deterministic function of the seed and the step sequence. *)

val parse : string -> (spec, string) result
(** Comma-separated fault clauses, each [KIND\@TRIGGER]:

    - kinds: [crash:LOC], [drop:CHAN], [delay:CHAN:STEPS], [violate:LOC];
    - triggers: a step number ([crash:s3\@5]) or [p] followed by a
      per-step probability ([crash:s3\@p0.01]).

    Example: ["crash:s3\@4,drop:idc\@p0.1"]. *)

val pp_kind : kind Fmt.t
val pp_fault : fault Fmt.t

(** {1 Serve-loop faults}

    PR 1's faults interfere with one session's execution; these
    interfere with the {e serving layer} itself — they kill the broker
    process between events, to exercise journal recovery. A serve
    fault fires when [accepted] events have already been accepted and
    the next one arrives:

    - [Crash_serve]: die before the event is journaled or applied (the
      journal ends cleanly after [after] entries);
    - [Torn_write]: die {e mid-append} — the journal additionally ends
      in an unterminated garbage line, the torn tail recovery must
      drop. *)

type serve_kind = Crash_serve | Torn_write

type serve_fault = { after : int; skind : serve_kind }

val serve_fires : serve_fault list -> accepted:int -> serve_kind option
(** The staged fault (if any) that fires with [accepted] events already
    accepted; [Torn_write] wins when both are staged at the same
    point. *)

val parse_serve : string -> (serve_fault list, string) result
(** Comma-separated [crash\@K] / [torn\@K] clauses — fire when event
    [K] (0-based count of already-accepted events) is about to be
    accepted, i.e. after [K] events succeeded. *)
