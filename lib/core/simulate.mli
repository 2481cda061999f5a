(** Concrete execution of networks: drive the semantics of {!Network}
    with a scheduler and collect a Fig. 3-style trace. *)

type move = int * Network.glabel * Network.config
(** A transition offered by {!Network.steps}. *)

type scheduler = step:int -> move list -> move option
(** Given the step number and the enabled moves, pick one (or stop). *)

val first : scheduler
(** Deterministic: always the first enabled move. *)

val random : seed:int -> scheduler
(** Pseudo-random, reproducible. *)

val prefer : (Network.glabel -> bool) list -> scheduler
(** Scripted priorities: the first predicate that matches some enabled
    move selects it; falls back to the first move. Used to replay the
    paper's Fig. 3 interleaving. *)

val script : (Network.glabel -> bool) list -> scheduler
(** Strict script: step [k] picks a move matching the [k]-th predicate,
    stopping the run if none matches (or the script is exhausted). *)

type outcome =
  | Completed  (** every client reached [ℓ : ε] *)
  | Stuck of string list
      (** no enabled move; the locations of the unfinished clients *)
  | Degraded of { completed : string list; abandoned : (string * string) list }
      (** produced by the fault-tolerant {e runtime} layer, never by
          {!run} itself: some clients completed, the others were
          abandoned (location, reason) after recovery was exhausted *)
  | Out_of_fuel  (** [max_steps] reached *)
  | Stopped  (** the scheduler declined to pick a move *)

type trace = {
  steps : (Network.glabel * Network.config) list;
  final : Network.config;
  outcome : outcome;
}

val unfinished : Network.config -> string list
(** Locations of the top-level clients that have not terminated. *)

val run :
  ?max_steps:int ->
  ?monitored:bool ->
  Network.repo ->
  Network.config ->
  scheduler ->
  trace
(** With [~monitored:false] the runtime security monitor is off (the
    §5 deployment mode for statically validated plans). *)

val pp_outcome : outcome Fmt.t

val pp_trace : trace Fmt.t
(** Renders every configuration traversed, with its histories — the
    shape of the paper's Fig. 3. *)

val pp_trace_compact : trace Fmt.t
(** One line per transition. *)

val follow :
  ?max_steps:int ->
  Network.repo ->
  Network.config ->
  Network.glabel list ->
  trace
(** Replay an exact label sequence (e.g. a {!Netcheck} witness) in the
    concrete semantics; the run stops early if some label is not
    enabled. *)

(** {1 Batch statistics} *)

type stats = {
  runs : int;
  completed : int;
  stuck : int;
  out_of_fuel : int;
  avg_steps : float;
  avg_events : float;  (** access events per run *)
  outcomes_valid : int;  (** runs whose final histories are all valid *)
}

val batch :
  ?runs:int ->
  ?max_steps:int ->
  Network.repo ->
  (unit -> Network.config) ->
  stats
(** [batch repo mk_config] drives [runs] (default 100) random executions
    with seeds [1 … runs] and aggregates the outcomes. *)

val pp_stats : stats Fmt.t

val coverage :
  ?runs:int ->
  ?max_steps:int ->
  Network.repo ->
  (unit -> Network.config) ->
  (string * int) list
(** Behavioural coverage over random runs: how often each channel
    synchronised ([chan:a]), each event fired ([event:x]), and each
    request opened ([open:1]); sorted by key. Useful for spotting dead
    branches a valid plan never exercises. *)
