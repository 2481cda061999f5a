(** A process-wide metrics registry: counters, gauges and histograms,
    keyed by name.

    Like {!Trace}, the default sink is a no-op — until {!install} is
    called every instrument is a single flag test and records nothing,
    and instrumentation must never change an observable result.

    All values are integers (the code base measures counts and logical
    steps, never wall time). Histograms use cumulative power-of-two
    buckets by default; see {!default_bounds} and {!bucket_index}.

    Instrument names follow the contract in [docs/OBSERVABILITY.md]:
    dot-separated [<subsystem>.<what>[.<unit-or-qualifier>]], e.g.
    ["product.states.built"] or ["planner.compliance_cache.hits"]. *)

val install : unit -> unit
(** Switch recording on and clear the registry. *)

val uninstall : unit -> unit
(** Back to the no-op sink; recorded values stay readable via
    {!snapshot} until the next {!install}. *)

val active : unit -> bool

(** {1 Instruments}

    Each call is a no-op when no sink is installed. Instruments are
    created on first use. *)

val incr : string -> unit
(** Add 1 to a counter. *)

val add : string -> int -> unit
(** Add [n] to a counter. *)

val set : string -> int -> unit
(** Set a gauge to the given value (last write wins). *)

val set_max : string -> int -> unit
(** Raise a gauge to the given value if it is larger (high-water mark). *)

val observe : ?bounds:int array -> string -> int -> unit
(** Record one observation in a histogram. [bounds] (sorted, strictly
    increasing upper bucket edges) is honoured on the {e first}
    observation of each name and ignored afterwards; default
    {!default_bounds}. *)

(** {1 Reading back} *)

val default_bounds : int array
(** [1; 2; 4; …; 65536] — power-of-two upper edges. Values above the
    last edge land in an implicit overflow bucket. *)

val bucket_index : bounds:int array -> int -> int
(** The index of the bucket a value falls into: the first [i] with
    [value <= bounds.(i)], or [Array.length bounds] for the overflow
    bucket. Exposed for the unit tests. *)

type histogram = {
  bounds : int list;  (** upper edges, ascending *)
  counts : int list;  (** one per edge, plus a final overflow count *)
  count : int;  (** total observations *)
  sum : int;
  max_value : int;  (** largest observation; 0 when empty *)
}

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * int) list;  (** sorted by name *)
  histograms : (string * histogram) list;  (** sorted by name *)
}

val snapshot : unit -> snapshot
(** A deterministic (name-sorted) copy of the registry. *)
