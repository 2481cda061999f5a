(** The broker's incremental verdict index: cached planner verdicts
    keyed by client, with a {e reverse-dependency map} from each
    plan-bound service location to the set of clients whose plans bind
    it, and a {e watch set} of the entries a [Publish] must re-check.
    The {!Broker} decides staleness: a mutation drops the entries bound
    to a touched location ({!clients_of_loc}); it walks every entry only
    when the repository's policy ids change or on an [Update]; and a
    [Publish] visits only the watch set ({!watched}). See
    [docs/BROKER.md] for the invalidation contract (which mutations must
    drop which entries, and why that is exactly the set a cold-start
    planner could answer differently on). *)

open Core

type verdict =
  | Valid of Planner.report
      (** the first plan in {!Planner.enumerate} order whose
          {!Planner.analyze} verdict is [Ok] *)
  | No_plan  (** the enumeration was exhausted without a valid plan *)

type entry = {
  client : string;
  verdict : verdict;
  level : Compliance.level;
      (** the admission level the verdict was computed at — a cache hit
          requires the serving level to match, so a verdict served at
          level L always equals a cold Planner run asked at level L *)
  locs : string list;
      (** plan-bound service locations the analysis consulted
          (empty for [No_plan]) *)
  policies : string list;
      (** the policy universe (ids) the netcheck ran under *)
}

type t

val create : unit -> t
val find : t -> string -> entry option
val store : t -> watch:bool -> entry -> unit
(** Replaces any previous entry for the same client, putting the new
    one in the watch set when [watch]. *)

val drop : t -> string -> bool
(** Remove one client's entry (with its reverse-dependency links and
    watch mark); [true] if one was present. *)

val watch : t -> string -> bool -> unit
(** Put a client's entry in the watch set, or take it out. A client
    without an entry is never watched. *)

val watched : t -> entry list
(** The entries in the watch set, in no particular order. The set is
    conservative: the {!Broker} keeps every entry a [Publish] could
    displace in it, and re-checks each one exactly. *)

val clients_of_loc : t -> string -> string list
(** The clients whose cached plan binds this location, sorted. *)

val fold : t -> ('a -> entry -> 'a) -> 'a -> 'a
val size : t -> int
