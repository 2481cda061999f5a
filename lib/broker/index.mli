(** The broker's incremental verdict index: cached planner verdicts
    keyed by client, with a {e reverse-dependency map} from each
    plan-bound service location back to the entries whose plans bind
    it. The {!Broker} decides staleness: a mutation drops the entries
    bound to a touched location ({!clients_of_loc}), then scans every
    surviving entry for a changed policy universe or a newly relevant
    service — see [docs/BROKER.md] for the invalidation contract
    (which mutations must drop which entries, and why that is exactly
    the set a cold-start planner could answer differently on). *)

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
val store : t -> entry -> unit
(** Replaces any previous entry for the same client. *)

val drop : t -> string -> bool
(** Remove one client's entry (with its reverse-dependency links);
    [true] if one was present. *)

val clients_of_loc : t -> string -> string list
(** The clients whose cached plan binds this location, sorted. *)

val fold : t -> ('a -> entry -> 'a) -> 'a -> 'a
val size : t -> int
