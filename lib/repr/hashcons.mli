(** Maximal-sharing hash-consing (Filliâtre–Conchon style): every
    structurally-distinct value is built exactly once and given a
    unique, dense-ish [id : int], so structural equality collapses to
    physical equality and ordered containers can key on a machine
    integer instead of re-walking terms.

    The functor is representation-agnostic: the client owns the consed
    record (typically [{ id; hkey; node }]) and tells the table how to
    build one ([make]) and how to compare/hash two candidates
    {e shallowly} — children are compared with [(==)] and hashed by
    their stored ids, which is what makes interning O(node width)
    rather than O(term size).

    The table holds its entries {e weakly} (open addressing over one
    [Weak.t] array): values no longer referenced anywhere else are
    collected by the GC, and a later re-construction of the same
    structure interns to a {e fresh} id. Ids of values that stay alive
    are stable for the whole run; ids are never reused. *)

module type ConsedType = sig
  type node
  (** the shallow, un-consed shape (children already consed) *)

  type t
  (** the consed record owned by the client *)

  val make : id:int -> node -> t
  (** Build a consed record; expected to compute and store the shallow
      hash so {!hash} is a field read. *)

  val hash : t -> int
  (** Shallow hash: from the node's atoms and its children's ids or
      stored hashes. Read once per {!Make.intern}; the table stores it. *)

  val equal : t -> t -> bool
  (** Shallow equality of the nodes: same constructor, equal atoms,
      children physically equal. *)
end

module Make (C : ConsedType) : sig
  type table

  val create : ?initial_size:int -> string -> table
  (** [create name] registers hit/miss counters under [name] in
      {!Cache} and mirrors them to [Obs.Metrics] as [<name>.hits] /
      [<name>.misses]. Intern tables register {e without} a clear hook:
      see {!Cache} for why clearing an intern table is unsound. *)

  val intern : table -> C.node -> C.t
  (** The canonical representative: the existing consed value if this
      shape was seen (and is still alive), otherwise a fresh one with
      the next id. *)
end
