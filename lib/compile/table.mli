(** Dense transition tables: the lowered form of a contract's LTS.

    States are numbered [0..states-1] in BFS discovery order from the
    root (state 0), actions are interned to small ints through a
    per-table alphabet (first-appearance order), and transitions live
    in flat int arrays — both as ordered per-state rows that mirror
    [Contract.transitions] order exactly (the analyses' iteration
    order is part of their observable behaviour) and as a dense
    [state * nsyms] lookup array for O(1) [delta] probes.

    Only {e closed} contracts lower ([lower] returns [None]
    otherwise): closedness guarantees (a) a state's direction and row
    determine its stuck behaviour (the [Var ⇓ ∅] escape hatch of open
    terms never fires), and (b) recursion unfolds without
    capture-avoiding renaming, so lowering is deterministic across
    processes — the property the on-disk store relies on. *)

type kind =
  | Knil  (** the terminated contract [ε] *)
  | Kinert  (** no transitions but not [ε] (open-term heads; unreachable
                from closed roots, kept for codec totality) *)
  | Kin  (** external choice: every transition inputs *)
  | Kout  (** internal choice: every transition outputs *)

type t = private {
  states : int;
  alphabet : string array;  (** symbol id -> channel name *)
  index : (string, int) Hashtbl.t;  (** channel name -> symbol id *)
  kind : kind array;
  row_syms : int array array;
      (** per state, symbol ids in [Contract.transitions] order *)
  row_tgts : int array array;  (** targets, same order *)
  delta : int array;  (** [state * nsyms + sym] -> target, [-1] if none *)
}

val step : t -> int -> int -> int
(** [step t s sym] is the dense delta probe ([-1] if undefined). *)

val lower : Core.Contract.t -> t option
(** BFS lowering; [None] when the contract is open (free recursion
    variables) — callers fall back to the interpreted path. Increments
    [compile.lowerings] and [compile.lower.states]. *)

val encode : t -> string
(** Single-line, space-free serialization (the store's payload
    syntax). *)

val decode : string -> (t, string) result
(** Inverse of {!encode}, validating every index: state and symbol
    bounds, row/kind consistency, duplicate-free rows. A decoded table
    behaves identically to a freshly lowered one. *)

val contract_key : Core.Contract.t -> string
(** Stable structural serialization of a contract — the on-disk store
    key. Hash-consing ids are process-local, so the store keys entries
    by structure; equal structure ⟹ equal key, across processes. *)
