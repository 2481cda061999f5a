(** The table-driven pair analysis: the compiled backend for
    [Product.survey], and through it for every pairwise compliance
    question ([Product.compliant], [Product.counterexample], the
    planner's level ladder).

    The survey runs on lowered tables and mirrors the interpreted BFS
    of [Product.survey] operation for operation — discovery order,
    per-state transition order, the first-unmatched probe order of
    [Product.final_reason], parent bookkeeping and the three-colour
    cycle walk — so its verdicts (counts, flags and the rendered
    counterexample) are byte-identical to the oracle.

    Product states are keyed in hashtables, so a survey's cost follows
    the pairs it reaches, not the [n1 * n2] pair space. It returns
    [None] only if a counterexample path fails to replay on the
    contracts — callers fall back to the interpreted path, never to a
    wrong verdict. *)

val survey :
  Table.t ->
  Table.t ->
  c1:Core.Contract.t ->
  c2:Core.Contract.t ->
  Core.Product.survey option
(** [survey l1 l2 ~c1 ~c2] with [l1 = lower c1], [l2 = lower c2]. The
    root contracts are only consulted to rebuild the (short)
    counterexample path, so decoded tables — which carry no contract
    back-map — survey just as well as fresh ones. *)
