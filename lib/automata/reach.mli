(** The states reachable in an implicit transition system: the one
    depth-first walk behind [Core.Semantics.reachable],
    [Core.Contract.reachable] and [Bpa.Process.reachable]. *)

val states :
  compare:('a -> 'a -> int) ->
  ?limit:int * string ->
  ('a -> 'a list) ->
  'a list ->
  'a list
(** [states ~compare succ roots]: the [roots] and every state reachable
    from them through [succ], each once, in ascending [compare] order.
    With [~limit:(n, msg)], raises [Failure msg] when a state is about
    to be expanded while more than [n] states have been found. *)
