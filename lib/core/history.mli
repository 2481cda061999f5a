(** Execution histories [η ∈ (Ev ∪ Frm)*] (paper §3.1). *)

type item =
  | Ev of Usage.Event.t  (** an access event [α] *)
  | Op of Usage.Policy.t  (** framing opening [Lφ] *)
  | Cl of Usage.Policy.t  (** framing closing [Mφ] *)

type t = item list
(** Chronological order (oldest first). *)

val empty : t

val flatten : t -> Usage.Event.t list
(** [η♭]: the history with all framing events erased. *)

val active : t -> Usage.Policy.t list
(** [AP(η)]: the multiset of policies opened and not yet closed, in
    opening order. *)

val is_balanced : t -> bool
(** Every opened framing is closed, well-nested-ness not required — the
    paper's balance is multiset-based via [AP]; a history is balanced
    when no framing remains active and no close occurs without a
    matching open. *)

val is_prefix_of_balanced : t -> bool
(** No close occurs without a matching earlier open (the histories that
    show up when executing a network). *)

val prefixes : t -> t list
(** All prefixes, shortest first, including the empty one and [t]. *)

val of_actions : Action.t list -> t
(** Project a stand-alone trace onto its loggable part
    (events and framings; communications are discarded). *)

val equal : t -> t -> bool
val pp_item : item Fmt.t
val pp : t Fmt.t
