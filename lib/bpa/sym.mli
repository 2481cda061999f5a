(** The alphabet of the BPA rendering of history expressions: history
    items (events and framings) plus policy-inert communication labels
    kept for readability of counterexamples. *)

type t =
  | Ev of Usage.Event.t
  | Frm_open of Usage.Policy.t
  | Frm_close of Usage.Policy.t
  | Comm of string  (** rendered communication, e.g. ["a?"]; inert *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : t Fmt.t
