(** Static hygiene checks on a parsed specification — the mistakes the
    type of the calculus cannot catch but a practitioner makes daily:
    plans binding unknown names, policies watching events nobody fires,
    channels with no possible partner. Ill-formed recursion never gets
    this far: {!Parser} rejects a service or client that is not well
    formed. *)

type severity = Error | Warning | Info

type finding = {
  severity : severity;
  subject : string;  (** the declaration concerned *)
  message : string;
}

val spec : Spec.t -> finding list
(** All findings, errors first. Checks:
    - duplicate service/client/plan/program names ([Error]);
    - plan entries binding unknown locations ([Error]) or request
      identifiers no declared expression mentions ([Warning]);
    - client requests not covered by any declared plan ([Warning]);
    - policies (as instantiated anywhere in the spec) that observe event
      names nothing in the spec can fire ([Warning]) or that are
      entirely vacuous over the spec's ground events ([Warning]);
    - channels with an output but no input anywhere, or vice versa
      ([Warning]);
    - requests opened without a policy ([Info]). *)

val pp_finding : finding Fmt.t
val pp_severity : severity Fmt.t
