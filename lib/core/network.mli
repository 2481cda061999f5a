(** Networks of services and their operational semantics (paper
    Definition 2 and the Open / Close / Session / Net / Access / Synch
    rules).

    A network is a parallel composition of located components, each
    carrying its own execution history; components may contain nested
    sessions [[S, S']]. Services are published in a global repository
    and joined to sessions according to a {!Plan.t}. Every transition
    that logs history items is subject to the validity monitor, so the
    semantics only ever produces valid histories (the "angelic"
    discipline: offending branches are simply not enabled). *)

type component =
  | Leaf of string * Hexpr.t  (** [ℓ : H] *)
  | Session of component * component  (** [[S, S']] *)

type repo = (string * Hexpr.t) list
(** The trusted repository [R = {ℓⱼ : Hⱼ}]. Locations must be distinct. *)

type client = { monitor : Validity.Monitor.t; plan : Plan.t; comp : component }
(** Each top-level component carries its own plan, matching the paper's
    plan {e vector} [~π] — two clients may bind the same request
    identifier (e.g. a shared broker's request) to different services. *)

type config = client list
(** One entry per top-level parallel component, as in [‖ᵢ ηᵢ, Sᵢ]. *)

(** Global transition labels, for traces à la Fig. 3. *)
type glabel =
  | L_open of Hexpr.req * string * string
      (** request, client location, chosen service location *)
  | L_close of Hexpr.req * string  (** request, surviving location *)
  | L_sync of string * string * string  (** τ: sender, receiver, channel *)
  | L_event of string * Usage.Event.t
  | L_frame_open of string * Usage.Policy.t
  | L_frame_close of string * Usage.Policy.t
  | L_commit of string  (** internal commit of an unguarded choice *)
  | L_crash of string
      (** the service at this location crashed (runtime fault injection;
          never produced by {!steps}) *)
  | L_abort of Hexpr.req * string * string
      (** the supervisor aborted the session for this request: client
          location, failed service location (never produced by {!steps}) *)

val initial : ?plan:Plan.t -> (string * Hexpr.t) list -> config
(** Clients with empty histories, all under the same [plan] (default
    empty). *)

val initial_vector : (Plan.t * (string * Hexpr.t)) list -> config
(** Clients with empty histories and per-client plans ([~π]). *)

val locations : component -> string list

val client_location : component -> string
(** The leftmost leaf — the location of the top-level client that the
    component grew from (sessions join services on the right). *)

val terminated : component -> bool
(** [ℓ : ε] — the component has successfully completed. *)

val config_done : config -> bool

val phi : Hexpr.t -> Usage.Policy.t list
(** [Φ(H)]: the pending framing closings of a terminated-server remnant
    (paper, Close rule side condition). *)

val component_moves :
  repo ->
  Plan.t ->
  component ->
  (glabel * History.item list * component) list
(** All candidate moves of a component, ignoring validity. *)

val steps : ?monitored:bool -> repo -> config -> (int * glabel * config) list
(** All enabled network transitions: candidate moves whose logged items
    pass each client's validity monitor. The [int] is the index of the
    client that moved.

    With [~monitored:false] the monitor is {e switched off} — offending
    items are logged anyway and nothing is filtered. This is how a
    network runs after the static analysis has declared its plans valid
    (§5: “switch off any run-time monitor”); executing an {e invalid}
    plan this way can produce invalid histories. *)

val blocked : repo -> config -> (int * glabel * Validity.violation) list
(** Candidate moves that were filtered out by the monitor — useful for
    diagnostics and for distinguishing security-stuckness from
    communication-stuckness. *)

val glabel_equal : glabel -> glabel -> bool

val pp_component : component Fmt.t
val pp_glabel : glabel Fmt.t
val pp_config : config Fmt.t
val equal_component : component -> component -> bool
(** Physical equality of the residuals, location by location. *)

val hash_component : component -> int
(** Through the residuals' stored structural hashes ({!Hexpr.hash}). *)
