(** The mediator tier's workload family: client/service pairs that are
    {e not} strictly compliant — the product automaton reaches stuck
    configurations — yet become strictly compliant once a bounded-buffer
    adapter stands between them.

    {v
    reorder: a!.b!.c!.done?   vs  (b?.a?.c? + c?.a?.b?).done!   — hold a, deliver past it
    buffer : order!.qty!.ack? vs  order?.ack!.qty?              — park ack while qty drains
    rename : req!.fee!.inv?   vs  req?.pay?.inv!                — forced fee→pay rename
    blocked: the rename pair under policy never(fee)            — rename forbidden, declines
    witness: go!.ok?          vs  go?                           — provably unmediable
    v}

    The witness is unmediable by any adapter whatsoever: its service
    never emits a message, so nothing can ever produce the [ok] the
    client awaits — the decline must come with a concrete trace. *)

val reorder_rid : int
val reorder_client_body : Core.Hexpr.t
val reorder_client : Core.Hexpr.t
val reorder_service : Core.Hexpr.t

val buffer_rid : int
val buffer_client_body : Core.Hexpr.t
val buffer_client : Core.Hexpr.t
val buffer_service : Core.Hexpr.t

val rename_rid : int
val rename_client_body : Core.Hexpr.t
val rename_client : Core.Hexpr.t
val rename_service : Core.Hexpr.t

val blocked_rid : int

val blocked_policy : Usage.Policy.t
(** [never(fee)]: watches the very channel the rename repair would
    touch, so the name is reserved and the repair must decline. *)

val blocked_client : Core.Hexpr.t
(** The rename client's body under [blocked_policy]. *)

val witness_rid : int
val witness_client_body : Core.Hexpr.t
val witness_client : Core.Hexpr.t
val witness_service : Core.Hexpr.t

val repo : Core.Network.repo
(** The three mediable services, at ["m_reorder"], ["m_buffer"],
    ["m_rename"]. None of them directly serves any of the clients. *)

val witness_repo : Core.Network.repo
(** Just the witness service at ["m_witness"]. *)

val pairs : (string * Core.Hexpr.t * Core.Hexpr.t) list
(** [(name, client_body, service)] for the three mediable pairs. *)

val reversed : int -> Core.Contract.t * Core.Contract.t
(** [reversed n]: the client emits [x1..xn] then awaits [done]; the
    service consumes them in reverse. With all channels reserved (see
    {!reversed_channels}) the only repair is to buffer all [n] messages
    and replay them backwards, so mediation cost scales with the
    counterexample depth — the B13 family. Needs capacity ≥ n. *)

val reversed_channels : int -> string list
(** All channel names of {!reversed}[ n], to reserve renames away. *)
