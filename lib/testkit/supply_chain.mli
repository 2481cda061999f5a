(** The supply-chain scenario family: 3–6 party order/invoice chains
    that {e only} the orchestration tier can serve. The 4-party chain
    also ships as [examples/data/supply_chain.susf].

    {v
    retailer = open_70 Ord1!.Inv1?
    sc1      = Ord1?.Ord2!.Inv2?.Inv1!
    …
    sc(k)    = Ordk?.Invk!                 (the final stage)
    v}

    Every intermediate stage both serves its upstream and requests from
    its downstream {e inside the same session}, so no single service is
    1:1 compliant with the retailer — but the whole chain, composed
    under a synthesized controller, reaches agreement. The [broken]
    variant's final stage demands a [pay] nobody sends, so synthesis
    declines with a concrete trace down the chain. *)

val rid : int
(** The retailer's request id, [70]. *)

val client_body : parties:int -> Core.Hexpr.t
(** [Ord1!.Inv1?] — the body of the retailer's request. *)

val chain :
  parties:int -> Core.Network.repo * (string * Core.Hexpr.t)
(** [chain ~parties:n] (3 ≤ n ≤ 6): the repository of [n - 1] stages
    (["sc1"] … ) and the retailer client [("retailer", open_70 …)].
    Raises [Invalid_argument] outside the supported range. *)

val broken : parties:int -> Core.Network.repo * (string * Core.Hexpr.t)
(** Same chain, but the final stage is [Ordk?.Pay?.Invk!]: it withholds
    the invoice until a payment no party ever offers — the chain
    deadlocks and no controller exists. *)
