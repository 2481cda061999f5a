open Core

type profile = {
  seed : int;
  requests : int;
  batch : int;
  churn : float;
  relevant : float;
  session_churn : float;
  hot : float;
  clients : (string * Hexpr.t) list;
  spares : (string * Hexpr.t) list;
  noise : (string * Hexpr.t) list;
}

let default ~clients ~spares ~noise =
  {
    seed = Rng.default_seed;
    requests = 240;
    batch = 8;
    churn = 0.2;
    relevant = 0.25;
    session_churn = 0.15;
    hot = 0.7;
    clients;
    spares;
    noise;
  }

type counts = { serves : int; publishes : int; retracts : int; sessions : int }

let generate p =
  if p.clients = [] then invalid_arg "Workload.generate: no clients";
  let st = Rng.make ~seed:p.seed () in
  let items = ref [] in
  let emit i = items := i :: !items in
  let serves = ref 0
  and publishes = ref 0
  and retracts = ref 0
  and sessions = ref 0 in
  List.iter
    (fun (client, body) -> emit (Broker.Script.Submit (Broker.Open { client; body })))
    p.clients;
  emit Broker.Script.Drain;
  let n_clients = List.length p.clients in
  let closed = Array.make n_clients false in
  (* publish/retract pools toggle: a spare is either out or in *)
  let pool_toggle published pool =
    let j = Random.State.int st (Array.length published) in
    let loc, service = List.nth pool j in
    if published.(j) then begin
      incr retracts;
      published.(j) <- false;
      emit (Broker.Script.Submit (Broker.Retract { loc }))
    end
    else begin
      incr publishes;
      published.(j) <- true;
      emit (Broker.Script.Submit (Broker.Publish { loc; service }))
    end
  in
  let spare_up = Array.make (max 1 (List.length p.spares)) false in
  let noise_up = Array.make (max 1 (List.length p.noise)) false in
  for k = 1 to p.requests do
    let r = Random.State.float st 1.0 in
    if r < p.churn then begin
      let m = Random.State.float st 1.0 in
      if m < p.session_churn && n_clients > 1 then begin
        (* open/close churn — never the hot client, so serving always
           has a live target *)
        incr sessions;
        let i = 1 + Random.State.int st (n_clients - 1) in
        let client, body = List.nth p.clients i in
        if closed.(i) then begin
          closed.(i) <- false;
          emit (Broker.Script.Submit (Broker.Open { client; body }))
        end
        else begin
          closed.(i) <- true;
          emit (Broker.Script.Submit (Broker.Close { client }))
        end
      end
      else if
        (Random.State.float st 1.0 < p.relevant || p.noise = [])
        && p.spares <> []
      then pool_toggle spare_up p.spares
      else if p.noise <> [] then pool_toggle noise_up p.noise
    end
    else begin
      (* hot-key skew: most serves hit the first client *)
      incr serves;
      let i =
        if n_clients = 1 || Random.State.float st 1.0 < p.hot then 0
        else 1 + Random.State.int st (n_clients - 1)
      in
      let i = if closed.(i) then 0 else i in
      emit (Broker.Script.Submit (Broker.Serve { client = fst (List.nth p.clients i) }))
    end;
    if k mod p.batch = 0 then emit Broker.Script.Drain
  done;
  emit Broker.Script.Drain;
  ( List.rev !items,
    {
      serves = !serves;
      publishes = !publishes;
      retracts = !retracts;
      sessions = !sessions;
    } )
