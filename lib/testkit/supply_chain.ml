open Core

let rid = 70
let ord i = Printf.sprintf "ord%d" i
let inv i = Printf.sprintf "inv%d" i

let client_body ~parties:_ =
  Hexpr.seq (Hexpr.send (ord 1)) (Hexpr.recv (inv 1))

let check_parties n =
  if n < 3 || n > 6 then
    invalid_arg "Testkit.Supply_chain: parties must be between 3 and 6"

(* Stage i forwards the order downstream and the invoice upstream; the
   final stage just invoices. [final] lets the broken variant replace
   the last stage. *)
let stages ~parties ~final =
  let k = parties - 1 in
  List.init k (fun idx ->
      let i = idx + 1 in
      let body =
        if i = k then final i
        else
          Hexpr.seq_all
            [
              Hexpr.recv (ord i);
              Hexpr.send (ord (i + 1));
              Hexpr.recv (inv (i + 1));
              Hexpr.send (inv i);
            ]
      in
      (Printf.sprintf "sc%d" i, body))

let make ~parties ~final =
  check_parties parties;
  let repo = stages ~parties ~final in
  let client =
    ("retailer", Hexpr.open_ ~rid (client_body ~parties))
  in
  (repo, client)

let chain ~parties =
  make ~parties ~final:(fun i ->
      Hexpr.seq (Hexpr.recv (ord i)) (Hexpr.send (inv i)))

let broken ~parties =
  make ~parties ~final:(fun i ->
      Hexpr.seq_all [ Hexpr.recv (ord i); Hexpr.recv "pay"; Hexpr.send (inv i) ])
