open Core

(* Non-compliant but mediable client/service pairs — the workload family
   of the mediator tier. Every pair here fails the direct strict check
   (the product automaton has stuck configurations), yet a bounded
   adapter that reorders, buffers or renames-within-policy makes the
   triple strictly compliant. [witness_*] is the one provably
   unmediable pair: its service never emits anything, so no adapter can
   ever produce the [ok] the client waits for. *)

(* ---- reorder: the client emits a.b.c, the service consumes b/c first - *)

let reorder_rid = 80

let reorder_client_body =
  Hexpr.seq_all
    [ Hexpr.send "a"; Hexpr.send "b"; Hexpr.send "c"; Hexpr.recv "done" ]

let reorder_client = Hexpr.open_ ~rid:reorder_rid reorder_client_body

(* an external choice between the two late messages, then the rest: the
   first buffered [a] matches neither branch, so the mediator must hold
   it and deliver [b] past it — a genuine reorder, no renames *)
let reorder_service =
  Hexpr.branch
    [
      ( "b",
        Hexpr.seq_all [ Hexpr.recv "a"; Hexpr.recv "c"; Hexpr.send "done" ] );
      ( "c",
        Hexpr.seq_all [ Hexpr.recv "a"; Hexpr.recv "b"; Hexpr.send "done" ] );
    ]

(* ---- buffer: an answer arrives while the client still has output ---- *)

let buffer_rid = 81

let buffer_client_body =
  Hexpr.seq_all [ Hexpr.send "order"; Hexpr.send "qty"; Hexpr.recv "ack" ]

let buffer_client = Hexpr.open_ ~rid:buffer_rid buffer_client_body

let buffer_service =
  Hexpr.seq_all [ Hexpr.recv "order"; Hexpr.send "ack"; Hexpr.recv "qty" ]

(* ---- rename: fee! vs pay? — forced, and no policy watches the names - *)

let rename_rid = 82

let rename_client_body =
  Hexpr.seq_all [ Hexpr.send "req"; Hexpr.send "fee"; Hexpr.recv "inv" ]

let rename_client = Hexpr.open_ ~rid:rename_rid rename_client_body

let rename_service =
  Hexpr.seq_all [ Hexpr.recv "req"; Hexpr.recv "pay"; Hexpr.send "inv" ]

(* ---- the same mismatch with the channel name under a policy --------- *)

let blocked_rid = 83
let blocked_policy = Usage.Policy_lib.instantiate0 (Usage.Policy_lib.never "fee")

let blocked_client =
  Hexpr.open_ ~rid:blocked_rid ~policy:blocked_policy rename_client_body

(* ---- the provably unmediable witness -------------------------------- *)

let witness_rid = 84
let witness_client_body = Hexpr.seq (Hexpr.send "go") (Hexpr.recv "ok")
let witness_client = Hexpr.open_ ~rid:witness_rid witness_client_body
let witness_service = Hexpr.recv "go"

(* ---- repositories ---------------------------------------------------- *)

let repo =
  [
    ("m_reorder", reorder_service);
    ("m_buffer", buffer_service);
    ("m_rename", rename_service);
  ]

let witness_repo = [ ("m_witness", witness_service) ]

let pairs =
  [
    ("reorder", reorder_client_body, reorder_service);
    ("buffer", buffer_client_body, buffer_service);
    ("rename", rename_client_body, rename_service);
  ]

(* ---- parametric depth family (B13) ----------------------------------- *)

let chan i = Printf.sprintf "x%d" i

(* client emits x1..xn then awaits done; the service consumes them in
   {e reverse}. With every channel reserved (renames off) the mediator
   must buffer all [n] and replay them backwards — repair cost grows
   with the counterexample depth [n]. *)
let reversed n =
  let client =
    Hexpr.seq_all
      (List.init n (fun i -> Hexpr.send (chan (i + 1))) @ [ Hexpr.recv "done" ])
  in
  let service =
    Hexpr.seq_all
      (List.init n (fun i -> Hexpr.recv (chan (n - i))) @ [ Hexpr.send "done" ])
  in
  (Contract.project client, Contract.project service)

let reversed_channels n = "done" :: List.init n (fun i -> chan (i + 1))
