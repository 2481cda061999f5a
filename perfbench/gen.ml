(* Seeded workload generators. Every input the program sees — the .susf
   spec and the request lines — is drawn here from the seed alone, so a
   seed names one exact input set. Specs are rendered with
   [Syntax.Spec.to_susf] and parsed back before use: a generator that
   cannot round-trip through the parser is a benchmark bug. *)

(* The hotel policy, plus the two automata that reserve the witness's
   channels against renaming. *)
let never = [ "go"; "ok" ] |> List.map (fun ev -> (ev, Usage.Policy_lib.never ev))

let automata =
  ("phi", Usage.Policy_lib.hotel)
  :: List.map (fun (ev, a) -> ("never_" ^ ev, a)) never
let hexpr_of_string = Syntax.Parser.hexpr_of_string ~automata
let hexpr_to_string = Core.Hexpr.to_string

let render_spec ~services ~clients =
  let spec = { Syntax.Spec.empty with automata; services; clients } in
  let text = Fmt.str "%a" Syntax.Spec.to_susf spec in
  let back = Syntax.Parser.spec_of_string text in
  let differs a b =
    if List.length a <> List.length b then Some "a declaration"
    else
      List.find_map
        (fun ((n, h), (n', h')) ->
          (* the parser returns normalized expressions *)
          if
            String.equal n n'
            && String.equal
                 (hexpr_to_string (Core.Hexpr.normalize h))
                 (hexpr_to_string h')
          then None
          else Some n)
        (List.combine a b)
  in
  (match
     ( differs services back.Syntax.Spec.services,
       differs clients back.Syntax.Spec.clients )
   with
  | None, None when Option.is_some (Syntax.Spec.find_automaton back "phi") -> ()
  | Some n, _ | _, Some n ->
      failwith ("generated spec does not round-trip through Syntax.Parser: " ^ n)
  | None, None -> failwith "generated spec lost its policy phi");
  text

(* A client of the hotel broker: open(rid: phi(bl, p, t)){ req!.(cobo?.pay! + noav?) } *)
let hotel_client ~rid policy =
  Core.Hexpr.open_ ~rid ~policy (Scenarios.Hotel.client_request_body policy)

(* Hotels with fixed (price, rating) terms in a seeded order: with only a
   few hotels, drawing their terms per seed would swing how many clients
   find a plan, and with it the whole workload's cost. *)
let shuffled_hotels st ~prefix terms =
  let terms = Array.of_list terms in
  for i = Array.length terms - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = terms.(i) in
    terms.(i) <- terms.(j);
    terms.(j) <- t
  done;
  Array.to_list
    (Array.mapi
       (fun i (price, rating) ->
         let name = Printf.sprintf "%s%d" prefix (i + 1) in
         (name, Scenarios.Hotel.hotel name ~price ~rating ~extra:[]))
       terms)

let hotels st = shuffled_hotels st ~prefix:"h"
    [ (35, 70); (45, 95); (55, 80); (65, 100); (75, 65); (85, 90) ]

let spares st = shuffled_hotels st ~prefix:"sp"
    [ (40, 85); (60, 75); (70, 95); (90, 100) ]

(* ---- the socket workloads ---------------------------------------------- *)

type serve_load = {
  spec : string;  (** .susf text the server loads *)
  repo : Core.Network.repo;  (** the parsed-back starting repository *)
  requests : Broker.request array array;  (** per connection, in send order *)
  lines : string array array;  (** the same, rendered as request lines *)
}

let serve_load ~services ~conns profile =
  let spec = render_spec ~services ~clients:[] in
  let repo = Syntax.Spec.repo (Syntax.Parser.spec_of_string spec) in
  let items, _ = Testkit.Workload.generate profile in
  let streams = Broker.Script.partition ~streams:conns items in
  let requests = Array.map Array.of_list streams in
  (* every distinct line must parse back as the server will parse it *)
  let checked = Hashtbl.create 1024 in
  let lines =
    Array.map
      (Array.map (fun r ->
           let l = Broker.Script.request_line ~hexpr_to_string r in
           if not (Hashtbl.mem checked l) then begin
             (match Broker.Script.request_of_line ~hexpr_of_string l with
             | Ok _ -> ()
             | Error e -> failwith ("generated request does not parse: " ^ e));
             Hashtbl.add checked l ()
           end;
           l))
      requests
  in
  { spec; repo; requests; lines }

(* serve-hot: the churn profile of the sharded-broker experiment — 16
   clients cycling the three churn-scenario bodies on the hotel repo,
   20% churn, 70% of serves on one hot client. *)
let hot ~seed ~conns ~requests =
  let clients =
    List.init 16 (fun i ->
        let name, body = List.nth Scenarios.Churn.clients (i mod 3) in
        (Printf.sprintf "%s_x%d" name i, body))
  in
  let profile =
    {
      (Testkit.Workload.default ~clients ~spares:Scenarios.Churn.spares
         ~noise:Scenarios.Churn.noise)
      with
      Testkit.Workload.seed;
      requests;
    }
  in
  serve_load ~services:Scenarios.Churn.repo ~conns profile

(* serve-population: many clients drawn from a few hundred behaviour
   classes (one hotel-policy tuple each) over a hotel repo extended with
   six hotels; uniform serves and plan-relevant churn keep the index
   cold. *)
let population_classes = 200
let population_clients = 2000

let population ~seed ~conns ~requests =
  let st = Testkit.Rng.make ~seed () in
  let hotels = hotels (Testkit.Rng.derive st) in
  let spares = spares (Testkit.Rng.derive st) in
  let names =
    Array.of_list (List.map fst (Scenarios.Hotel.hotels @ hotels))
  in
  let cst = Testkit.Rng.derive st in
  let classes =
    Array.init population_classes (fun _ ->
        let blacklist =
          List.init (Random.State.int cst 3) (fun _ ->
              names.(Random.State.int cst (Array.length names)))
          |> List.sort_uniq String.compare
        in
        let price = 30 + Random.State.int cst 70 in
        let rating = 60 + Random.State.int cst 41 in
        hotel_client ~rid:1
          (Usage.Policy_lib.hotel_policy ~blacklist ~price ~rating))
  in
  let clients =
    List.init population_clients (fun i ->
        (Printf.sprintf "p%d" i, classes.(Random.State.int cst population_classes)))
  in
  let profile =
    {
      (Testkit.Workload.default ~clients ~spares ~noise:Scenarios.Churn.noise)
      with
      Testkit.Workload.seed = Random.State.bits st;
      requests;
      hot = 0.0;
      relevant = 0.9;
    }
  in
  serve_load ~services:(Scenarios.Hotel.repo @ hotels) ~conns profile

(* ---- the one-shot repair spec ------------------------------------------ *)

type rung = Plan | Coalition | Mediated | Declined

type repair_spec = {
  text : string;
  clients : (string * Core.Hexpr.t) list;
  services : (string * Core.Hexpr.t) list;
  trivial : string;  (** the same spec filtered to one trivial client *)
}

let repair_hotel_clients = 100
let repair_mismatched_clients = 100

(* About 200 clients over 15 services: hotel clients whose seeded
   policies admit at least one hotel (the plan rung), buffer and reorder
   mismatched clients (no plan, no coalition: the mediation rung, after a
   full coalition search over every session-flat service), and one
   unmediable witness (declined). The rung mix is fixed; the seed picks
   names, hotels and policy values. *)
let repair ~seed =
  let st = Testkit.Rng.make ~seed () in
  let hotels = hotels (Testkit.Rng.derive st) in
  let priced = Scenarios.Hotel.hotels @ hotels in
  let compliant = Array.of_list (List.filter (fun (n, _) -> n <> "s2") priced) in
  let arg name ev =
    List.find_map
      (fun (e : Usage.Event.t) ->
        match e.Usage.Event.arg with
        | Some (Usage.Value.Int v) when e.Usage.Event.name = ev -> Some v
        | _ -> None)
      (Core.Hexpr.events (List.assoc name priced))
    |> Option.get
  in
  let services =
    Scenarios.Hotel.repo @ hotels @ Scenarios.Mismatched.repo
    @ Scenarios.Mismatched.witness_repo
  in
  let cst = Testkit.Rng.derive st in
  let pick () = fst compliant.(Random.State.int cst (Array.length compliant)) in
  let hotel_clients =
    List.init repair_hotel_clients (fun i ->
        (* a target hotel the policy admits: never black-listed, and
           within price *)
        let target = pick () in
        let blacklist =
          List.init (Random.State.int cst 3) (fun _ -> pick ())
          |> List.filter (fun n -> n <> target)
          |> List.sort_uniq String.compare
        in
        let price = arg target "price" + Random.State.int cst 20 in
        let rating = 60 + Random.State.int cst 41 in
        ( Printf.sprintf "hc%d" i,
          hotel_client ~rid:1
            (Usage.Policy_lib.hotel_policy ~blacklist ~price ~rating) ))
  in
  let mismatched =
    List.init repair_mismatched_clients (fun i ->
        if Random.State.bool cst then
          (Printf.sprintf "mr%d" i, Scenarios.Mismatched.reorder_client)
        else (Printf.sprintf "mb%d" i, Scenarios.Mismatched.buffer_client))
  in
  (* a seeded shuffle, so the output is not ordered by rung *)
  let all = Array.of_list (hotel_clients @ mismatched) in
  for i = Array.length all - 1 downto 1 do
    let j = Random.State.int cst (i + 1) in
    let t = all.(i) in
    all.(i) <- all.(j);
    all.(j) <- t
  done;
  (* the unmediable witness: go!.ok? against a service that never
     emits, with both channels reserved by policy so no rename can route
     it to another service *)
  let witness =
    let policy ev = Usage.Policy_lib.instantiate0 (List.assoc ev never) in
    Core.Hexpr.open_ ~rid:Scenarios.Mismatched.witness_rid ~policy:(policy "ok")
      (Core.Hexpr.frame (policy "go") Scenarios.Mismatched.witness_client_body)
  in
  let clients = Array.to_list all @ [ ("w0", witness) ] in
  {
    text = render_spec ~services ~clients;
    clients;
    services;
    trivial = render_spec ~services ~clients:[ List.hd hotel_clients ];
  }
