(* Correctness gates. Every failure found here counts in the result's
   [failed]; a run with failures reports [correct = false]. *)

let one_line s =
  String.split_on_char '\n' s
  |> List.map String.trim
  |> List.filter (fun l -> l <> "")
  |> String.concat " "

(* The reply line the socket front end writes for a response. *)
let reply_line ~shards (resp : Broker.response) =
  let tag =
    match Broker.target ~shards resp.Broker.request with
    | Broker.Broadcast -> "*"
    | Broker.Shard i -> string_of_int i
  in
  Fmt.str "ok %s %d %s" tag resp.Broker.seq
    (one_line (Fmt.str "%a" Broker.pp_outcome resp.Broker.outcome))

(* Replay each shard's journal into a fresh engine over the starting
   repository and hold every acknowledged reply against the replayed
   response with the same shard and sequence number, byte for byte.
   Broadcasts are answered from shard 0. Returns (not ok, mismatched). *)
let journal_replay ~journal ~shards ~repo (replies : string array array) =
  let rendered =
    Array.init shards (fun i ->
        let path = Printf.sprintf "%s.%d" journal i in
        let entries =
          match Broker.Journal.read ~hexpr_of_string:Gen.hexpr_of_string path with
          | Ok r -> r.Broker.Journal.entries
          | Error e -> failwith (Fmt.str "%a" Broker.Journal.pp_error e)
        in
        let fresh = Broker.create repo in
        let tbl = Hashtbl.create 4096 in
        List.iter
          (fun (e : Broker.Journal.entry) ->
            let resp =
              if e.shed then Broker.replay_shed fresh ~seq:e.seq e.request
              else if e.rescued then
                Broker.replay_rescue fresh ~seq:e.seq ~level:e.level e.request
              else Broker.replay fresh ~seq:e.seq ~level:e.level e.request
            in
            Hashtbl.replace tbl resp.Broker.seq (reply_line ~shards resp))
          entries;
        tbl)
  in
  let not_ok = ref 0 and mismatched = ref 0 in
  Array.iter
    (Array.iter (fun reply ->
         match String.split_on_char ' ' reply with
         | "ok" :: tag :: seq :: _ -> (
             let shard = if tag = "*" then Some 0 else int_of_string_opt tag in
             match (shard, int_of_string_opt seq) with
             | Some s, Some q when s >= 0 && s < shards -> (
                 match Hashtbl.find_opt rendered.(s) q with
                 | Some want when String.equal want reply -> ()
                 | _ -> incr mismatched)
             | _ -> incr mismatched)
         | _ -> incr not_ok))
    replies;
  (!not_ok, !mismatched)

(* `susf serve --recover --check`: recover every shard journal and hold
   each recovered verdict against the cold oracle. Returns (verdicts
   checked, mismatches). *)
let recover_check ~susf ~dir ~spec ~shards ~journal =
  let log = Filename.concat dir "recover.log" in
  let code =
    Proc.wait
      (Proc.spawn ~stderr:log
         [|
           susf; "serve"; spec; "--listen"; "0"; "--shards"; string_of_int shards;
           "--journal"; journal; "--recover"; "--check";
         |])
  in
  let text = Proc.read_file log in
  let summary =
    String.split_on_char '\n' text
    |> List.find_map (fun l ->
           Scanf.sscanf_opt l
             "-- %d recovered verdicts checked against the cold oracle, %d \
              mismatches"
             (fun c m -> (c, m)))
  in
  match summary with
  | Some (checked, mism) when code = 0 -> (checked, mism)
  | Some (checked, mism) -> (checked, max 1 mism)
  | None -> failwith ("recover --check gave no summary: " ^ text)

(* ---- the repair ladder ------------------------------------------------- *)

(* The in-process cold oracle: the rung the full repair ladder settles
   each client on, from empty caches. *)
let oracle_rungs (spec : Gen.repair_spec) =
  Repr.Cache.clear_all ();
  let repo = spec.Gen.services in
  List.map
    (fun (name, h) ->
      let rung =
        match Mediator.Repair.analyze repo ~client:(name, h) with
        | Mediator.Repair.Planned _ -> Gen.Plan
        | Mediator.Repair.Orchestrated _ -> Gen.Coalition
        | Mediator.Repair.Mediated _ -> Gen.Mediated
        | Mediator.Repair.Declined _ -> Gen.Declined
      in
      (name, rung))
    spec.Gen.clients

(* The rung `susf plans --mediate` printed for each client block. *)
let printed_rungs stdout =
  let blocks = ref [] in
  List.iter
    (fun l ->
      (* "client NAME:" heads a block; counterexample dumps also hold
         "client: ..." lines, which are not block heads *)
      match Scanf.sscanf_opt l "client %[^: ]:%!" Fun.id with
      | Some name when name <> "" -> blocks := (name, ref []) :: !blocks
      | _ -> (
          match !blocks with (_, ls) :: _ -> ls := l :: !ls | [] -> ()))
    (String.split_on_char '\n' stdout);
  let contains sub l =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length l && (String.sub l i n = sub || go (i + 1))
    in
    go 0
  in
  List.rev_map
    (fun (name, ls) ->
      let has sub = List.exists (contains sub) !ls in
      let rung =
        if has "mediated triple re-verified" then Some Gen.Mediated
        else if has "controller re-verified" then Some Gen.Coalition
        else if has ": VALID (" then Some Gen.Plan
        else if
          (* the mediator's decline renderings *)
          List.exists has
            [ "mediation candidates"; "compliance fragment"; "unmediable";
              "did not re-verify" ]
        then Some Gen.Declined
        else None
      in
      (name, rung))
    !blocks

let rung_mismatches ~oracle ~printed =
  if List.length oracle <> List.length printed then max 1 (List.length oracle)
  else
    List.fold_left2
      (fun n (c, r) (c', r') -> if c = c' && Some r = r' then n else n + 1)
      0 oracle printed
