type item = Submit of Engine.request | Tick | Drain

(* Whole-line comments only: events spell as [#name(v)] inside hexpr
   sources, so an inline ['#'] is not a comment marker. *)
let strip_comment line =
  let t = String.trim line in
  if t <> "" && t.[0] = '#' then "" else line

let split_words s =
  String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

(* "name = hexpr-source" after the verb: split at the first '=' *)
let name_and_source rest =
  match String.index_opt rest '=' with
  | None -> None
  | Some i ->
      let name = String.trim (String.sub rest 0 i) in
      let src =
        String.trim (String.sub rest (i + 1) (String.length rest - i - 1))
      in
      if name = "" || src = "" || String.contains name ' ' then None
      else Some (name, src)

let parse_policy words =
  (* out-of-range values are rejected here, at parse time, so an
     operator script fails with a FILE:LINE diagnostic instead of a
     runtime [Invalid_policy] response mid-replay *)
  let positive name n k =
    match int_of_string_opt n with
    | Some v when v >= 1 -> k v
    | Some v -> Error (Fmt.str "bad %s %d (must be >= 1)" name v)
    | None -> Error (Fmt.str "bad %s %S (want an integer)" name n)
  in
  let rec go acc = function
    | [] -> Ok acc
    | "queue" :: n :: rest ->
        positive "queue" n (fun q -> go { acc with Engine.queue = Some q } rest)
    | "budget" :: n :: rest ->
        positive "budget" n (fun b ->
            go { acc with Engine.budget = Some b } rest)
    | "floor" :: l :: rest -> (
        match Core.Compliance.level_of_string l with
        | Ok f -> go { acc with Engine.floor = Some f } rest
        | Error msg -> Error (Fmt.str "bad floor %S: %s" l msg))
    | [ (("queue" | "budget" | "floor") as w) ] ->
        Error (Fmt.str "%s needs a value" w)
    | w :: _ -> Error (Fmt.str "unknown policy field %S" w)
  in
  go { Engine.queue = None; budget = None; floor = None } words

let parse_line ~hexpr_of_string line =
  let line = String.trim (strip_comment line) in
  if line = "" then Ok None
  else
    let verb, rest =
      match String.index_opt line ' ' with
      | None -> (line, "")
      | Some i ->
          ( String.sub line 0 i,
            String.trim (String.sub line (i + 1) (String.length line - i - 1))
          )
    in
    let with_hexpr k =
      match name_and_source rest with
      | None ->
          Error (Fmt.str "expected '%s NAME = HEXPR', got %S" verb rest)
      | Some (name, src) -> (
          match hexpr_of_string src with
          | h -> Ok (k name h)
          | exception Failure msg ->
              Error (Fmt.str "bad history expression %S: %s" src msg)
          | exception e ->
              Error
                (Fmt.str "bad history expression %S: %s" src
                   (Printexc.to_string e)))
    in
    let one_word k =
      match split_words rest with
      | [ w ] -> Ok (k w)
      | _ -> Error (Fmt.str "expected '%s NAME', got %S" verb rest)
    in
    Result.map Option.some
    @@
    match verb with
    | "tick" when rest = "" -> Ok Tick
    | "drain" when rest = "" -> Ok Drain
    | "open" ->
        with_hexpr (fun client body ->
            Submit (Engine.Open { client; body }))
    | "publish" ->
        with_hexpr (fun loc service -> Submit (Engine.Publish { loc; service }))
    | "update" ->
        with_hexpr (fun loc service -> Submit (Engine.Update { loc; service }))
    | "close" -> one_word (fun client -> Submit (Engine.Close { client }))
    | "serve" -> one_word (fun client -> Submit (Engine.Serve { client }))
    | "orchestrate" ->
        one_word (fun client -> Submit (Engine.Orchestrate { client }))
    | "mediate" -> one_word (fun client -> Submit (Engine.Mediate { client }))
    | "retract" -> one_word (fun loc -> Submit (Engine.Retract { loc }))
    | "run" -> (
        match split_words rest with
        | [ client; "seed"; n ] -> (
            match int_of_string_opt n with
            | Some seed -> Ok (Submit (Engine.Run { client; seed }))
            | None -> Error (Fmt.str "bad seed %S (want 'run CLIENT seed INT')" n))
        | [ client ] -> Ok (Submit (Engine.Run { client; seed = 0 }))
        | _ -> Error (Fmt.str "expected 'run CLIENT [seed INT]', got %S" rest))
    | "policy" -> (
        match parse_policy (split_words rest) with
        | Ok delta -> Ok (Submit (Engine.Set_policy delta))
        | Error msg -> Error msg)
    | _ -> Error (Fmt.str "unknown verb %S" verb)

let parse ?file ~hexpr_of_string text =
  let lines = String.split_on_char '\n' text in
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match parse_line ~hexpr_of_string line with
        | Ok None -> go acc (lineno + 1) rest
        | Ok (Some item) -> go (item :: acc) (lineno + 1) rest
        | Error msg ->
            Error
              (match file with
              | Some f -> Fmt.str "%s:%d: %s" f lineno msg
              | None -> Fmt.str "line %d: %s" lineno msg))
  in
  go [] 1 lines

(* ---- the one-line request codec (journal payloads) ------------------- *)

(* Collapse formatter line breaks (newline plus indentation) to single
   spaces: hexpr pretty-printers only break at spaces, so the collapsed
   rendering parses back to the same term. *)
let one_line s =
  String.split_on_char '\n' s
  |> List.map String.trim
  |> List.filter (fun l -> l <> "")
  |> String.concat " "

let request_line ~hexpr_to_string (r : Engine.request) =
  let h x = one_line (hexpr_to_string x) in
  let opt word show = function None -> "" | Some v -> " " ^ word ^ " " ^ show v in
  match r with
  | Engine.Open { client; body } -> "open " ^ client ^ " = " ^ h body
  | Engine.Close { client } -> "close " ^ client
  | Engine.Serve { client } -> "serve " ^ client
  | Engine.Orchestrate { client } -> "orchestrate " ^ client
  | Engine.Mediate { client } -> "mediate " ^ client
  | Engine.Run { client; seed } -> "run " ^ client ^ " seed " ^ string_of_int seed
  | Engine.Publish { loc; service } -> "publish " ^ loc ^ " = " ^ h service
  | Engine.Retract { loc } -> "retract " ^ loc
  | Engine.Update { loc; service } -> "update " ^ loc ^ " = " ^ h service
  | Engine.Set_policy { queue; budget; floor } ->
      "policy"
      ^ opt "queue" string_of_int queue
      ^ opt "budget" string_of_int budget
      ^ opt "floor" Core.Compliance.level_to_string floor

let request_of_line ~hexpr_of_string line =
  match parse_line ~hexpr_of_string line with
  | Ok (Some (Submit r)) -> Ok r
  | Ok (Some (Tick | Drain)) | Ok None -> Error "not a request line"
  | Error msg -> Error msg

(* Split a script into per-connection request streams for the socket
   front end: requests follow their shard's routing rule
   ([Engine.target]), so one client's open/serve/close order is
   preserved end to end; broadcasts (mutations, policy changes) go to
   stream 0, and tick/drain boundaries are dropped — concurrency
   replaces them. *)
let partition ~streams items =
  if streams < 1 then invalid_arg "Script.partition: streams must be >= 1";
  let out = Array.make streams [] in
  List.iter
    (function
      | Tick | Drain -> ()
      | Submit r ->
          let i =
            match Engine.target ~shards:streams r with
            | Engine.Shard i -> i
            | Engine.Broadcast -> 0
          in
          out.(i) <- r :: out.(i))
    items;
  Array.map List.rev out

let pp_item ppf = function
  | Submit r -> Engine.pp_request ppf r
  | Tick -> Fmt.string ppf "tick"
  | Drain -> Fmt.string ppf "drain"
