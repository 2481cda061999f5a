type kind =
  | Crash of string
  | Drop of string
  | Delay of string * int
  | Violate of string

type trigger = At of int | Rate of float

type fault = { trigger : trigger; kind : kind }
type spec = fault list

let at k kind = { trigger = At k; kind }
let rate p kind = { trigger = Rate p; kind }

let fires rng ~step fault =
  match fault.trigger with
  | At k -> step = k
  | Rate p ->
      (* draw unconditionally so firing is a function of seed × step *)
      let x = Random.State.float rng 1.0 in
      x < p

let parse_kind s =
  match String.split_on_char ':' s with
  | [ "crash"; loc ] when loc <> "" -> Ok (Crash loc)
  | [ "drop"; chan ] when chan <> "" -> Ok (Drop chan)
  | [ "delay"; chan; d ] when chan <> "" -> (
      match int_of_string_opt d with
      | Some d when d > 0 -> Ok (Delay (chan, d))
      | _ -> Error (Printf.sprintf "delay wants a positive step count: %s" s))
  | [ "violate"; loc ] when loc <> "" -> Ok (Violate loc)
  | _ -> Error (Printf.sprintf "unknown fault kind %S" s)

let parse_trigger s =
  if String.length s > 1 && s.[0] = 'p' then
    match float_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some p when p >= 0.0 && p <= 1.0 -> Ok (Rate p)
    | _ -> Error (Printf.sprintf "bad probability %S" s)
  else
    match int_of_string_opt s with
    | Some k when k >= 0 -> Ok (At k)
    | _ -> Error (Printf.sprintf "bad trigger %S (step number or pPROB)" s)

let parse_one s =
  match String.index_opt s '@' with
  | None -> Error (Printf.sprintf "missing @TRIGGER in %S" s)
  | Some i -> (
      let lhs = String.sub s 0 i
      and rhs = String.sub s (i + 1) (String.length s - i - 1) in
      match (parse_kind lhs, parse_trigger rhs) with
      | Ok kind, Ok trigger -> Ok { trigger; kind }
      | (Error _ as e), _ | _, (Error _ as e) -> e)

let parse s =
  String.split_on_char ',' s
  |> List.filter (fun s -> String.trim s <> "")
  |> List.fold_left
       (fun acc item ->
         match (acc, parse_one (String.trim item)) with
         | Error _, _ -> acc
         | Ok fs, Ok f -> Ok (f :: fs)
         | Ok _, (Error _ as e) -> e)
       (Ok [])
  |> Result.map List.rev

(* ---- serve-loop faults ------------------------------------------------ *)

type serve_kind = Crash_serve | Torn_write

type serve_fault = { after : int; skind : serve_kind }

let serve_fires spec ~accepted =
  let hit f = f.after = accepted in
  (* a torn write is a crash mid-append: when both are staged at the
     same point the torn variant wins, it subsumes the plain crash *)
  match List.find_opt (fun f -> hit f && f.skind = Torn_write) spec with
  | Some f -> Some f.skind
  | None -> Option.map (fun f -> f.skind) (List.find_opt hit spec)

let parse_serve_one s =
  match String.index_opt s '@' with
  | None -> Error (Printf.sprintf "missing @EVENT in %S" s)
  | Some i -> (
      let lhs = String.sub s 0 i
      and rhs = String.sub s (i + 1) (String.length s - i - 1) in
      let skind =
        match lhs with
        | "crash" -> Ok Crash_serve
        | "torn" -> Ok Torn_write
        | _ -> Error (Printf.sprintf "unknown serve fault kind %S" lhs)
      in
      match (skind, int_of_string_opt rhs) with
      | Ok skind, Some after when after >= 0 -> Ok { after; skind }
      | Ok _, _ -> Error (Printf.sprintf "bad event count %S" rhs)
      | (Error _ as e), _ -> e)

let parse_serve s =
  String.split_on_char ',' s
  |> List.filter (fun s -> String.trim s <> "")
  |> List.fold_left
       (fun acc item ->
         match (acc, parse_serve_one (String.trim item)) with
         | Error _, _ -> acc
         | Ok fs, Ok f -> Ok (f :: fs)
         | Ok _, (Error _ as e) -> e)
       (Ok [])
  |> Result.map List.rev

let pp_kind ppf = function
  | Crash loc -> Fmt.pf ppf "crash:%s" loc
  | Drop chan -> Fmt.pf ppf "drop:%s" chan
  | Delay (chan, d) -> Fmt.pf ppf "delay:%s:%d" chan d
  | Violate loc -> Fmt.pf ppf "violate:%s" loc

let pp_fault ppf f =
  match f.trigger with
  | At k -> Fmt.pf ppf "%a@@%d" pp_kind f.kind k
  | Rate p -> Fmt.pf ppf "%a@@p%g" pp_kind f.kind p
