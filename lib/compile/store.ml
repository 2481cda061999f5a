(* Bump [format_version] when the line layout changes and
   [compiler_version] when lowering or the codec change meaning: stale
   files are then refused wholesale and rebuilt. *)
let format_version = 2
let compiler_version = 1

let header =
  Printf.sprintf "susf-tables %d %d" format_version compiler_version

let lock = Mutex.create ()
let path : string option ref = ref None
let tbl : (string, Table.t) Hashtbl.t = Hashtbl.create 64
let dirty = ref false
let hits = ref 0
let misses = ref 0

let () =
  Repr.Cache.register ~name:"compile.store"
    ~stats:(fun () ->
      Mutex.lock lock;
      let entries = Hashtbl.length tbl in
      Mutex.unlock lock;
      { Repr.Cache.hits = !hits; misses = !misses; entries })
    ~reset_counters:(fun () ->
      hits := 0;
      misses := 0)
    ()

let checksummed rest = Printf.sprintf "%d %s" (Repr.Fnv.hash32 rest) rest

let parse_line ~file ~lineno line =
  let fail msg = Error (Printf.sprintf "%s:%d: %s" file lineno msg) in
  match String.split_on_char ' ' line with
  | [ crc; key; table ] -> (
      let rest = Printf.sprintf "%s %s" key table in
      match int_of_string_opt crc with
      | None -> fail "malformed checksum"
      | Some c when c <> Repr.Fnv.hash32 rest -> fail "checksum mismatch"
      | Some _ -> (
          match Table.decode table with
          | Ok t -> Ok (key, t)
          | Error e -> fail ("bad table: " ^ e)))
  | _ -> fail "malformed cache entry"

let load file =
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error _ -> Ok []  (* missing file: a fresh cache *)
  | content -> (
      (* a crash mid-append leaves an unterminated final line; drop it,
         like the broker journal does *)
      let content =
        match String.rindex_opt content '\n' with
        | Some i when i = String.length content - 1 -> content
        | Some i -> String.sub content 0 (i + 1)
        | None -> ""
      in
      if String.equal content "" then Ok []
      else
        let lines = String.split_on_char '\n' content in
        let lines =
          match List.rev lines with "" :: r -> List.rev r | _ -> lines
        in
        match lines with
        | [] -> Ok []
        | h :: entries ->
            if not (String.equal h header) then
              Error
                (Printf.sprintf "%s:1: bad or stale table-cache header %S" file
                   h)
            else
              let rec go lineno acc = function
                | [] -> Ok (List.rev acc)
                | line :: rest -> (
                    match parse_line ~file ~lineno line with
                    | Ok entry -> go (lineno + 1) (entry :: acc) rest
                    | Error _ as e -> e)
              in
              go 2 [] entries)

let attach file =
  Mutex.lock lock;
  path := Some file;
  Hashtbl.reset tbl;
  dirty := false;
  let r =
    match load file with
    | Ok entries ->
        List.iter (fun (k, t) -> Hashtbl.replace tbl k t) entries;
        Ok (List.length entries)
    | Error _ as e -> e
  in
  Mutex.unlock lock;
  r

let detach () =
  Mutex.lock lock;
  path := None;
  Hashtbl.reset tbl;
  dirty := false;
  Mutex.unlock lock

let attached () =
  Mutex.lock lock;
  let p = !path in
  Mutex.unlock lock;
  p

let save () =
  Mutex.lock lock;
  let r =
    match !path with
    | None -> Ok 0
    | Some _ when not !dirty -> Ok (Hashtbl.length tbl)
    | Some file -> (
        let entries =
          Hashtbl.fold (fun k t acc -> (k, t) :: acc) tbl []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        in
        let tmp = file ^ ".tmp" in
        match
          Out_channel.with_open_bin tmp (fun oc ->
              Out_channel.output_string oc (header ^ "\n");
              List.iter
                (fun (k, t) ->
                  let rest = Printf.sprintf "%s %s" k (Table.encode t) in
                  Out_channel.output_string oc (checksummed rest ^ "\n"))
                entries);
          Sys.rename tmp file
        with
        | () ->
            dirty := false;
            Ok (List.length entries)
        | exception Sys_error e -> Error e)
  in
  Mutex.unlock lock;
  r

let find key =
  Mutex.lock lock;
  let r =
    if !path = None then None
    else
      match Hashtbl.find_opt tbl key with
      | Some t ->
          incr hits;
          Obs.Metrics.incr "compile.cache.hits";
          Some t
      | None ->
          incr misses;
          Obs.Metrics.incr "compile.cache.misses";
          None
  in
  Mutex.unlock lock;
  r

let add key t =
  Mutex.lock lock;
  if !path <> None && not (Hashtbl.mem tbl key) then begin
    Hashtbl.replace tbl key t;
    dirty := true
  end;
  Mutex.unlock lock

let entries () =
  Mutex.lock lock;
  let n = Hashtbl.length tbl in
  Mutex.unlock lock;
  n
