open Core

type verdict = Valid of Planner.report | No_plan

type entry = {
  client : string;
  verdict : verdict;
  text : string;
  level : Compliance.level;
  locs : string list;
  policies : string list;
}

type t = {
  entries : (string, entry) Hashtbl.t;
  by_loc : (string, (string, unit) Hashtbl.t) Hashtbl.t;
  watched : (string, unit) Hashtbl.t;
}

let create () =
  {
    entries = Hashtbl.create 64;
    by_loc = Hashtbl.create 64;
    watched = Hashtbl.create 64;
  }

let link t loc client =
  match Hashtbl.find_opt t.by_loc loc with
  | Some clients -> Hashtbl.replace clients client ()
  | None ->
      let clients = Hashtbl.create 8 in
      Hashtbl.replace clients client ();
      Hashtbl.replace t.by_loc loc clients

let unlink t loc client =
  match Hashtbl.find_opt t.by_loc loc with
  | None -> ()
  | Some clients ->
      Hashtbl.remove clients client;
      if Hashtbl.length clients = 0 then Hashtbl.remove t.by_loc loc

let find t client = Hashtbl.find_opt t.entries client

let drop t client =
  match Hashtbl.find_opt t.entries client with
  | None -> false
  | Some e ->
      Hashtbl.remove t.entries client;
      Hashtbl.remove t.watched client;
      List.iter (fun l -> unlink t l client) e.locs;
      true

let watch t client on =
  if not on then Hashtbl.remove t.watched client
  else if Hashtbl.mem t.entries client then Hashtbl.replace t.watched client ()

let store t ~watch:on e =
  ignore (drop t e.client);
  Hashtbl.replace t.entries e.client e;
  List.iter (fun l -> link t l e.client) e.locs;
  watch t e.client on

let watched t =
  Hashtbl.fold (fun client () acc -> Hashtbl.find t.entries client :: acc)
    t.watched []

let clients_of_loc t loc =
  match Hashtbl.find_opt t.by_loc loc with
  | None -> []
  | Some clients ->
      Hashtbl.fold (fun c () acc -> c :: acc) clients []
      |> List.sort String.compare

let fold t f init = Hashtbl.fold (fun _ e acc -> f acc e) t.entries init
let size t = Hashtbl.length t.entries
