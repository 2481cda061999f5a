open Core

type verdict = Valid of Planner.report | No_plan

type entry = {
  client : string;
  verdict : verdict;
  level : Compliance.level;
  locs : string list;
  policies : string list;
}

type t = {
  entries : (string, entry) Hashtbl.t;
  by_loc : (string, string list ref) Hashtbl.t;
}

let create () = { entries = Hashtbl.create 64; by_loc = Hashtbl.create 64 }

let link t loc client =
  match Hashtbl.find_opt t.by_loc loc with
  | Some cell -> if not (List.mem client !cell) then cell := client :: !cell
  | None -> Hashtbl.replace t.by_loc loc (ref [ client ])

let unlink t loc client =
  match Hashtbl.find_opt t.by_loc loc with
  | None -> ()
  | Some cell ->
      cell := List.filter (fun c -> c <> client) !cell;
      if !cell = [] then Hashtbl.remove t.by_loc loc

let find t client = Hashtbl.find_opt t.entries client

let drop t client =
  match Hashtbl.find_opt t.entries client with
  | None -> false
  | Some e ->
      Hashtbl.remove t.entries client;
      List.iter (fun l -> unlink t l client) e.locs;
      true

let store t e =
  ignore (drop t e.client);
  Hashtbl.replace t.entries e.client e;
  List.iter (fun l -> link t l e.client) e.locs

let clients_of_loc t loc =
  match Hashtbl.find_opt t.by_loc loc with
  | None -> []
  | Some cell -> List.sort String.compare !cell

let fold t f init = Hashtbl.fold (fun _ e acc -> f acc e) t.entries init
let size t = Hashtbl.length t.entries
