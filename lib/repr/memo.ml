module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Fun.id
end)

module Pair_tbl = Hashtbl.Make (Key.Int_pair)

type counters = {
  hits_name : string;
  misses_name : string;
  mutable hits : int;
  mutable misses : int;
}

let make_counters name =
  { hits_name = name ^ ".hits"; misses_name = name ^ ".misses"; hits = 0; misses = 0 }

let locked lock f =
  Mutex.lock lock;
  let r = f () in
  Mutex.unlock lock;
  r

let register_counters name c lock ~entries ~clear ~invalidate =
  Cache.register ~name ~clear ~invalidate
    ~stats:(fun () ->
      { Cache.hits = c.hits; misses = c.misses; entries = entries () })
    ~reset_counters:(fun () ->
      locked lock (fun () ->
          c.hits <- 0;
          c.misses <- 0))
    ()

(* Probe under the table lock and count in the same critical section:
   shard domains share these tables, and a [mutable] bump outside the
   lock loses counts under contention. The mirrored [Obs.Metrics]
   counters synchronise themselves. *)
let probe lock c find_opt =
  let r =
    locked lock (fun () ->
        let r = find_opt () in
        (match r with
        | Some _ -> c.hits <- c.hits + 1
        | None -> c.misses <- c.misses + 1);
        r)
  in
  Obs.Metrics.incr (if Option.is_some r then c.hits_name else c.misses_name);
  r

(* Memo tables back pure, recursive analyses that are shared across
   broker shards (domains). Each table carries its own lock, held for
   lookups and stores but *never* during [compute]: the computed
   functions recurse into other (and the same) memoized functions, so a
   lock held across compute would deadlock on re-entry. Two domains
   racing on the same key can both compute — the functions are pure and
   their results hash-consed, so the duplicate work is benign and the
   last [replace] wins with an equivalent value. *)

type ('a, 'b) t = {
  tbl : 'b Int_tbl.t;
  key : 'a -> int;
  c : counters;
  lock : Mutex.t;
}

let create ?(initial_size = 256) ~name ~key () =
  let tbl = Int_tbl.create initial_size in
  let c = make_counters name in
  let lock = Mutex.create () in
  register_counters name c lock
    ~entries:(fun () -> Int_tbl.length tbl)
    ~clear:(fun () -> locked lock (fun () -> Int_tbl.reset tbl))
    ~invalidate:(fun id -> locked lock (fun () -> Int_tbl.remove tbl id));
  { tbl; key; c; lock }

let find t a ~compute =
  let k = t.key a in
  match probe t.lock t.c (fun () -> Int_tbl.find_opt t.tbl k) with
  | Some v -> v
  | None ->
      let v = compute a in
      locked t.lock (fun () -> Int_tbl.replace t.tbl k v);
      v

let clear t = locked t.lock (fun () -> Int_tbl.reset t.tbl)
let remove t id = locked t.lock (fun () -> Int_tbl.remove t.tbl id)

(* Drop every pair whose either component is [id]. O(entries) — fine for
   the rare, targeted eviction this supports. *)
let remove_involving tbl id =
  let doomed =
    Pair_tbl.fold
      (fun ((a, b) as k) _ acc -> if a = id || b = id then k :: acc else acc)
      tbl []
  in
  List.iter (Pair_tbl.remove tbl) doomed

module Pair = struct
  type ('a, 'b) t = {
    tbl : 'b Pair_tbl.t;
    key : 'a -> int;
    c : counters;
    lock : Mutex.t;
  }

  let create ?(initial_size = 256) ~name ~key () =
    let tbl = Pair_tbl.create initial_size in
    let c = make_counters name in
    let lock = Mutex.create () in
    register_counters name c lock
      ~entries:(fun () -> Pair_tbl.length tbl)
      ~clear:(fun () -> locked lock (fun () -> Pair_tbl.reset tbl))
      ~invalidate:(fun id -> locked lock (fun () -> remove_involving tbl id));
    { tbl; key; c; lock }

  let find t a b ~compute =
    let k = (t.key a, t.key b) in
    match probe t.lock t.c (fun () -> Pair_tbl.find_opt t.tbl k) with
    | Some v -> v
    | None ->
        let v = compute a b in
        locked t.lock (fun () -> Pair_tbl.replace t.tbl k v);
        v

  let clear t = locked t.lock (fun () -> Pair_tbl.reset t.tbl)
  let remove_involving t id = locked t.lock (fun () -> remove_involving t.tbl id)
end
