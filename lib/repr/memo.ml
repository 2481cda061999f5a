module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Fun.id
end)

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
  lock : Mutex.t;
  hits_name : string;
  misses_name : string;
  mutable hits : int;
  mutable misses : int;
}

let locked lock f =
  Mutex.lock lock;
  let r = f () in
  Mutex.unlock lock;
  r

let create ?(initial_size = 256) ~name ~key () =
  let t =
    {
      tbl = Int_tbl.create initial_size;
      key;
      lock = Mutex.create ();
      hits_name = name ^ ".hits";
      misses_name = name ^ ".misses";
      hits = 0;
      misses = 0;
    }
  in
  Cache.register ~name
    ~clear:(fun () -> locked t.lock (fun () -> Int_tbl.reset t.tbl))
    ~invalidate:(fun id -> locked t.lock (fun () -> Int_tbl.remove t.tbl id))
    ~stats:(fun () ->
      {
        Cache.hits = t.hits;
        misses = t.misses;
        entries = Int_tbl.length t.tbl;
      })
    ~reset_counters:(fun () ->
      locked t.lock (fun () ->
          t.hits <- 0;
          t.misses <- 0))
    ();
  t

(* Probe under the table lock and count in the same critical section:
   shard domains share these tables, and a [mutable] bump outside the
   lock loses counts under contention. The mirrored [Obs.Metrics]
   counters synchronise themselves. *)
let find t a ~compute =
  let k = t.key a in
  let cached =
    locked t.lock (fun () ->
        let r = Int_tbl.find_opt t.tbl k in
        (match r with
        | Some _ -> t.hits <- t.hits + 1
        | None -> t.misses <- t.misses + 1);
        r)
  in
  Obs.Metrics.incr
    (if Option.is_some cached then t.hits_name else t.misses_name);
  match cached with
  | Some v -> v
  | None ->
      let v = compute a in
      locked t.lock (fun () -> Int_tbl.replace t.tbl k v);
      v
