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
   last [replace] wins with an equivalent value. The functor argument is
   the key shape: the lock, the counts and the registration are shared. *)
module Make (T : sig
  type key
  type 'b t

  val create : int -> 'b t
  val find_opt : 'b t -> key -> 'b option
  val replace : 'b t -> key -> 'b -> unit
  val reset : 'b t -> unit
  val length : 'b t -> int
  val invalidate : 'b t -> int -> unit
end) =
struct
  type ('a, 'b) t = {
    tbl : 'b T.t;
    key : 'a -> T.key;
    lock : Mutex.t;
    hits_name : string;
    misses_name : string;
    mutable hits : int;
    mutable misses : int;
  }

  let create ~name ~key () =
    let t =
      {
        tbl = T.create 256;
        key;
        lock = Mutex.create ();
        hits_name = name ^ ".hits";
        misses_name = name ^ ".misses";
        hits = 0;
        misses = 0;
      }
    in
    let locked f () = Mutex.protect t.lock f in
    Cache.register ~name
      ~clear:(locked (fun () -> T.reset t.tbl))
      ~invalidate:(fun id -> locked (fun () -> T.invalidate t.tbl id) ())
      ~stats:(fun () ->
        { Cache.hits = t.hits; misses = t.misses; entries = T.length t.tbl })
      ~reset_counters:
        (locked (fun () ->
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
      Mutex.protect t.lock (fun () ->
          let r = T.find_opt t.tbl k in
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
        Mutex.protect t.lock (fun () -> T.replace t.tbl k v);
        v
end

include Make (struct
  include Int_tbl

  let invalidate = Int_tbl.remove
end)

(* A pair table evicts an id by scanning for the pairs that involve it.
   Only a retracted or updated service is evicted, and few pairs are
   held then; [fold] reads the buckets where [filter_map_inplace] would
   write every one of them back. *)
module Pair = Make (struct
  include Key.Pair_tbl

  let invalidate t id =
    fold (fun ((a, b) as k) _ ks -> if a = id || b = id then k :: ks else ks)
      t []
    |> List.iter (remove t)
end)
