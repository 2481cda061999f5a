module type ConsedType = sig
  type node
  type t

  val make : id:int -> node -> t
  val hash : t -> int
  val equal : t -> t -> bool
end

module Make (C : ConsedType) = struct
  module W = Weak.Make (struct
    type t = C.t

    let hash = C.hash
    let equal = C.equal
  end)

  type table = {
    tbl : W.t;
    hits_name : string;
    misses_name : string;
    lock : Mutex.t;
        (* interning is shared across broker shards, so every weak-table
           access runs under this lock; the whole [intern] is one
           critical section (lookup + id assignment + insert must be
           atomic or two domains could cons distinct ids for one node) *)
    mutable next : int;
    mutable hits : int;
    mutable misses : int;
  }

  let create ?(initial_size = 1024) name =
    let t =
      {
        tbl = W.create initial_size;
        hits_name = name ^ ".hits";
        misses_name = name ^ ".misses";
        lock = Mutex.create ();
        next = 0;
        hits = 0;
        misses = 0;
      }
    in
    Cache.register ~name
      ~stats:(fun () ->
        (* counter reads are unlocked: ints load atomically and stats
           are advisory *)
        { Cache.hits = t.hits; misses = t.misses; entries = W.count t.tbl })
      ~reset_counters:(fun () ->
        t.hits <- 0;
        t.misses <- 0)
      ();
    t

  let intern t node =
    Mutex.protect t.lock @@ fun () ->
    let candidate = C.make ~id:t.next node in
    match W.find_opt t.tbl candidate with
    | Some existing ->
        t.hits <- t.hits + 1;
        Obs.Metrics.incr t.hits_name;
        existing
    | None ->
        t.misses <- t.misses + 1;
        Obs.Metrics.incr t.misses_name;
        W.add t.tbl candidate;
        t.next <- t.next + 1;
        candidate
end
