module type ConsedType = sig
  type node
  type t

  val make : id:int -> node -> t
  val hash : t -> int
  val equal : t -> t -> bool
end

module Make (C : ConsedType) = struct
  (* An open-addressing set over one weak array, probed linearly.
     [hashes.(i)] is [-1] while slot [i] has never been used, and the
     slot's mixed hash afterwards; a used slot whose value the GC has
     collected stays a tombstone until the next rebuild, so probe
     chains never break. The stdlib's [Weak.Make] grows each bucket
     by copying it into a fresh weak array and rehashes everything
     whenever half its buckets overflow: through it, parsing a spec
     with a 16,000-action client took 116 ms, against 49 ms here
     (docs/REPRESENTATION.md). *)
  type table = {
    mutable keys : C.t Weak.t;
    mutable hashes : int array;
    mutable used : int;  (* slots ever filled since the last rebuild *)
    hits_name : string;
    misses_name : string;
    lock : Mutex.t;
        (* interning is shared across broker shards, so every table
           access runs under this lock; the whole [intern] is one
           critical section (lookup + id assignment + insert must be
           atomic or two domains could cons distinct ids for one node) *)
    mutable next : int;
    mutable hits : int;
    mutable misses : int;
  }

  (* Stored hashes combine children linearly, so a chain of nodes hashes
     to an arithmetic progression; a multiplicative mix spreads it over
     the low bits the mask keeps. *)
  let mix c =
    let h = C.hash c * 0x9e3779b97f4a7c1 in
    (h lxor (h lsr 29)) land max_int

  let rec pow2_above n k = if k >= n then k else pow2_above n (2 * k)

  let live t =
    let n = ref 0 in
    for i = 0 to Weak.length t.keys - 1 do
      if Weak.check t.keys i then incr n
    done;
    !n

  (* Rebuild at a capacity of at least four slots per live value, which
     drops the tombstones; called when half the slots are used, so each
     rebuild is paid for by the insertions since the last one. *)
  let rebuild t =
    let keys = t.keys and hashes = t.hashes in
    let cap = pow2_above (4 * live t) 16 in
    t.keys <- Weak.create cap;
    t.hashes <- Array.make cap (-1);
    t.used <- 0;
    for i = 0 to Weak.length keys - 1 do
      match Weak.get keys i with
      | None -> ()
      | Some v ->
          let rec free j =
            if t.hashes.(j) = -1 then j else free ((j + 1) land (cap - 1))
          in
          let j = free (hashes.(i) land (cap - 1)) in
          Weak.set t.keys j (Some v);
          t.hashes.(j) <- hashes.(i);
          t.used <- t.used + 1
    done

  let create ?(initial_size = 1024) name =
    let cap = pow2_above initial_size 16 in
    let t =
      {
        keys = Weak.create cap;
        hashes = Array.make cap (-1);
        used = 0;
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
        {
          Cache.hits = t.hits;
          misses = t.misses;
          entries = Mutex.protect t.lock (fun () -> live t);
        })
      ~reset_counters:(fun () ->
        t.hits <- 0;
        t.misses <- 0)
      ();
    t

  let intern t node =
    Mutex.protect t.lock @@ fun () ->
    if 2 * t.used >= Array.length t.hashes then rebuild t;
    let candidate = C.make ~id:t.next node in
    let h = mix candidate in
    let mask = Array.length t.hashes - 1 in
    let rec probe i =
      let hi = t.hashes.(i) in
      if hi = -1 then begin
        t.misses <- t.misses + 1;
        Obs.Metrics.incr t.misses_name;
        Weak.set t.keys i (Some candidate);
        t.hashes.(i) <- h;
        t.used <- t.used + 1;
        t.next <- t.next + 1;
        candidate
      end
      else if hi = h then
        match Weak.get t.keys i with
        | Some existing when C.equal existing candidate ->
            t.hits <- t.hits + 1;
            Obs.Metrics.incr t.hits_name;
            existing
        | _ -> probe ((i + 1) land mask)
      else probe ((i + 1) land mask)
    in
    probe (h land mask)
end
