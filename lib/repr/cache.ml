type stats = { hits : int; misses : int; entries : int }

type entry = {
  name : string;
  clear : (unit -> unit) option;
  invalidate : (int -> unit) option;
  stats : unit -> stats;
  reset_counters : unit -> unit;
}

let registry : entry list ref = ref []

(* Guards the registry list only; each entry's own closures lock their
   backing table themselves, so the list is snapshotted under the lock
   and iterated outside it (no nested lock order to get wrong). *)
let lock = Mutex.create ()

let entries () = Mutex.protect lock (fun () -> !registry)

let register ~name ?clear ?invalidate ~stats ~reset_counters () =
  Mutex.protect lock (fun () ->
      registry := { name; clear; invalidate; stats; reset_counters } :: !registry)

let clear_all () =
  Obs.Metrics.incr "repr.cache.clears";
  List.iter
    (fun e ->
      Option.iter (fun f -> f ()) e.clear;
      e.reset_counters ())
    (entries ())

let invalidate id =
  Obs.Metrics.incr "repr.cache.invalidations";
  List.iter (fun e -> Option.iter (fun f -> f id) e.invalidate) (entries ())

let stats () =
  entries ()
  |> List.map (fun e -> (e.name, e.stats ()))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
