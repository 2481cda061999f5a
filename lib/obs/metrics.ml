let enabled = ref false

type hist = {
  h_bounds : int array;
  h_counts : int array;  (* length = Array.length h_bounds + 1 (overflow) *)
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_max : int;
}

let counters : (string, int ref) Hashtbl.t = Hashtbl.create 32
let gauges : (string, int ref) Hashtbl.t = Hashtbl.create 16
let histograms : (string, hist) Hashtbl.t = Hashtbl.create 16

(* The registry is process-global and instruments fire from every
   broker shard (domain), so all table access and cell updates run
   under one lock. The [!enabled] fast path stays lock-free: when the
   sink is not installed (the default), instrumentation costs one
   atomic load. *)
let lock = Mutex.create ()

let reset () =
  Mutex.protect lock (fun () ->
      Hashtbl.reset counters;
      Hashtbl.reset gauges;
      Hashtbl.reset histograms)

let install () =
  enabled := true;
  reset ()

let uninstall () = enabled := false
let active () = !enabled

let cell tbl name =
  match Hashtbl.find_opt tbl name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.replace tbl name r;
      r

let add name n =
  if !enabled then
    Mutex.protect lock (fun () ->
        let r = cell counters name in
        r := !r + n)

let incr name = add name 1
let set name v =
  if !enabled then Mutex.protect lock (fun () -> cell gauges name := v)

let set_max name v =
  if !enabled then
    Mutex.protect lock (fun () ->
        let r = cell gauges name in
        if v > !r then r := v)

let default_bounds =
  [| 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024; 4096; 16384; 65536 |]

let bucket_index ~bounds v =
  (* first i with v <= bounds.(i); Array.length bounds = overflow *)
  let n = Array.length bounds in
  let rec go lo hi =
    (* invariant: every i < lo has bounds.(i) < v; answer is in [lo,hi] *)
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if v <= bounds.(mid) then go lo mid else go (mid + 1) hi
  in
  go 0 n

let observe ?(bounds = default_bounds) name v =
  if !enabled then
    Mutex.protect lock (fun () ->
        let h =
          match Hashtbl.find_opt histograms name with
          | Some h -> h
          | None ->
              let h =
                {
                  h_bounds = Array.copy bounds;
                  h_counts = Array.make (Array.length bounds + 1) 0;
                  h_count = 0;
                  h_sum = 0;
                  h_max = 0;
                }
              in
              Hashtbl.replace histograms name h;
              h
        in
        let i = bucket_index ~bounds:h.h_bounds v in
        h.h_counts.(i) <- h.h_counts.(i) + 1;
        h.h_count <- h.h_count + 1;
        h.h_sum <- h.h_sum + v;
        if v > h.h_max then h.h_max <- v)

type histogram = {
  bounds : int list;
  counts : int list;
  count : int;
  sum : int;
  max_value : int;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * int) list;
  histograms : (string * histogram) list;
}

let sorted_bindings tbl f =
  Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot () =
  Mutex.protect lock @@ fun () ->
  {
    counters = sorted_bindings counters (fun r -> !r);
    gauges = sorted_bindings gauges (fun r -> !r);
    histograms =
      sorted_bindings histograms (fun h ->
          {
            bounds = Array.to_list h.h_bounds;
            counts = Array.to_list h.h_counts;
            count = h.h_count;
            sum = h.h_sum;
            max_value = h.h_max;
          });
  }
