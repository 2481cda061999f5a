type ('s, 'l, 'v) visit = Expand of ('l * 's) list | Prune | Stop of 'v

exception State_limit of int

module Make (K : Hashtbl.HashedType) = struct
  module Tbl = Hashtbl.Make (K)

  type 'l parent = Root | Edge of int * 'l

  (* States and their parents are stored by number; the states not yet
     visited are the queue. *)
  type 'l walk = {
    number : int Tbl.t;
    mutable states : K.t array;
    mutable parents : 'l parent array;
    mutable found : int;
  }

  let path w i =
    let rec back i acc =
      match w.parents.(i) with Root -> acc | Edge (p, l) -> back p (l :: acc)
    in
    back i []

  let grow a fill =
    let b = Array.make (2 * Array.length a) fill in
    Array.blit a 0 b 0 (Array.length a);
    b

  (* Numbers a state not seen before. *)
  let add ?limit w s parent =
    let i = w.found in
    (match limit with Some n when i >= n -> raise (State_limit n) | _ -> ());
    if i = Array.length w.states then begin
      w.states <- grow w.states s;
      w.parents <- grow w.parents Root
    end;
    Tbl.add w.number s i;
    w.states.(i) <- s;
    w.parents.(i) <- parent;
    w.found <- i + 1;
    i

  let run ?limit ?(edge = fun _ _ _ -> ()) roots visit =
    match roots with
    | [] -> (None, 0)
    | r :: _ ->
        let w =
          {
            number = Tbl.create 16;
            states = Array.make 16 r;
            parents = Array.make 16 Root;
            found = 0;
          }
        in
        List.iter
          (fun s ->
            if not (Tbl.mem w.number s) then ignore (add ?limit w s Root))
          roots;
        let rec loop i =
          if i = w.found then None
          else
            match visit w i w.states.(i) with
            | Stop v -> Some v
            | Prune -> loop (i + 1)
            | Expand succs ->
                List.iter
                  (fun (l, s) ->
                    let j =
                      match Tbl.find w.number s with
                      | j -> j
                      | exception Not_found -> add ?limit w s (Edge (i, l))
                    in
                    edge i l j)
                  succs;
                loop (i + 1)
        in
        let stopped = loop 0 in
        (stopped, w.found)

  let states ?limit succ roots =
    let found = ref [] in
    ignore
      (run ?limit roots (fun _ _ s ->
           found := s :: !found;
           Expand (succ s)));
    List.rev !found
end
