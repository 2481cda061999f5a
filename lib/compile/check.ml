module Product = Core.Product
open Table

(* Product states are pair ids [i * n2 + j]. The survey keys them in
   hashtables, so it touches only the pairs it reaches — a long session
   against its dual reaches O(n) of the n1 * n2 pairs. *)
module Int_tbl = Hashtbl.Make (Int)

let translation (t1 : Table.t) (t2 : Table.t) =
  Array.map
    (fun a ->
      match Hashtbl.find_opt t2.index a with Some i -> i | None -> -1)
    t1.alphabet

let complementary k1 k2 =
  match (k1, k2) with Kin, Kout | Kout, Kin -> true | _ -> false

(* [Product.final_reason] on tables, preserving its probe order: first
   client output (row order) missing from the server's inputs, then
   first server output missing from the client's. *)
let final_reason t1 t2 tr12 tr21 i j =
  if t1.kind.(i) = Knil then None
  else
    let out1 = if t1.kind.(i) = Kout then t1.row_syms.(i) else [||] in
    let out2 = if t2.kind.(j) = Kout then t2.row_syms.(j) else [||] in
    if Array.length out1 = 0 && Array.length out2 = 0 then
      Some Product.Client_waits_forever
    else
      let in2 sym = t2.kind.(j) = Kin && Table.step t2 j tr12.(sym) <> -1 in
      let in1 sym = t1.kind.(i) = Kin && Table.step t1 i tr21.(sym) <> -1 in
      let find row inx alpha =
        let r = ref None in
        Array.iter
          (fun sym -> if !r = None && not (inx sym) then r := Some alpha.(sym))
          row;
        !r
      in
      let unmatched =
        match find out1 in2 t1.alphabet with
        | Some a -> Some a
        | None -> find out2 in1 t2.alphabet
      in
      Option.map (fun a -> Product.Unmatched_output a) unmatched

(* Synchronised successors in [Compliance.sync_successors] order: the
   client row drives (outer loop of the interpreted version) and the
   deterministic server answers at most once per channel. *)
let successors t1 t2 tr12 i j k =
  if complementary t1.kind.(i) t2.kind.(j) then
    Array.iteri
      (fun idx sym ->
        let j' = Table.step t2 j tr12.(sym) in
        if j' <> -1 then k sym t1.row_tgts.(i).(idx) j')
      t1.row_syms.(i)

(* Replay a synchronisation path on the hash-consed contracts to
   recover the stuck pair for diagnostics (tables carry no contract
   back-map; the path is as short as the BFS is wide). *)
let replay_path c1 c2 syms =
  List.fold_left
    (fun pair name ->
      match pair with
      | None -> None
      | Some (x, y) ->
          List.find_map
            (fun (nm, pq) -> if String.equal nm name then Some pq else None)
            (Core.Compliance.sync_successors x y))
    (Some (c1, c2)) syms

(* Raises [Exit] when the counterexample path does not replay on the
   contracts — impossible for tables lowered from [c1]/[c2]; [survey]
   then declines rather than guess. *)
let survey_pairs (t1 : Table.t) (t2 : Table.t) ~c1 ~c2 =
  let n2 = t2.states in
  let tr12 = translation t1 t2 and tr21 = translation t2 t1 in
  (* pair -> (predecessor pair, symbol); the root's predecessor is -1 *)
  let parent = Int_tbl.create 16 in
  let succs = Int_tbl.create 16 in
  let q = Queue.create () in
  Int_tbl.replace parent 0 (-1, -1);
  Queue.add 0 q;
  let stuck = ref 0 and first = ref None and terminated = ref false in
  let rec path_syms p acc =
    match Int_tbl.find parent p with
    | -1, _ -> acc
    | pred, sym -> path_syms pred (t1.alphabet.(sym) :: acc)
  in
  while not (Queue.is_empty q) do
    let p = Queue.pop q in
    let i = p / n2 and j = p mod n2 in
    match final_reason t1 t2 tr12 tr21 i j with
    | Some reason ->
        incr stuck;
        if !first = None then begin
          let syms = path_syms p [] in
          match replay_path c1 c2 syms with
          | Some stuck ->
              first := Some { Product.synchronisations = syms; stuck; reason }
          | None -> raise Exit
        end
    | None ->
        if t1.kind.(i) = Knil then terminated := true;
        let buf = ref [] in
        successors t1 t2 tr12 i j (fun sym i' j' ->
            let p' = (i' * n2) + j' in
            buf := p' :: !buf;
            if not (Int_tbl.mem parent p') then begin
              Int_tbl.replace parent p' (p, sym);
              Queue.add p' q
            end);
        Int_tbl.replace succs p (List.rev !buf)
  done;
  let has_cycle () =
    (* mirrors the interpreted three-colour walk (1 grey, 2 black) *)
    let color = Int_tbl.create 16 in
    let cyc = ref false in
    let rec walk = function
      | [] -> ()
      | `Enter p :: rest ->
          if Int_tbl.mem color p then walk rest
          else begin
            Int_tbl.replace color p 1;
            let enters =
              Option.value (Int_tbl.find_opt succs p) ~default:[]
              |> List.filter_map (fun s ->
                     match Int_tbl.find_opt color s with
                     | Some 1 ->
                         cyc := true;
                         None
                     | Some _ -> None
                     | None -> Some (`Enter s))
            in
            walk (enters @ (`Exit p :: rest))
          end
      | `Exit p :: rest ->
          Int_tbl.replace color p 2;
          walk rest
    in
    walk [ `Enter 0 ];
    !cyc
  in
  {
    Product.stuck_states = !stuck;
    successful = !terminated || has_cycle ();
    first_counterexample = !first;
  }

let survey (t1 : Table.t) (t2 : Table.t) ~c1 ~c2 =
  match survey_pairs t1 t2 ~c1 ~c2 with
  | s -> Some s
  | exception Exit -> None
