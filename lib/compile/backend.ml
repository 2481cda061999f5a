let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag
let lowerings = Atomic.make 0
let lower_count () = Atomic.get lowerings

(* Per-contract compiled tables, id-keyed like every other derived
   result: clear_all and per-id invalidate Just Work. [None] caches the
   "unlowerable" verdict for open contracts. *)
let tables : (Core.Contract.t, Table.t option) Repr.Memo.t =
  Repr.Memo.create ~name:"compile.tables" ~key:Core.Contract.id ()

let compile c =
  let key = if Store.attached () <> None then Some (Table.contract_key c) else None in
  match Option.bind key Store.find with
  | Some t -> Some t
  | None -> (
      match Table.lower c with
      | None -> None
      | Some t ->
          Atomic.incr lowerings;
          Option.iter (fun k -> Store.add k t) key;
          Some t)

let get c = Repr.Memo.find tables c ~compute:compile

let install () =
  Core.Product.set_backend
    (Some
       {
         Core.Product.active = enabled;
         survey =
           (fun c1 c2 ->
             match (get c1, get c2) with
             | Some t1, Some t2 -> Check.survey t1 t2 ~c1 ~c2
             | _ -> None);
       });
  Core.Validity.Abstract.set_backend
    (Some { Core.Validity.Abstract.active = enabled; step = Policy_rows.step });
  set_enabled true
