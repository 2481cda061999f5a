type item = Ev of Usage.Event.t | Op of Usage.Policy.t | Cl of Usage.Policy.t
type t = item list

let empty = []

let flatten h =
  List.filter_map (function Ev e -> Some e | Op _ | Cl _ -> None) h

let active h =
  (* Remove one matching instance per close, scanning left to right. *)
  let remove_one p l =
    let rec go acc = function
      | [] -> List.rev acc
      | q :: rest ->
          if Usage.Policy.equal p q then List.rev_append acc rest
          else go (q :: acc) rest
    in
    go [] l
  in
  List.fold_left
    (fun acc -> function
      | Ev _ -> acc
      | Op p -> acc @ [ p ]
      | Cl p -> remove_one p acc)
    [] h

let is_prefix_of_balanced h =
  let ok, _ =
    List.fold_left
      (fun (ok, open_) item ->
        if not ok then (false, open_)
        else
          match item with
          | Ev _ -> (ok, open_)
          | Op p -> (ok, p :: open_)
          | Cl p ->
              if List.exists (Usage.Policy.equal p) open_ then
                let rec drop = function
                  | [] -> []
                  | q :: rest ->
                      if Usage.Policy.equal p q then rest else q :: drop rest
                in
                (ok, drop open_)
              else (false, open_))
      (true, []) h
  in
  ok

let is_balanced h = is_prefix_of_balanced h && active h = []

let prefixes h =
  let rec go acc pref = function
    | [] -> List.rev (pref :: acc)
    | x :: rest -> go (pref :: acc) (pref @ [ x ]) rest
  in
  go [] [] h

let of_actions acts =
  List.filter_map
    (function
      | Action.Evt e -> Some (Ev e)
      | Action.Frm_open p -> Some (Op p)
      | Action.Frm_close p -> Some (Cl p)
      | Action.In _ | Action.Out _ | Action.Tau | Action.Op _ | Action.Cl _ ->
          None)
    acts

let item_equal a b =
  match (a, b) with
  | Ev e, Ev f -> Usage.Event.equal e f
  | Op p, Op q | Cl p, Cl q -> Usage.Policy.equal p q
  | (Ev _ | Op _ | Cl _), _ -> false

let equal = List.equal item_equal

let pp_item ppf = function
  | Ev e -> Usage.Event.pp ppf e
  | Op p -> Fmt.pf ppf "[%s" (Usage.Policy.id p)
  | Cl p -> Fmt.pf ppf "%s]" (Usage.Policy.id p)

let pp ppf h =
  match h with
  | [] -> Fmt.string ppf "<empty>"
  | _ -> Fmt.(list ~sep:(any " ") pp_item) ppf h
