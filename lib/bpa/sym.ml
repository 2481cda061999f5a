type t =
  | Ev of Usage.Event.t
  | Frm_open of Usage.Policy.t
  | Frm_close of Usage.Policy.t
  | Comm of string

let compare x y =
  let tag = function
    | Ev _ -> 0
    | Frm_open _ -> 1
    | Frm_close _ -> 2
    | Comm _ -> 3
  in
  match (x, y) with
  | Ev a, Ev b -> Usage.Event.compare a b
  | Frm_open p, Frm_open q | Frm_close p, Frm_close q ->
      Usage.Policy.compare p q
  | Comm a, Comm b -> String.compare a b
  | (Ev _ | Frm_open _ | Frm_close _ | Comm _), _ ->
      Int.compare (tag x) (tag y)

let equal x y = compare x y = 0

let pp ppf = function
  | Ev e -> Usage.Event.pp ppf e
  | Frm_open p -> Fmt.pf ppf "[%s" (Usage.Policy.id p)
  | Frm_close p -> Fmt.pf ppf "%s]" (Usage.Policy.id p)
  | Comm s -> Fmt.string ppf s
