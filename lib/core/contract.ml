(* Hash-consed representation: every structurally distinct contract is
   interned once in a weak table and carries a unique [id], so [equal]
   is [(==)], [compare] is [Int.compare] on ids, and the analysis
   layers key their caches on ids instead of re-walking terms. The
   [node] layer is the old structural type with children already
   consed; all hashing and candidate comparison is shallow (children by
   id / physical equality), keeping interning O(node width). *)

type t = { id : int; hkey : int; node : node }

and node =
  | Nil
  | Var of string
  | Mu of string * t
  | Ext of (string * t) list
  | Int of (string * t) list
  | Seq of t * t

let node c = c.node
let id c = c.id

exception Unprojectable of string

let equal (a : t) (b : t) = a == b
let compare (a : t) (b : t) = Int.compare a.id b.id

let hash_node n =
  let comb h k = ((h * 19) + k) land max_int in
  match n with
  | Nil -> 1
  | Var x -> comb 2 (Hashtbl.hash x)
  | Mu (x, b) -> comb (comb 3 (Hashtbl.hash x)) b.id
  | Ext bs ->
      List.fold_left (fun h (a, k) -> comb (comb h (Hashtbl.hash a)) k.id) 4 bs
  | Int bs ->
      List.fold_left (fun h (a, k) -> comb (comb h (Hashtbl.hash a)) k.id) 5 bs
  | Seq (a, b) -> comb (comb 6 a.id) b.id

let equal_node n1 n2 =
  let equal_branches =
    List.equal (fun (a, h) (b, k) -> String.equal a b && h == k)
  in
  match (n1, n2) with
  | Nil, Nil -> true
  | Var x, Var y -> String.equal x y
  | Mu (x, a), Mu (y, b) -> String.equal x y && a == b
  | Ext xs, Ext ys | Int xs, Int ys -> equal_branches xs ys
  | Seq (a, b), Seq (c, d) -> a == c && b == d
  | (Nil | Var _ | Mu _ | Ext _ | Int _ | Seq _), _ -> false

module H = Repr.Hashcons.Make (struct
  type nonrec node = node
  type nonrec t = t

  let make ~id node = { id; hkey = hash_node node; node }
  let hash c = c.hkey
  let equal a b = equal_node a.node b.node
end)

let table = H.create ~initial_size:4096 "contract.intern"
let cons n = H.intern table n
let nil = cons Nil
let var x = cons (Var x)

let rec seq a b =
  match (a.node, b.node) with
  | Nil, _ -> b
  | _, Nil -> a
  | Seq (x, y), _ -> seq x (seq y b)
  | _ -> cons (Seq (a, b))

let check_branches kind bs =
  if bs = [] then invalid_arg (kind ^ ": empty choice");
  let chans = List.map fst bs in
  if List.length (List.sort_uniq String.compare chans) <> List.length chans
  then invalid_arg (kind ^ ": duplicate channel");
  List.sort (fun (a, _) (b, _) -> String.compare a b) bs

let branch bs = cons (Ext (check_branches "Contract.branch" bs))
let select bs = cons (Int (check_branches "Contract.select" bs))
let recv a = branch [ (a, nil) ]
let send a = select [ (a, nil) ]

let free_vars_memo : (t, string list) Repr.Memo.t =
  Repr.Memo.create ~name:"contract.free_vars" ~key:id ()

let rec free_vars c =
  Repr.Memo.find free_vars_memo c ~compute:(fun c ->
      match c.node with
      | Nil -> []
      | Var x -> [ x ]
      | Mu (x, b) -> List.filter (fun y -> y <> x) (free_vars b)
      | Ext bs | Int bs -> List.concat_map (fun (_, h) -> free_vars h) bs
      | Seq (a, b) -> free_vars a @ free_vars b)

let mu x body =
  match body.node with
  | Nil -> nil
  | _ -> if List.mem x (free_vars body) then cons (Mu (x, body)) else body

let rec project (h : Hexpr.t) : t =
  match Hexpr.node h with
  | Hexpr.Nil | Hexpr.Ev _ | Hexpr.Close _ | Hexpr.Frame_close _ -> nil
  | Hexpr.Var x -> var x
  | Hexpr.Mu (x, b) -> mu x (project b)
  | Hexpr.Ext bs -> cons (Ext (List.map (fun (a, k) -> (a, project k)) bs))
  | Hexpr.Int bs -> cons (Int (List.map (fun (a, k) -> (a, project k)) bs))
  | Hexpr.Seq (a, b) -> seq (project a) (project b)
  | Hexpr.Open (_, _) -> nil (* whole nested sessions are erased *)
  | Hexpr.Frame (_, b) -> project b
  | Hexpr.Choice (a, b) ->
      let ca = project a and cb = project b in
      if equal ca cb then ca
      else if equal ca nil then cb
      else if equal cb nil then ca
      else
        raise
          (Unprojectable
             (Fmt.str "Choice branches project to distinct contracts"))

type dir = I | O

let co = function I -> O | O -> I

(* atomic: capture-avoiding substitution runs concurrently on broker
   shards, and a duplicated fresh name would capture after all *)
let fresh_counter = Atomic.make 0

let fresh base =
  Printf.sprintf "%s_%d" base (1 + Atomic.fetch_and_add fresh_counter 1)

let rec subst x ~by c =
  match c.node with
  | Nil -> c
  | Var y -> if String.equal y x then by else c
  | Mu (y, b) ->
      if String.equal y x then c
      else if List.mem y (free_vars by) then begin
        let y' = fresh y in
        cons (Mu (y', subst x ~by (subst y ~by:(var y') b)))
      end
      else cons (Mu (y, subst x ~by b))
  | Ext bs -> cons (Ext (List.map (fun (a, k) -> (a, subst x ~by k)) bs))
  | Int bs -> cons (Int (List.map (fun (a, k) -> (a, subst x ~by k)) bs))
  | Seq (a, b) -> seq (subst x ~by a) (subst x ~by b)

let transitions_memo : (t, (dir * string * t) list) Repr.Memo.t =
  Repr.Memo.create ~name:"contract.transitions" ~key:id ()

let rec transitions c =
  Repr.Memo.find transitions_memo c ~compute:(fun c ->
      match c.node with
      | Nil | Var _ -> []
      | Mu (x, b) -> transitions (subst x ~by:c b)
      | Ext bs -> List.map (fun (a, k) -> (I, a, k)) bs
      | Int bs -> List.map (fun (a, k) -> (O, a, k)) bs
      | Seq (a, b) ->
          List.map (fun (d, ch, a') -> (d, ch, seq a' b)) (transitions a))

let is_terminated c = c == nil

let reachable ?(limit = 100_000) c0 =
  Automata.Reach.states ~compare
    ~limit:(limit, "Contract.reachable: state limit exceeded")
    (fun c -> List.map (fun (_, _, k) -> k) (transitions c))
    [ c0 ]

let dual_memo : (t, t) Repr.Memo.t =
  Repr.Memo.create ~name:"contract.dual" ~key:id ()

let rec dual c =
  Repr.Memo.find dual_memo c ~compute:(fun c ->
      match c.node with
      | Nil | Var _ -> c
      | Mu (x, b) -> cons (Mu (x, dual b))
      | Ext bs -> cons (Int (List.map (fun (a, k) -> (a, dual k)) bs))
      | Int bs -> cons (Ext (List.map (fun (a, k) -> (a, dual k)) bs))
      | Seq (a, b) -> cons (Seq (dual a, dual b)))

let rec size c =
  match c.node with
  | Nil | Var _ -> 1
  | Mu (_, b) -> 1 + size b
  | Ext bs | Int bs -> List.fold_left (fun n (_, h) -> n + 1 + size h) 1 bs
  | Seq (a, b) -> 1 + size a + size b

let rec pp ppf c =
  match c.node with
  | Nil -> Fmt.string ppf "eps"
  | Var x -> Fmt.string ppf x
  | Mu (x, b) -> Fmt.pf ppf "mu %s. %a" x pp b
  | Ext bs -> pp_choice ppf "?" " + " bs
  | Int bs -> pp_choice ppf "!" " (+) " bs
  | Seq (a, b) -> Fmt.pf ppf "%a . %a" pp_atom a pp b

and pp_choice ppf dir sep bs =
  let pp_branch ppf (a, h) =
    match h.node with
    | Nil -> Fmt.pf ppf "%s%s" a dir
    | _ -> Fmt.pf ppf "%s%s.%a" a dir pp_atom h
  in
  match bs with
  | [ b ] -> pp_branch ppf b
  | _ ->
      let pp_sep ppf () = Fmt.string ppf sep in
      Fmt.pf ppf "(%a)" (Fmt.list ~sep:pp_sep pp_branch) bs

and pp_atom ppf c =
  match c.node with
  | Seq _ | Mu _ -> Fmt.pf ppf "(%a)" pp c
  | Ext [ (_, h) ] | Int [ (_, h) ] when not (equal h nil) ->
      Fmt.pf ppf "(%a)" pp c
  | Nil | Var _ | Ext _ | Int _ -> pp ppf c

let to_string c = Fmt.str "%a" pp c
