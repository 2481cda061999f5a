(* A contract is a history expression of the communication fragment
   (paper §4): [t] is [Hexpr.t], built only through the constructors
   below, so contracts are interned in [hexpr.intern] with every other
   term, [equal] is [(==)], and a communication-only expression projects
   to itself. The analyses key their visited sets by id. *)

type t = Hexpr.t

type node =
  | Nil
  | Var of string
  | Mu of string * t
  | Ext of (string * t) list
  | Int of (string * t) list
  | Seq of t * t

let node c =
  match Hexpr.node c with
  | Hexpr.Nil -> Nil
  | Hexpr.Var x -> Var x
  | Hexpr.Mu (x, b) -> Mu (x, b)
  | Hexpr.Ext bs -> Ext bs
  | Hexpr.Int bs -> Int bs
  | Hexpr.Seq (a, b) -> Seq (a, b)
  | Hexpr.Ev _ | Hexpr.Open _ | Hexpr.Close _ | Hexpr.Frame _
  | Hexpr.Frame_close _ | Hexpr.Choice _ ->
      invalid_arg "Contract.node: outside the communication fragment"

let id = Hexpr.id

exception Unprojectable of string

let equal = Hexpr.equal
let nil = Hexpr.nil
let var = Hexpr.var
let mu = Hexpr.mu
let branch = Hexpr.branch
let select = Hexpr.select
let seq = Hexpr.seq
let recv = Hexpr.recv
let send = Hexpr.send
let size = Hexpr.size

let rec project (h : Hexpr.t) : t =
  match Hexpr.node h with
  | Hexpr.Nil | Hexpr.Ev _ | Hexpr.Close _ | Hexpr.Frame_close _ -> nil
  | Hexpr.Var x -> var x
  | Hexpr.Mu (x, b) -> mu x (project b)
  | Hexpr.Ext bs -> branch (List.map (fun (a, k) -> (a, project k)) bs)
  | Hexpr.Int bs -> select (List.map (fun (a, k) -> (a, project k)) bs)
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

let transitions_memo : (t, (dir * string * t) list) Repr.Memo.t =
  Repr.Memo.create ~name:"contract.transitions" ~key:id ()

let transitions c =
  Repr.Memo.find transitions_memo c ~compute:(fun c ->
      List.map
        (function
          | Action.In a, k -> (I, a, k)
          | Action.Out a, k -> (O, a, k)
          | ( ( Action.Tau | Action.Evt _ | Action.Op _ | Action.Cl _
              | Action.Frm_open _ | Action.Frm_close _ ),
              _ ) ->
              invalid_arg
                "Contract.transitions: outside the communication fragment")
        (Semantics.transitions c))

let is_terminated c = c == nil

let dual_memo : (t, t) Repr.Memo.t =
  Repr.Memo.create ~name:"contract.dual" ~key:id ()

let rec dual c =
  Repr.Memo.find dual_memo c ~compute:(fun c ->
      match node c with
      | Nil | Var _ -> c
      | Mu (x, b) -> mu x (dual b)
      | Ext bs -> select (List.map (fun (a, k) -> (a, dual k)) bs)
      | Int bs -> branch (List.map (fun (a, k) -> (a, dual k)) bs)
      | Seq (a, b) -> seq (dual a) (dual b))

let rec pp ppf c =
  match node c with
  | Nil -> Fmt.string ppf "eps"
  | Var x -> Fmt.string ppf x
  | Mu (x, b) -> Fmt.pf ppf "mu %s. %a" x pp b
  | Ext bs -> pp_choice ppf "?" " + " bs
  | Int bs -> pp_choice ppf "!" " (+) " bs
  | Seq (a, b) -> Fmt.pf ppf "%a . %a" pp_atom a pp b

and pp_choice ppf dir sep bs =
  let pp_branch ppf (a, h) =
    if is_terminated h then Fmt.pf ppf "%s%s" a dir
    else Fmt.pf ppf "%s%s.%a" a dir pp_atom h
  in
  match bs with
  | [ b ] -> pp_branch ppf b
  | _ ->
      let pp_sep ppf () = Fmt.string ppf sep in
      Fmt.pf ppf "(%a)" (Fmt.list ~sep:pp_sep pp_branch) bs

and pp_atom ppf c =
  match node c with
  | Seq _ | Mu _ -> Fmt.pf ppf "(%a)" pp c
  | Ext [ (_, h) ] | Int [ (_, h) ] when not (is_terminated h) ->
      Fmt.pf ppf "(%a)" pp c
  | Nil | Var _ | Ext _ | Int _ -> pp ppf c

let to_string c = Fmt.str "%a" pp c
