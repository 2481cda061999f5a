(* Hash-consed representation: every structurally distinct term is
   interned once in a weak table and carries a unique [id], so [equal]
   is [(==)]. This is the one intern table: a [Contract.t] is a term of
   the communication fragment. A term's stored hash is structural —
   built from its atoms and its children's stored hashes, never from
   ids — so hash-table order does not depend on what else the process
   has interned. Terms have no order: the analyses find and identify
   states, and number them in the order they discover them. Shallow
   node equality compares policies as instances: [Usage.Policy.make]
   shares an instance only between equal ids with equal automata, so
   interning never hands back a term that carries another automaton
   under the same id. *)

type req = { rid : int; policy : Usage.Policy.t option }

type t = { id : int; hkey : int; node : node }

and node =
  | Nil
  | Var of string
  | Mu of string * t
  | Ext of (string * t) list
  | Int of (string * t) list
  | Ev of Usage.Event.t
  | Seq of t * t
  | Open of req * t
  | Close of req
  | Frame of Usage.Policy.t * t
  | Frame_close of Usage.Policy.t
  | Choice of t * t

let node h = h.node
let id h = h.id
let hash h = h.hkey
let equal (a : t) (b : t) = a == b

let comb a b = ((a * 19) + b) land max_int
let hash_policy p = Hashtbl.hash (Usage.Policy.id p)

let hash_req r =
  comb r.rid (match r.policy with None -> 0 | Some p -> hash_policy p)

let hash_branches seed bs =
  List.fold_left
    (fun acc (a, k) -> comb (comb acc (Hashtbl.hash a)) k.hkey)
    seed bs

let hash_node = function
  | Nil -> 1
  | Var x -> comb 2 (Hashtbl.hash x)
  | Mu (x, b) -> comb (comb 3 (Hashtbl.hash x)) b.hkey
  | Ext bs -> hash_branches 4 bs
  | Int bs -> hash_branches 5 bs
  | Ev e -> comb 6 (Hashtbl.hash e)
  | Seq (a, b) -> comb (comb 7 a.hkey) b.hkey
  | Choice (a, b) -> comb (comb 8 a.hkey) b.hkey
  | Open (r, b) -> comb (comb 9 (hash_req r)) b.hkey
  | Close r -> comb 10 (hash_req r)
  | Frame (p, b) -> comb (comb 11 (hash_policy p)) b.hkey
  | Frame_close p -> comb 12 (hash_policy p)

let equal_req r s =
  Int.equal r.rid s.rid && Option.equal ( == ) r.policy s.policy

let equal_node n1 n2 =
  let equal_branches =
    List.equal (fun (a, h) (b, k) -> String.equal a b && h == k)
  in
  match (n1, n2) with
  | Nil, Nil -> true
  | Var x, Var y -> String.equal x y
  | Mu (x, a), Mu (y, b) -> String.equal x y && a == b
  | Ext xs, Ext ys | Int xs, Int ys -> equal_branches xs ys
  | Ev e, Ev f -> Usage.Event.equal e f
  | Seq (a, b), Seq (c, d) | Choice (a, b), Choice (c, d) -> a == c && b == d
  | Open (r, a), Open (s, b) -> equal_req r s && a == b
  | Close r, Close s -> equal_req r s
  | Frame (p, a), Frame (q, b) -> p == q && a == b
  | Frame_close p, Frame_close q -> p == q
  | ( ( Nil | Var _ | Mu _ | Ext _ | Int _ | Ev _ | Seq _ | Open _ | Close _
      | Frame _ | Frame_close _ | Choice _ ),
      _ ) ->
      false

module H = Repr.Hashcons.Make (struct
  type nonrec node = node
  type nonrec t = t

  let make ~id node = { id; hkey = hash_node node; node }
  let hash h = h.hkey
  let equal a b = equal_node a.node b.node
end)

let table = H.create ~initial_size:1024 "hexpr.intern"
let cons n = H.intern table n
let nil = cons Nil
let var x = cons (Var x)
let ev ?arg name = cons (Ev (Usage.Event.make ?arg name))
let event e = cons (Ev e)

let compare_req a b =
  match Int.compare a.rid b.rid with
  | 0 -> Option.compare Usage.Policy.compare a.policy b.policy
  | c -> c

(* [ε·H ≡ H ≡ H·ε]; sequences are kept right-nested so that equal residual
   behaviours are syntactically equal as often as possible. *)
let rec seq h1 h2 =
  match (h1.node, h2.node) with
  | Nil, _ -> h2
  | _, Nil -> h1
  | Seq (a, b), _ -> seq a (seq b h2)
  | _ -> cons (Seq (h1, h2))

let seq_all hs = List.fold_right seq hs nil

(* Choices keep their branches sorted by channel. A rebuild of an
   interned choice, as projection and duality make, hands them over
   sorted already, so one pass checks that and keeps the list. A single
   branch, as in two of every three choices built when [susf plans
   --mediate] projects perfbench's cli-repair spec, needs no pass. *)
let rec strictly_sorted a = function
  | [] -> true
  | (b, _) :: rest -> String.compare a b < 0 && strictly_sorted b rest

let check_branches kind bs =
  match bs with
  | [ _ ] -> bs
  | [] -> invalid_arg (kind ^ ": empty choice")
  | (a, _) :: rest when strictly_sorted a rest -> bs
  | _ -> (
      match List.sort (fun (a, _) (b, _) -> String.compare a b) bs with
      | (a, _) :: rest as sorted when strictly_sorted a rest -> sorted
      | _ -> invalid_arg (kind ^ ": duplicate channel"))

let branch bs = cons (Ext (check_branches "Hexpr.branch" bs))
let select bs = cons (Int (check_branches "Hexpr.select" bs))
let recv a = branch [ (a, nil) ]
let send a = select [ (a, nil) ]

let rec free_vars t =
  match t.node with
  | Nil | Ev _ | Close _ | Frame_close _ -> []
  | Var x -> [ x ]
  | Mu (x, b) -> List.filter (fun y -> y <> x) (free_vars b)
  | Ext bs | Int bs -> List.concat_map (fun (_, h) -> free_vars h) bs
  | Seq (a, b) | Choice (a, b) -> free_vars a @ free_vars b
  | Open (_, b) | Frame (_, b) -> free_vars b

let free_vars t = List.sort_uniq String.compare (free_vars t)
let is_closed t = free_vars t = []

let mu x body =
  match body.node with
  | Nil -> nil
  | _ -> if List.mem x (free_vars body) then cons (Mu (x, body)) else body

let open_ ~rid ?policy body = cons (Open ({ rid; policy }, body))
let close ~rid ?policy () = cons (Close { rid; policy })
let frame p body = cons (Frame (p, body))
let frame_close p = cons (Frame_close p)
let choice a b = if equal a b then a else cons (Choice (a, b))

module Infix = struct
  let ( @. ) = seq
end

(* atomic: capture-avoiding substitution runs concurrently on broker
   shards, and a duplicated fresh name would capture after all *)
let fresh_counter = Atomic.make 0

let fresh base =
  Printf.sprintf "%s_%d" base (1 + Atomic.fetch_and_add fresh_counter 1)

let rec subst x ~by t =
  match t.node with
  | Nil | Ev _ | Close _ | Frame_close _ -> t
  | Var y -> if String.equal y x then by else t
  | Mu (y, b) ->
      if String.equal y x then t
      else if List.mem y (free_vars by) then begin
        let y' = fresh y in
        cons (Mu (y', subst x ~by (subst y ~by:(var y') b)))
      end
      else cons (Mu (y, subst x ~by b))
  | Ext bs -> cons (Ext (List.map (fun (a, h) -> (a, subst x ~by h)) bs))
  | Int bs -> cons (Int (List.map (fun (a, h) -> (a, subst x ~by h)) bs))
  | Seq (a, b) -> seq (subst x ~by a) (subst x ~by b)
  | Choice (a, b) -> cons (Choice (subst x ~by a, subst x ~by b))
  | Open (r, b) -> cons (Open (r, subst x ~by b))
  | Frame (p, b) -> cons (Frame (p, subst x ~by b))

let unfold h body = subst h ~by:(cons (Mu (h, body))) body

let rec size t =
  match t.node with
  | Nil | Var _ | Ev _ | Close _ | Frame_close _ -> 1
  | Mu (_, b) | Open (_, b) | Frame (_, b) -> 1 + size b
  | Ext bs | Int bs -> List.fold_left (fun n (_, h) -> n + 1 + size h) 1 bs
  | Seq (a, b) | Choice (a, b) -> 1 + size a + size b

let rec fold_subterms f acc t =
  let acc = f acc t.node in
  match t.node with
  | Nil | Var _ | Ev _ | Close _ | Frame_close _ -> acc
  | Mu (_, b) | Open (_, b) | Frame (_, b) -> fold_subterms f acc b
  | Ext bs | Int bs ->
      List.fold_left (fun acc (_, h) -> fold_subterms f acc h) acc bs
  | Seq (a, b) | Choice (a, b) -> fold_subterms f (fold_subterms f acc a) b

let requests t =
  fold_subterms
    (fun acc -> function Open (r, _) -> r :: acc | _ -> acc)
    [] t
  |> List.rev

let policies t =
  let all =
    fold_subterms
      (fun acc -> function
        | Frame (p, _) | Frame_close p -> p :: acc
        | Open ({ policy = Some p; _ }, _) | Close { policy = Some p; _ } ->
            p :: acc
        | _ -> acc)
      [] t
  in
  List.sort_uniq Usage.Policy.compare all

let channels t =
  fold_subterms
    (fun acc -> function
      | Ext bs | Int bs -> List.map fst bs @ acc
      | _ -> acc)
    [] t
  |> List.sort_uniq String.compare

let events t =
  fold_subterms
    (fun acc -> function Ev e -> e :: acc | _ -> acc)
    [] t
  |> List.sort_uniq Usage.Event.compare

(* Well-formedness: see the .mli. [guarded] maps each bound recursion
   variable to whether a communication prefix separates it from the
   current position; [nontail] lists the variables whose occurrence here
   would not be in tail position. *)

type wf_error =
  | Unguarded_recursion of string
  | Non_tail_recursion of string
  | Unbound_variable of string
  | Duplicate_request of int

let pp_wf_error ppf = function
  | Unguarded_recursion x -> Fmt.pf ppf "recursion variable %s is unguarded" x
  | Non_tail_recursion x ->
      Fmt.pf ppf "recursion variable %s occurs in non-tail position" x
  | Unbound_variable x -> Fmt.pf ppf "unbound recursion variable %s" x
  | Duplicate_request r -> Fmt.pf ppf "request identifier %d is reused" r

(* Does every execution of [t] perform at least one communication before
   terminating? Used to propagate guardedness across sequencing. *)
let rec must_communicate t =
  match t.node with
  | Ext _ | Int _ -> true
  | Seq (a, b) -> must_communicate a || must_communicate b
  | Mu (_, b) | Open (_, b) | Frame (_, b) -> must_communicate b
  | Choice (a, b) -> must_communicate a && must_communicate b
  | Nil | Var _ | Ev _ | Close _ | Frame_close _ -> false

let well_formed t =
  let ( let* ) = Result.bind in
  let rec check ~guarded ~nontail t =
    match t.node with
    | Nil | Ev _ | Close _ | Frame_close _ -> Ok ()
    | Var x -> (
        match List.assoc_opt x guarded with
        | None -> Error (Unbound_variable x)
        | Some g ->
            if not g then Error (Unguarded_recursion x)
            else if List.mem x nontail then Error (Non_tail_recursion x)
            else Ok ())
    | Mu (x, b) ->
        check ~guarded:((x, false) :: guarded)
          ~nontail:(List.filter (fun y -> y <> x) nontail)
          b
    | Ext bs | Int bs ->
        let guarded = List.map (fun (x, _) -> (x, true)) guarded in
        List.fold_left
          (fun acc (_, h) ->
            let* () = acc in
            check ~guarded ~nontail h)
          (Ok ()) bs
    | Seq (a, b) ->
        let all = List.map fst guarded in
        let* () = check ~guarded ~nontail:all a in
        let guarded =
          if must_communicate a then List.map (fun (x, _) -> (x, true)) guarded
          else guarded
        in
        check ~guarded ~nontail b
    | Choice (a, b) ->
        let* () = check ~guarded ~nontail a in
        check ~guarded ~nontail b
    | Open (_, b) | Frame (_, b) ->
        check ~guarded ~nontail:(List.map fst guarded) b
  in
  let* () = check ~guarded:[] ~nontail:[] t in
  let rids = List.map (fun r -> r.rid) (requests t) in
  match
    List.find_opt
      (fun r -> List.length (List.filter (Int.equal r) rids) > 1)
      rids
  with
  | Some r -> Error (Duplicate_request r)
  | None -> Ok ()

(* Printing. The output is readable ASCII close to the paper's notation:
   [a?] input, [a!] output, [+] external and [(+)] internal choice,
   [.] sequencing, [id[H]] framing, [open_r:id{H}] sessions. *)

let pp_req ppf r =
  match r.policy with
  | None -> Fmt.pf ppf "%d" r.rid
  | Some p -> Fmt.pf ppf "%d: %s" r.rid (Usage.Policy.id p)

let rec pp ppf t =
  match t.node with
  | Nil -> Fmt.string ppf "eps"
  | Var x -> Fmt.string ppf x
  | Mu (x, b) -> Fmt.pf ppf "mu %s. %a" x pp b
  | Ext bs -> pp_choice ppf "?" " + " bs
  | Int bs -> pp_choice ppf "!" " (+) " bs
  | Ev e -> Fmt.pf ppf "#%a" Usage.Event.pp e
  | Seq (a, b) -> Fmt.pf ppf "@[<hov>%a@ . %a@]" pp_atom a pp_seq_tail b
  | Open (r, b) -> Fmt.pf ppf "open(%a){ %a }" pp_req r pp b
  | Close r -> Fmt.pf ppf "close(%a)" pp_req r
  | Frame (p, b) -> Fmt.pf ppf "%s[ %a ]" (Usage.Policy.id p) pp b
  | Frame_close p -> Fmt.pf ppf "~%s" (Usage.Policy.id p)
  | Choice (a, b) -> Fmt.pf ppf "(%a <+> %a)" pp_atom a pp_atom b

and pp_choice ppf dir sep bs =
  let pp_branch ppf (a, h) =
    match h.node with
    | Nil -> Fmt.pf ppf "%s%s" a dir
    | _ -> Fmt.pf ppf "%s%s.%a" a dir pp_atom h
  in
  match bs with
  | [ b ] -> pp_branch ppf b
  | _ ->
      let pp_sep ppf () = Fmt.pf ppf "@ %s " (String.trim sep) in
      Fmt.pf ppf "@[<hov 1>(%a)@]" (Fmt.list ~sep:pp_sep pp_branch) bs

and pp_seq_tail ppf t =
  (* a [mu] extends to the end of the input, so it cannot appear bare as
     the tail of a sequence *)
  match t.node with Mu _ -> Fmt.pf ppf "(%a)" pp t | _ -> pp ppf t

and pp_atom ppf t =
  match t.node with
  | Seq _ | Mu _ | Choice _ -> Fmt.pf ppf "(%a)" pp t
  | Ext [ (_, h) ] | Int [ (_, h) ] when h != nil -> Fmt.pf ppf "(%a)" pp t
  | Nil | Var _ | Ext _ | Int _ | Ev _ | Open _ | Close _ | Frame _
  | Frame_close _ ->
      pp ppf t

let to_string t = Fmt.str "%a" pp t

(* Attach sequential continuations to choice prefixes:
   [(Σ aᵢ.Hᵢ)·K ↦ Σ aᵢ.(Hᵢ·K)]. LTS-preserving; gives terms the
   canonical guard-attached shape the parser and the effect system
   agree on. *)
let rec seq_norm a b =
  match a.node with
  | Nil -> b
  | Ext bs -> cons (Ext (List.map (fun (c, k) -> (c, seq_norm k b)) bs))
  | Int bs -> cons (Int (List.map (fun (c, k) -> (c, seq_norm k b)) bs))
  | Seq (x, y) -> seq_norm x (seq_norm y b)
  | Var _ | Mu _ | Ev _ | Open _ | Close _ | Frame _ | Frame_close _
  | Choice _ ->
      seq a b

let rec normalize t =
  match t.node with
  | Nil | Var _ | Ev _ | Close _ | Frame_close _ -> t
  | Mu (x, b) -> mu x (normalize b)
  | Ext bs -> cons (Ext (List.map (fun (a, k) -> (a, normalize k)) bs))
  | Int bs -> cons (Int (List.map (fun (a, k) -> (a, normalize k)) bs))
  | Seq (a, b) -> seq_norm (normalize a) (normalize b)
  | Open (r, b) -> cons (Open (r, normalize b))
  | Frame (p, b) -> cons (Frame (p, normalize b))
  | Choice (a, b) -> choice (normalize a) (normalize b)
