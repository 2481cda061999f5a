type t = {
  automata : (string * Usage.Usage_automaton.t) list;
  services : (string * Core.Hexpr.t) list;
  clients : (string * Core.Hexpr.t) list;
  plans : (string * Core.Plan.t) list;
  programs : (string * Lambda_sec.Ast.term) list;
  networks : (string * (string * string) list) list;
}

let empty =
  {
    automata = [];
    services = [];
    clients = [];
    plans = [];
    programs = [];
    networks = [];
  }
let repo t = t.services
let find_automaton t name = List.assoc_opt name t.automata
let find_client t name = List.assoc_opt name t.clients
let find_plan t name = List.assoc_opt name t.plans
let find_program t name = List.assoc_opt name t.programs

let resolve_network t name =
  match List.assoc_opt name t.networks with
  | None -> Error (Printf.sprintf "unknown network %s" name)
  | Some entries ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | (cname, pname) :: rest -> (
            match (find_client t cname, find_plan t pname) with
            | None, _ -> Error (Printf.sprintf "unknown client %s" cname)
            | _, None -> Error (Printf.sprintf "unknown plan %s" pname)
            | Some h, Some p -> go ((p, (cname, h)) :: acc) rest)
      in
      go [] entries

let pp ppf t =
  let section name pp_item ppf items =
    List.iter (fun (n, x) -> Fmt.pf ppf "%s %s = %a@." name n pp_item x) items
  in
  section "policy" Usage.Usage_automaton.pp ppf t.automata;
  section "service" Core.Hexpr.pp ppf t.services;
  section "client" Core.Hexpr.pp ppf t.clients;
  section "plan" Core.Plan.pp ppf t.plans;
  section "program" Lambda_sec.Ast.pp ppf t.programs;
  List.iter
    (fun (n, entries) ->
      Fmt.pf ppf "network %s = {%a}@." n
        Fmt.(
          list ~sep:(any ", ") (fun ppf (c, p) -> pf ppf "%s with %s" c p))
        entries)
    t.networks

(* ---------- parseable rendering ---------- *)

let pp_guard_opt ppf g =
  match (g : Usage.Guard.t) with
  | Usage.Guard.True -> ()
  | g -> Fmt.pf ppf " when %a" Usage.Guard.pp g

(* States are named in order of first appearance (start, offending,
   then each edge's source and target), which is how the parser numbers
   them: the reprint of a parsed reprint names every state the same. A
   [forbid] policy's compiled states need the renaming; a declared
   automaton's already read in that order. *)
let pp_automaton_susf ppf (name, (u : Usage.Usage_automaton.t)) =
  let order = Hashtbl.create 17 in
  let number s =
    if not (Hashtbl.mem order s) then Hashtbl.add order s (Hashtbl.length order)
  in
  number u.init;
  List.iter number u.offending;
  List.iter
    (fun (e : Usage.Usage_automaton.edge) ->
      number e.src;
      number e.dst)
    u.edges;
  let q ppf s = Fmt.pf ppf "q%d" (Hashtbl.find order s) in
  Fmt.pf ppf "policy %s(%a) {@." name
    Fmt.(list ~sep:(any ", ") string)
    u.params;
  Fmt.pf ppf "  start %a;@." q u.init;
  Fmt.pf ppf "  offending %a;@." Fmt.(list ~sep:(any ", ") q) u.offending;
  List.iter
    (fun (e : Usage.Usage_automaton.edge) ->
      Fmt.pf ppf "  %a -- %s(x)%a --> %a;@." q e.src e.ev_name pp_guard_opt
        e.guard q e.dst)
    u.edges;
  Fmt.pf ppf "}@."

let pp_plan_susf ppf p =
  Fmt.pf ppf "{ %a }"
    Fmt.(
      list ~sep:(any ", ") (fun ppf (r, l) -> pf ppf "%d -> %s" r l))
    (Core.Plan.bindings p)

let rec pp_term_susf ppf (t : Lambda_sec.Ast.term) =
  let module A = Lambda_sec.Ast in
  match t with
  | A.Unit -> Fmt.string ppf "()"
  | A.Bool b -> Fmt.bool ppf b
  | A.Int n -> Fmt.int ppf n
  | A.Str s -> Fmt.string ppf s
  | A.Var x -> Fmt.string ppf x
  | A.Fun { self = None; param; param_ty; body; _ } ->
      Fmt.pf ppf "fun (%s : %a) -> %a" param pp_ty_susf param_ty pp_term_susf
        body
  | A.Fun { self = Some f; param; param_ty; ret_ty; body } ->
      Fmt.pf ppf "rec %s (%s : %a) : %a -> %a" f param pp_ty_susf param_ty
        (Fmt.option pp_ty_susf) ret_ty pp_term_susf body
  | A.Let ("_", a, b) -> Fmt.pf ppf "{ %a; %a }" pp_term_susf a pp_block b
  | A.Let (x, a, b) ->
      Fmt.pf ppf "let %s = %a in %a" x pp_term_susf a pp_term_susf b
  | A.If (c, a, b) ->
      Fmt.pf ppf "if %a then %a else %a" pp_term_susf c pp_term_susf a
        pp_term_susf b
  | A.Eq (a, b) -> Fmt.pf ppf "(%a == %a)" pp_term_susf a pp_term_susf b
  | A.Binop (op, a, b) ->
      Fmt.pf ppf "(%a %a %a)" pp_term_susf a Lambda_sec.Ast.pp_binop op
        pp_term_susf b
  | A.Pair (a, b) -> Fmt.pf ppf "(%a, %a)" pp_term_susf a pp_term_susf b
  | A.Fst a -> Fmt.pf ppf "fst (%a)" pp_term_susf a
  | A.Snd a -> Fmt.pf ppf "snd (%a)" pp_term_susf a
  | A.Event e -> Fmt.pf ppf "#%a" Usage.Event.pp e
  | A.Framed (p, body) ->
      Fmt.pf ppf "frame %s { %a }" (Usage.Policy.id p) pp_block body
  | A.Send a -> Fmt.pf ppf "send %s" a
  | A.Recv bs -> pp_handlers ppf "recv" bs
  | A.Select bs -> pp_handlers ppf "select" bs
  | A.Request { rid; policy = None; body } ->
      Fmt.pf ppf "req(%d){ %a }" rid pp_block body
  | A.Request { rid; policy = Some p; body } ->
      Fmt.pf ppf "req(%d: %s){ %a }" rid (Usage.Policy.id p) pp_block body
  | A.App (a, b) -> Fmt.pf ppf "(%a %a)" pp_term_susf a pp_term_susf b

and pp_block ppf (t : Lambda_sec.Ast.term) =
  match t with
  | Lambda_sec.Ast.Let ("_", a, b) ->
      Fmt.pf ppf "%a; %a" pp_term_susf a pp_block b
  | _ -> pp_term_susf ppf t

and pp_handlers ppf kw bs =
  Fmt.pf ppf "%s { %a }" kw
    Fmt.(
      list ~sep:(any " | ") (fun ppf (a, t) ->
          pf ppf "%s -> %a" a pp_term_susf t))
    bs

and pp_ty_susf ppf (ty : Lambda_sec.Ast.ty) =
  match ty with
  | Lambda_sec.Ast.TUnit -> Fmt.string ppf "unit"
  | Lambda_sec.Ast.TBool -> Fmt.string ppf "bool"
  | Lambda_sec.Ast.TInt -> Fmt.string ppf "int"
  | Lambda_sec.Ast.TStr -> Fmt.string ppf "str"
  | Lambda_sec.Ast.TFun (a, _, b) ->
      Fmt.pf ppf "(%a -> %a)" pp_ty_susf a pp_ty_susf b
  | Lambda_sec.Ast.TPair (a, b) ->
      Fmt.pf ppf "(%a * %a)" pp_ty_susf a pp_ty_susf b

let to_susf ppf t =
  List.iter (pp_automaton_susf ppf) t.automata;
  List.iter
    (fun (n, h) -> Fmt.pf ppf "service %s = %a;@." n Core.Hexpr.pp h)
    t.services;
  List.iter
    (fun (n, h) -> Fmt.pf ppf "client %s = %a;@." n Core.Hexpr.pp h)
    t.clients;
  List.iter
    (fun (n, p) -> Fmt.pf ppf "plan %s = %a;@." n pp_plan_susf p)
    t.plans;
  List.iter
    (fun (n, tm) -> Fmt.pf ppf "program %s = %a;@." n pp_term_susf tm)
    t.programs;
  List.iter
    (fun (n, entries) ->
      Fmt.pf ppf "network %s = { %a };@." n
        Fmt.(
          list ~sep:(any ", ") (fun ppf (c, p) -> pf ppf "%s with %s" c p))
        entries)
    t.networks
