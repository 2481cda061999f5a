exception Error of string * int * int

module L = Lexer

type state = {
  toks : L.located array;
  mutable pos : int;
  mutable automata : (string * Usage.Usage_automaton.t) list;
}

let current st = st.toks.(st.pos)

let fail st msg =
  let { L.token; line; col } = current st in
  raise (Error (Fmt.str "%s (found %a)" msg L.pp_token token, line, col))

let advance st = st.pos <- st.pos + 1

let peek st = (current st).L.token
let peek2 st =
  if st.pos + 1 < Array.length st.toks then Some st.toks.(st.pos + 1).L.token
  else None

let eat st tok =
  if peek st = tok then advance st
  else fail st (Fmt.str "expected %a" L.pp_token tok)

let ident st =
  match peek st with
  | L.IDENT s ->
      advance st;
      s
  | _ -> fail st "expected an identifier"

let intlit st =
  match peek st with
  | L.INTLIT n ->
      advance st;
      n
  | _ -> fail st "expected an integer"

(* ---------- values ---------- *)

let rec value st : Usage.Value.t =
  match peek st with
  | L.INTLIT n ->
      advance st;
      Usage.Value.int n
  | L.IDENT s ->
      advance st;
      Usage.Value.str s
  | L.LBRACE ->
      advance st;
      let rec elems acc =
        match peek st with
        | L.RBRACE ->
            advance st;
            List.rev acc
        | _ -> (
            let v = value st in
            match peek st with
            | L.COMMA ->
                advance st;
                elems (v :: acc)
            | L.RBRACE ->
                advance st;
                List.rev (v :: acc)
            | _ -> fail st "expected ',' or '}' in set literal")
      in
      Usage.Value.set (elems [])
  | _ -> fail st "expected a value"

let values st =
  (* comma-separated, possibly empty, up to ')' *)
  if peek st = L.RPAREN then []
  else
    let rec more acc =
      match peek st with
      | L.COMMA ->
          advance st;
          more (value st :: acc)
      | _ -> List.rev acc
    in
    more [ value st ]

(* ---------- policy references ---------- *)

let policy_ref_one st name =
  match List.assoc_opt name st.automata with
  | None -> fail st (Fmt.str "unknown policy automaton %s" name)
  | Some aut -> (
      eat st L.LPAREN;
      let actuals = values st in
      eat st L.RPAREN;
      try Usage.Usage_automaton.instantiate aut actuals
      with Invalid_argument msg -> fail st msg)

(* pol(args) & pol(args) & … — conjunction of instantiated policies,
   right-nested. A conjunction may be parenthesised: [(p & q)] is how a
   conjoined policy's id prints, so [susf fmt] output parses back to the
   same policy. *)
let rec policy_ref st name = conj_rest st (policy_ref_one st name)

and conj_rest st p =
  match peek st with
  | L.AMP ->
      advance st;
      Usage.Policy_ops.conj p (policy st)
  | _ -> p

and policy st =
  match peek st with
  | L.LPAREN ->
      advance st;
      let p = policy st in
      eat st L.RPAREN;
      conj_rest st p
  | _ -> policy_ref st (ident st)

(* A parenthesised conjunction framing a body, [(p & q)[ H ]], when the
   tokens at [st] read as one; [None], with [st] untouched, otherwise. *)
let paren_framing_policy st =
  let start = st.pos in
  let may_be_policy =
    match peek2 st with
    | Some L.LPAREN -> true
    | Some (L.IDENT name) -> List.mem_assoc name st.automata
    | _ -> false
  in
  if not may_be_policy then None
  else
    match policy st with
    | p when peek st = L.LBRACKET -> Some p
    | _ | (exception Error _) ->
        st.pos <- start;
        None

(* ---------- history expressions ---------- *)

let to_ext_branch st h =
  match Core.Hexpr.node (Core.Hexpr.normalize h) with
  | Core.Hexpr.Ext [ b ] -> b
  | _ -> fail st "operands of '+' must be input-prefixed"

let to_int_branch st h =
  match Core.Hexpr.node (Core.Hexpr.normalize h) with
  | Core.Hexpr.Int [ b ] -> b
  | _ -> fail st "operands of '(+)' must be output-prefixed"

let rec hexpr st : Core.Hexpr.t =
  match peek st with
  | L.IDENT "mu" ->
      advance st;
      let x = ident st in
      eat st L.DOT;
      Core.Hexpr.mu x (hexpr st)
  | _ -> choice_level st

and choice_level st =
  let first = seq_level st in
  match peek st with
  | L.PLUS ->
      let rec more acc =
        match peek st with
        | L.PLUS ->
            advance st;
            more (to_ext_branch st (seq_level st) :: acc)
        | _ -> List.rev acc
      in
      let branches = more [ to_ext_branch st first ] in
      (try Core.Hexpr.branch branches
       with Invalid_argument msg -> fail st msg)
  | L.OPLUS ->
      let rec more acc =
        match peek st with
        | L.OPLUS ->
            advance st;
            more (to_int_branch st (seq_level st) :: acc)
        | _ -> List.rev acc
      in
      let branches = more [ to_int_branch st first ] in
      (try Core.Hexpr.select branches
       with Invalid_argument msg -> fail st msg)
  | L.CHOICE ->
      let rec more acc =
        match peek st with
        | L.CHOICE ->
            advance st;
            more (seq_level st :: acc)
        | _ -> List.rev acc
      in
      let alts = more [ first ] in
      List.fold_left Core.Hexpr.choice (List.hd alts) (List.tl alts)
  | _ -> first

and seq_level st =
  let a = atom st in
  match peek st with
  | L.DOT ->
      advance st;
      Core.Hexpr.seq a (seq_level st)
  | _ -> a

and atom st =
  match peek st with
  | L.LPAREN -> (
      match paren_framing_policy st with
      | Some p -> framing st p
      | None ->
          advance st;
          let h = hexpr st in
          eat st L.RPAREN;
          h)
  | L.HASH -> (
      advance st;
      let name = ident st in
      match peek st with
      | L.LPAREN ->
          advance st;
          let v = value st in
          eat st L.RPAREN;
          Core.Hexpr.ev ~arg:v name
      | _ -> Core.Hexpr.ev name)
  | L.TILDE ->
      advance st;
      Core.Hexpr.frame_close (policy st)
  | L.IDENT "eps" ->
      advance st;
      Core.Hexpr.nil
  | L.IDENT "open" when peek2 st = Some L.LPAREN ->
      advance st;
      eat st L.LPAREN;
      let rid = intlit st in
      let policy =
        match peek st with
        | L.COLON ->
            advance st;
            Some (policy st)
        | _ -> None
      in
      eat st L.RPAREN;
      eat st L.LBRACE;
      let body = hexpr st in
      eat st L.RBRACE;
      Core.Hexpr.open_ ~rid ?policy body
  | L.IDENT "close" when peek2 st = Some L.LPAREN ->
      advance st;
      eat st L.LPAREN;
      let rid = intlit st in
      let policy =
        match peek st with
        | L.COLON ->
            advance st;
            Some (policy st)
        | _ -> None
      in
      eat st L.RPAREN;
      Core.Hexpr.close ~rid ?policy ()
  | L.IDENT name -> (
      advance st;
      match peek st with
      | L.QUESTION ->
          advance st;
          Core.Hexpr.recv name
      | L.BANG ->
          advance st;
          Core.Hexpr.send name
      | L.LPAREN ->
          (* a framing: pol(args)[ H ] *)
          framing st (policy_ref st name)
      | _ -> Core.Hexpr.var name)
  | _ -> fail st "expected a history expression"

and framing st p =
  eat st L.LBRACKET;
  let body = hexpr st in
  eat st L.RBRACKET;
  Core.Hexpr.frame p body

(* ---------- guards ---------- *)

let guard_expr st ~binder ~params : Usage.Guard.expr =
  match peek st with
  | L.INTLIT n ->
      advance st;
      Usage.Guard.Const (Usage.Value.int n)
  | L.LBRACE ->
      let v = value st in
      Usage.Guard.Const v
  | L.IDENT s ->
      advance st;
      if String.equal s binder then Usage.Guard.Arg
      else if List.mem s params then Usage.Guard.Param s
      else Usage.Guard.Const (Usage.Value.str s)
  | _ -> fail st "expected a guard operand"

let rec guard st ~binder ~params : Usage.Guard.t =
  let lhs = guard_conj st ~binder ~params in
  match peek st with
  | L.IDENT "or" ->
      advance st;
      Usage.Guard.Or (lhs, guard st ~binder ~params)
  | _ -> lhs

and guard_conj st ~binder ~params =
  let lhs = guard_atom st ~binder ~params in
  match peek st with
  | L.IDENT "and" ->
      advance st;
      Usage.Guard.And (lhs, guard_conj st ~binder ~params)
  | _ -> lhs

and guard_atom st ~binder ~params =
  match peek st with
  | L.IDENT "true" ->
      advance st;
      Usage.Guard.True
  | L.IDENT "not" ->
      advance st;
      Usage.Guard.Not (guard_atom st ~binder ~params)
  | L.LPAREN ->
      advance st;
      let g = guard st ~binder ~params in
      eat st L.RPAREN;
      g
  | _ -> (
      let lhs = guard_expr st ~binder ~params in
      let cmp op =
        advance st;
        Usage.Guard.Cmp (op, lhs, guard_expr st ~binder ~params)
      in
      match peek st with
      | L.IDENT "in" ->
          advance st;
          Usage.Guard.Member (lhs, guard_expr st ~binder ~params)
      | L.IDENT "notin" ->
          advance st;
          Usage.Guard.Not_member (lhs, guard_expr st ~binder ~params)
      | L.LE -> cmp Usage.Guard.Le
      | L.LT -> cmp Usage.Guard.Lt
      | L.GE -> cmp Usage.Guard.Ge
      | L.GT -> cmp Usage.Guard.Gt
      | L.EQUAL -> cmp Usage.Guard.Eq
      | L.NEQ -> cmp Usage.Guard.Ne
      | _ -> fail st "expected a comparison or membership test")

(* ---------- λ-calculus terms ---------- *)

(* program ::= fun (x : ty) -> t | rec f (x : ty) : ty -> t
             | let x = t in t | if t then t else t
             | send a | recv { a -> t | b -> t } | select { … }
             | req(r[: pol]){ block } | frame pol(args) { block }
             | t == t | t t | #ev(v) | ids, ints, true, false, ()
   block ::= t (';' t)*       — sequencing, inside braces only *)

let rec lty st : Lambda_sec.Ast.ty =
  match peek st with
  | L.IDENT "unit" ->
      advance st;
      Lambda_sec.Ast.TUnit
  | L.IDENT "bool" ->
      advance st;
      Lambda_sec.Ast.TBool
  | L.IDENT "int" ->
      advance st;
      Lambda_sec.Ast.TInt
  | L.IDENT "str" ->
      advance st;
      Lambda_sec.Ast.TStr
  | L.LPAREN -> (
      advance st;
      let a = lty st in
      match peek st with
      | L.ARROW ->
          advance st;
          let b = lty st in
          eat st L.RPAREN;
          (* surface function annotations carry a pure latent effect *)
          Lambda_sec.Ast.TFun (a, Core.Hexpr.nil, b)
      | L.STAR ->
          advance st;
          let b = lty st in
          eat st L.RPAREN;
          Lambda_sec.Ast.TPair (a, b)
      | _ -> fail st "expected '->' or '*' in a compound type")
  | _ ->
      fail st "expected a type (unit, bool, int, str, (ty -> ty), (ty * ty))"

let rec term st : Lambda_sec.Ast.term =
  match peek st with
  | L.IDENT "fun" ->
      advance st;
      eat st L.LPAREN;
      let x = ident st in
      eat st L.COLON;
      let tx = lty st in
      eat st L.RPAREN;
      eat st L.ARROW;
      Lambda_sec.Ast.lam x tx (term st)
  | L.IDENT "rec" ->
      advance st;
      let f = ident st in
      eat st L.LPAREN;
      let x = ident st in
      eat st L.COLON;
      let tx = lty st in
      eat st L.RPAREN;
      eat st L.COLON;
      let tr = lty st in
      eat st L.ARROW;
      Lambda_sec.Ast.fix f x tx tr (term st)
  | L.IDENT "let" ->
      advance st;
      let x = ident st in
      eat st L.EQUAL;
      let e1 = term st in
      eat st (L.IDENT "in");
      let e2 = term st in
      Lambda_sec.Ast.Let (x, e1, e2)
  | L.IDENT "if" ->
      advance st;
      let c = term st in
      eat st (L.IDENT "then");
      let e1 = term st in
      eat st (L.IDENT "else");
      let e2 = term st in
      Lambda_sec.Ast.If (c, e1, e2)
  | _ -> eq_term st

and eq_term st =
  let lhs = arith_term st in
  match peek st with
  | L.EQEQ ->
      advance st;
      Lambda_sec.Ast.Eq (lhs, arith_term st)
  | L.LT ->
      advance st;
      Lambda_sec.Ast.Binop (Lambda_sec.Ast.Lt, lhs, arith_term st)
  | L.LE ->
      advance st;
      Lambda_sec.Ast.Binop (Lambda_sec.Ast.Leq, lhs, arith_term st)
  | _ -> lhs

and arith_term st =
  let rec more acc =
    match peek st with
    | L.PLUS ->
        advance st;
        more (Lambda_sec.Ast.Binop (Lambda_sec.Ast.Add, acc, app_term st))
    | L.MINUS ->
        advance st;
        more (Lambda_sec.Ast.Binop (Lambda_sec.Ast.Sub, acc, app_term st))
    | L.STAR ->
        advance st;
        more (Lambda_sec.Ast.Binop (Lambda_sec.Ast.Mul, acc, app_term st))
    | _ -> acc
  in
  more (app_term st)

and app_term st =
  let head = latom st in
  let rec more acc =
    if starts_atom st then more (Lambda_sec.Ast.App (acc, latom st)) else acc
  in
  more head

and starts_atom st =
  match peek st with
  | L.LPAREN | L.INTLIT _ | L.HASH -> true
  | L.IDENT ("in" | "then" | "else") -> false
  | L.IDENT _ -> true
  | _ -> false

and latom st =
  match peek st with
  | L.LBRACE ->
      (* grouped block: { t; t; … } *)
      advance st;
      let t = block st in
      eat st L.RBRACE;
      t
  | L.LPAREN when peek2 st = Some L.RPAREN ->
      advance st;
      advance st;
      Lambda_sec.Ast.Unit
  | L.LPAREN -> (
      advance st;
      let t = term st in
      match peek st with
      | L.COMMA ->
          advance st;
          let t2 = term st in
          eat st L.RPAREN;
          Lambda_sec.Ast.Pair (t, t2)
      | _ ->
          eat st L.RPAREN;
          t)
  | L.INTLIT n ->
      advance st;
      Lambda_sec.Ast.Int n
  | L.HASH -> (
      advance st;
      let name = ident st in
      match peek st with
      | L.LPAREN ->
          advance st;
          let v = value st in
          eat st L.RPAREN;
          Lambda_sec.Ast.Event (Usage.Event.make ~arg:v name)
      | _ -> Lambda_sec.Ast.Event (Usage.Event.make name))
  | L.IDENT "true" ->
      advance st;
      Lambda_sec.Ast.Bool true
  | L.IDENT "false" ->
      advance st;
      Lambda_sec.Ast.Bool false
  | L.IDENT "fst" ->
      advance st;
      Lambda_sec.Ast.Fst (latom st)
  | L.IDENT "snd" ->
      advance st;
      Lambda_sec.Ast.Snd (latom st)
  | L.IDENT "send" ->
      advance st;
      Lambda_sec.Ast.Send (ident st)
  | L.IDENT "recv" ->
      advance st;
      Lambda_sec.Ast.Recv (handlers st)
  | L.IDENT "select" ->
      advance st;
      Lambda_sec.Ast.Select (handlers st)
  | L.IDENT "req" ->
      advance st;
      eat st L.LPAREN;
      let rid = intlit st in
      let policy =
        match peek st with
        | L.COLON ->
            advance st;
            Some (policy st)
        | _ -> None
      in
      eat st L.RPAREN;
      eat st L.LBRACE;
      let body = block st in
      eat st L.RBRACE;
      Lambda_sec.Ast.Request { rid; policy; body }
  | L.IDENT "frame" ->
      advance st;
      let p = policy st in
      eat st L.LBRACE;
      let body = block st in
      eat st L.RBRACE;
      Lambda_sec.Ast.Framed (p, body)
  | L.IDENT x ->
      advance st;
      Lambda_sec.Ast.Var x
  | _ -> fail st "expected a term"

and handlers st =
  eat st L.LBRACE;
  let one () =
    let a = ident st in
    eat st L.ARROW;
    let t = term st in
    (a, t)
  in
  let rec more acc =
    match peek st with
    | L.PIPE ->
        advance st;
        more (one () :: acc)
    | L.RBRACE ->
        advance st;
        List.rev acc
    | _ -> fail st "expected '|' or '}' in handlers"
  in
  more [ one () ]

and block st =
  let t = term st in
  match peek st with
  | L.SEMI ->
      advance st;
      Lambda_sec.Ast.seq t (block st)
  | _ -> t

(* ---------- forbidden-trace regex policies ---------- *)

(* REGEX := CAT ('|' CAT)* ; CAT := ATOM+ ;
   ATOM := '#'ident ('when' guard)? '*'? | '(' REGEX ')' '*'? *)
let rec pat_regex st ~params : Usage.Policy_regex.R.t =
  let first = pat_cat st ~params in
  match peek st with
  | L.PIPE ->
      advance st;
      Usage.Policy_regex.R.alt first (pat_regex st ~params)
  | _ -> first

and pat_cat st ~params =
  let starts_atom () =
    match peek st with L.HASH | L.LPAREN -> true | _ -> false
  in
  let first = pat_atom st ~params in
  let rec more acc =
    if starts_atom () then
      more (Usage.Policy_regex.R.cat acc (pat_atom st ~params))
    else acc
  in
  more first

and pat_atom st ~params =
  let base =
    match peek st with
    | L.HASH -> (
        advance st;
        let name = ident st in
        match peek st with
        | L.IDENT "when" ->
            advance st;
            let g = guard st ~binder:"x" ~params in
            Usage.Policy_regex.evp ~guard:g name
        | _ -> Usage.Policy_regex.evp name)
    | L.LPAREN ->
        advance st;
        let r = pat_regex st ~params in
        eat st L.RPAREN;
        r
    | _ -> fail st "expected an event pattern"
  in
  match peek st with
  | L.STAR ->
      advance st;
      Usage.Policy_regex.R.star base
  | _ -> base

(* ---------- declarations ---------- *)

let policy_decl st =
  let name = ident st in
  eat st L.LPAREN;
  let params =
    if peek st = L.RPAREN then []
    else
      let rec more acc =
        match peek st with
        | L.COMMA ->
            advance st;
            more (ident st :: acc)
        | _ -> List.rev acc
      in
      more [ ident st ]
  in
  eat st L.RPAREN;
  if peek st = L.EQUAL then begin
    (* policy name(params) = forbid REGEX; *)
    advance st;
    eat st (L.IDENT "forbid");
    let r = pat_regex st ~params in
    eat st L.SEMI;
    match Usage.Policy_regex.forbid ~name ~params r with
    | aut -> aut
    | exception Invalid_argument msg -> fail st msg
  end
  else begin
  eat st L.LBRACE;
  let state_ids = Hashtbl.create 17 in
  let next_state = ref 0 in
  let state_of s =
    match Hashtbl.find_opt state_ids s with
    | Some i -> i
    | None ->
        let i = !next_state in
        incr next_state;
        Hashtbl.replace state_ids s i;
        i
  in
  eat st (L.IDENT "start");
  let init = state_of (ident st) in
  eat st L.SEMI;
  eat st (L.IDENT "offending");
  let offending =
    let rec more acc =
      match peek st with
      | L.COMMA ->
          advance st;
          more (state_of (ident st) :: acc)
      | _ -> List.rev acc
    in
    more [ state_of (ident st) ]
  in
  eat st L.SEMI;
  let rec edges acc =
    match peek st with
    | L.RBRACE ->
        advance st;
        List.rev acc
    | _ ->
        let src = state_of (ident st) in
        eat st L.EDGE;
        let ev_name = ident st in
        eat st L.LPAREN;
        let binder = ident st in
        eat st L.RPAREN;
        let g =
          match peek st with
          | L.IDENT "when" ->
              advance st;
              guard st ~binder ~params
          | _ -> Usage.Guard.True
        in
        eat st L.EDGEARROW;
        let dst = state_of (ident st) in
        eat st L.SEMI;
        edges (Usage.Usage_automaton.edge src ev_name g dst :: acc)
  in
  let edges = edges [] in
  (try Usage.Usage_automaton.make ~name ~params ~init ~offending ~edges
   with Invalid_argument msg -> fail st msg)
  end

let plan_decl st =
  eat st L.LBRACE;
  let rec entries acc =
    match peek st with
    | L.RBRACE ->
        advance st;
        List.rev acc
    | _ -> (
        let rid = intlit st in
        eat st L.ARROW;
        let loc = ident st in
        match peek st with
        | L.COMMA ->
            advance st;
            entries ((rid, loc) :: acc)
        | L.RBRACE ->
            advance st;
            List.rev ((rid, loc) :: acc)
        | _ -> fail st "expected ',' or '}' in plan")
  in
  try Core.Plan.of_list (entries [])
  with Invalid_argument msg -> fail st msg

(* Every history expression the parser hands out is normalized and well
   formed (guarded tail recursion, one use per request identifier): the
   analyses assume it, and an unguarded [mu h. h] would send the contract
   LTS into an endless unfolding. The error points at [(line, col)]. *)
let well_formed ~prefix (line, col) h =
  let h = Core.Hexpr.normalize h in
  match Core.Hexpr.well_formed h with
  | Ok () -> h
  | Error e ->
      raise (Error (Fmt.str "%s%a" prefix Core.Hexpr.pp_wf_error e, line, col))

let location st =
  let { L.line; col; _ } = current st in
  (line, col)

(* [service NAME = HEXPR;] and [client NAME = HEXPR;] *)
let declaration st kind =
  let at = location st in
  advance st;
  let name = ident st in
  eat st L.EQUAL;
  let h = hexpr st in
  eat st L.SEMI;
  (name, well_formed ~prefix:(Fmt.str "%s %s: " kind name) at h)

let spec st =
  let rec go (acc : Spec.t) =
    match peek st with
    | L.EOF ->
        {
          Spec.automata = List.rev acc.Spec.automata;
          services = List.rev acc.services;
          clients = List.rev acc.clients;
          plans = List.rev acc.plans;
          programs = List.rev acc.programs;
          networks = List.rev acc.networks;
        }
    | L.IDENT "policy" ->
        advance st;
        let aut = policy_decl st in
        st.automata <- (aut.Usage.Usage_automaton.name, aut) :: st.automata;
        go
          {
            acc with
            Spec.automata =
              (aut.Usage.Usage_automaton.name, aut) :: acc.Spec.automata;
          }
    | L.IDENT "service" ->
        let name, h = declaration st "service" in
        go { acc with Spec.services = (name, h) :: acc.Spec.services }
    | L.IDENT "client" ->
        let name, h = declaration st "client" in
        go { acc with Spec.clients = (name, h) :: acc.Spec.clients }
    | L.IDENT "plan" ->
        advance st;
        let name = ident st in
        eat st L.EQUAL;
        let p = plan_decl st in
        eat st L.SEMI;
        go { acc with Spec.plans = (name, p) :: acc.Spec.plans }
    | L.IDENT "network" ->
        advance st;
        let name = ident st in
        eat st L.EQUAL;
        eat st L.LBRACE;
        let one () =
          let c = ident st in
          eat st (L.IDENT "with");
          let p = ident st in
          (c, p)
        in
        let rec more acc =
          match peek st with
          | L.COMMA ->
              advance st;
              more (one () :: acc)
          | L.RBRACE ->
              advance st;
              List.rev acc
          | _ -> fail st "expected ',' or '}' in network"
        in
        let entries = more [ one () ] in
        eat st L.SEMI;
        go { acc with Spec.networks = (name, entries) :: acc.Spec.networks }
    | L.IDENT "program" ->
        advance st;
        let name = ident st in
        eat st L.EQUAL;
        let t = term st in
        eat st L.SEMI;
        go { acc with Spec.programs = (name, t) :: acc.Spec.programs }
    | _ ->
        fail st
          "expected a declaration (policy, service, client, plan, program, \
           network)"
  in
  go Spec.empty

let make_state ?(automata = []) src =
  let toks = Array.of_list (Lexer.tokenize src) in
  { toks; pos = 0; automata }

let wrap_lexer_errors f =
  try f ()
  with Lexer.Error (msg, line, col) -> raise (Error (msg, line, col))

let spec_of_string ?automata src =
  wrap_lexer_errors (fun () -> spec (make_state ?automata src))

let hexpr_of_string ?automata src =
  wrap_lexer_errors (fun () ->
      let st = make_state ?automata src in
      let at = location st in
      let h = hexpr st in
      (match peek st with
      | L.EOF -> ()
      | _ -> fail st "trailing input after expression");
      well_formed ~prefix:"" at h)

let term_of_string ?automata src =
  wrap_lexer_errors (fun () ->
      let st = make_state ?automata src in
      let t = term st in
      (match peek st with
      | L.EOF -> ()
      | _ -> fail st "trailing input after program");
      t)

let spec_of_file ?automata path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  spec_of_string ?automata src
