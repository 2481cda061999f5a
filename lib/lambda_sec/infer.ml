type error =
  | Unbound of string
  | Mismatch of { expected : Ast.ty; got : Ast.ty; context : string }
  | Not_a_function of Ast.ty
  | Branches_differ of string
  | Needs_annotation of string
  | Base_type_expected of Ast.ty

let pp_error ppf = function
  | Unbound x -> Fmt.pf ppf "unbound variable %s" x
  | Mismatch { expected; got; context } ->
      Fmt.pf ppf "type mismatch in %s: expected %a, got %a" context Ast.pp_ty
        expected Ast.pp_ty got
  | Not_a_function ty -> Fmt.pf ppf "%a is not a function type" Ast.pp_ty ty
  | Branches_differ where -> Fmt.pf ppf "branches of %s differ in type" where
  | Needs_annotation f ->
      Fmt.pf ppf "recursive function %s needs a return-type annotation" f
  | Base_type_expected ty ->
      Fmt.pf ppf "equality needs base types, got %a" Ast.pp_ty ty

let ( let* ) = Result.bind

let is_base = function
  | Ast.TUnit | Ast.TBool | Ast.TInt | Ast.TStr -> true
  | Ast.TFun _ | Ast.TPair _ -> false

let effect_var self = "h_" ^ self

let rec infer env (e : Ast.term) =
  match e with
  | Ast.Unit -> Ok (Ast.TUnit, Core.Hexpr.nil)
  | Ast.Bool _ -> Ok (Ast.TBool, Core.Hexpr.nil)
  | Ast.Int _ -> Ok (Ast.TInt, Core.Hexpr.nil)
  | Ast.Str _ -> Ok (Ast.TStr, Core.Hexpr.nil)
  | Ast.Var x -> (
      match List.assoc_opt x env with
      | Some ty -> Ok (ty, Core.Hexpr.nil)
      | None -> Error (Unbound x))
  | Ast.Fun { self = None; param; param_ty; ret_ty; body } ->
      let* body_ty, latent = infer ((param, param_ty) :: env) body in
      let* () =
        match ret_ty with
        | Some r when not (Ast.ty_equal r body_ty) ->
            Error (Mismatch { expected = r; got = body_ty; context = "fun body" })
        | _ -> Ok ()
      in
      Ok (Ast.TFun (param_ty, latent, body_ty), Core.Hexpr.nil)
  | Ast.Fun { self = Some f; param; param_ty; ret_ty; body } ->
      let* ret =
        match ret_ty with Some r -> Ok r | None -> Error (Needs_annotation f)
      in
      let h = effect_var f in
      let self_ty = Ast.TFun (param_ty, Core.Hexpr.var h, ret) in
      let env = (f, self_ty) :: (param, param_ty) :: env in
      let* body_ty, body_eff = infer env body in
      if not (Ast.ty_equal body_ty ret) then
        Error (Mismatch { expected = ret; got = body_ty; context = "fix body" })
      else
        let latent = Core.Hexpr.mu h body_eff in
        Ok (Ast.TFun (param_ty, latent, ret), Core.Hexpr.nil)
  | Ast.App (e1, e2) -> (
      let* ty1, eff1 = infer env e1 in
      let* ty2, eff2 = infer env e2 in
      match ty1 with
      | Ast.TFun (arg, latent, res) ->
          if Ast.ty_equal arg ty2 then
            Ok (res, Core.Hexpr.seq eff1 (Core.Hexpr.seq eff2 latent))
          else
            Error (Mismatch { expected = arg; got = ty2; context = "application" })
      | _ -> Error (Not_a_function ty1))
  | Ast.Let (x, e1, e2) ->
      let* ty1, eff1 = infer env e1 in
      let* ty2, eff2 = infer ((x, ty1) :: env) e2 in
      Ok (ty2, Core.Hexpr.seq eff1 eff2)
  | Ast.If (c, e1, e2) ->
      let* tyc, effc = infer env c in
      if not (Ast.ty_equal tyc Ast.TBool) then
        Error (Mismatch { expected = Ast.TBool; got = tyc; context = "if" })
      else
        let* ty1, eff1 = infer env e1 in
        let* ty2, eff2 = infer env e2 in
        if Ast.ty_equal ty1 ty2 then
          Ok (ty1, Core.Hexpr.seq effc (Effect.join eff1 eff2))
        else Error (Branches_differ "if")
  | Ast.Eq (e1, e2) ->
      let* ty1, eff1 = infer env e1 in
      let* ty2, eff2 = infer env e2 in
      if not (is_base ty1) then Error (Base_type_expected ty1)
      else if Ast.ty_equal ty1 ty2 then
        Ok (Ast.TBool, Core.Hexpr.seq eff1 eff2)
      else Error (Mismatch { expected = ty1; got = ty2; context = "equality" })
  | Ast.Binop (op, e1, e2) ->
      let* ty1, eff1 = infer env e1 in
      let* ty2, eff2 = infer env e2 in
      if not (Ast.ty_equal ty1 Ast.TInt) then
        Error (Mismatch { expected = Ast.TInt; got = ty1; context = "operator" })
      else if not (Ast.ty_equal ty2 Ast.TInt) then
        Error (Mismatch { expected = Ast.TInt; got = ty2; context = "operator" })
      else
        let res =
          match op with
          | Ast.Add | Ast.Sub | Ast.Mul -> Ast.TInt
          | Ast.Lt | Ast.Leq -> Ast.TBool
        in
        Ok (res, Core.Hexpr.seq eff1 eff2)
  | Ast.Pair (e1, e2) ->
      let* ty1, eff1 = infer env e1 in
      let* ty2, eff2 = infer env e2 in
      Ok (Ast.TPair (ty1, ty2), Core.Hexpr.seq eff1 eff2)
  | Ast.Fst e -> (
      let* ty, eff = infer env e in
      match ty with
      | Ast.TPair (a, _) -> Ok (a, eff)
      | _ ->
          Error
            (Mismatch
               { expected = Ast.TPair (Ast.TUnit, Ast.TUnit); got = ty; context = "fst" }))
  | Ast.Snd e -> (
      let* ty, eff = infer env e in
      match ty with
      | Ast.TPair (_, b) -> Ok (b, eff)
      | _ ->
          Error
            (Mismatch
               { expected = Ast.TPair (Ast.TUnit, Ast.TUnit); got = ty; context = "snd" }))
  | Ast.Event e -> Ok (Ast.TUnit, Core.Hexpr.event e)
  | Ast.Framed (p, e) ->
      let* ty, eff = infer env e in
      Ok (ty, Core.Hexpr.frame p eff)
  | Ast.Send a -> Ok (Ast.TUnit, Core.Hexpr.send a)
  | Ast.Recv branches -> infer_branches env "recv" Core.Hexpr.branch branches
  | Ast.Select branches -> infer_branches env "select" Core.Hexpr.select branches
  | Ast.Request { rid; policy; body } ->
      let* ty, eff = infer env body in
      Ok (ty, Core.Hexpr.open_ ~rid ?policy eff)

and infer_branches env what combine branches =
  let* inferred =
    List.fold_left
      (fun acc (a, e) ->
        let* acc = acc in
        let* ty, eff = infer env e in
        Ok ((a, ty, eff) :: acc))
      (Ok []) branches
  in
  let inferred = List.rev inferred in
  match inferred with
  | [] -> Error (Branches_differ what)
  | (_, ty0, _) :: _ ->
      if List.for_all (fun (_, ty, _) -> Ast.ty_equal ty ty0) inferred then
        Ok (ty0, combine (List.map (fun (a, _, eff) -> (a, eff)) inferred))
      else Error (Branches_differ what)
