(* QCheck generators for the core types: well-formed (guarded,
   tail-recursive) contracts and history expressions, prefix-of-balanced
   histories, and random NFAs. *)
open Core

open QCheck

let channels = [ "a"; "b"; "c"; "d" ]
let event_names = [ "x"; "y"; "z" ]

let event_gen =
  Gen.(
    let* name = oneofl event_names in
    let* arg = opt (map Usage.Value.int (int_bound 5)) in
    return (Usage.Event.make ?arg name))

(* A pool of instantiated policies over the generator's event names. *)
let policy_pool =
  [
    Usage.Policy_lib.instantiate0 (Usage.Policy_lib.never "z");
    Usage.Policy_lib.instantiate0
      (Usage.Policy_lib.never_after ~first:"x" ~then_:"y");
    Usage.Policy_lib.instantiate0 (Usage.Policy_lib.at_most ~n:2 "x");
    Usage.Policy_lib.instantiate0
      (Usage.Policy_lib.requires_before ~before:"x" ~target:"z");
  ]

let policy_gen = Gen.oneofl policy_pool

let distinct_channels =
  Gen.(
    let* k = int_range 1 3 in
    let shuffled = Gen.shuffle_l channels in
    map (fun l -> List.filteri (fun i _ -> i < k) l) shuffled)

(* Contracts: [mu] bodies place the variable only in guarded tail
   position. [var] is the recursion variable currently in scope (if any),
   [guarded] tells whether a choice prefix has been crossed, [tail]
   whether the position is tail. *)
let contract_gen_sized =
  let open Gen in
  let rec go ~var ~guarded ~tail n =
    let leaf =
      match var with
      | Some h when guarded && tail ->
          [ (1, return Contract.nil); (2, return (Contract.var h)) ]
      | _ -> [ (1, return Contract.nil) ]
    in
    if n <= 0 then frequency leaf
    else
      let branches mk =
        let* chans = distinct_channels in
        let* conts =
          flatten_l
            (List.map
               (fun _ -> go ~var ~guarded:true ~tail (n / (1 + List.length chans)))
               chans)
        in
        return (mk (List.combine chans conts))
      in
      let seq_gen =
        let* a = go ~var:None ~guarded ~tail:false (n / 2) in
        let* b = go ~var ~guarded ~tail (n / 2) in
        return (Contract.seq a b)
      in
      let mu_gen =
        match var with
        | Some _ -> frequency leaf
        | None ->
            let* body = go ~var:(Some "h") ~guarded:false ~tail:true (n - 1) in
            return (Contract.mu "h" body)
      in
      frequency
        (leaf
        @ [
            (4, branches Contract.branch);
            (4, branches Contract.select);
            (3, seq_gen);
            (1, mu_gen);
          ])
  in
  fun n -> go ~var:None ~guarded:false ~tail:true n

let contract_gen = Gen.sized_size (Gen.int_bound 12) contract_gen_sized


(* History expressions: contracts enriched with events and framings. *)
let hexpr_gen_sized =
  let open Gen in
  let rec go ~var ~guarded ~tail n =
    let leaf =
      match var with
      | Some h when guarded && tail ->
          [
            (1, return Hexpr.nil);
            (2, return (Hexpr.var h));
            (2, map Hexpr.event event_gen);
          ]
      | _ -> [ (1, return Hexpr.nil); (2, map Hexpr.event event_gen) ]
    in
    if n <= 0 then frequency leaf
    else
      let branches mk =
        let* chans = distinct_channels in
        let* conts =
          flatten_l
            (List.map
               (fun _ -> go ~var ~guarded:true ~tail (n / (1 + List.length chans)))
               chans)
        in
        return (mk (List.combine chans conts))
      in
      let seq_gen =
        let* a = go ~var:None ~guarded ~tail:false (n / 2) in
        let* b = go ~var ~guarded ~tail (n / 2) in
        return (Hexpr.seq a b)
      in
      let frame_gen =
        let* p = policy_gen in
        let* body = go ~var:None ~guarded ~tail:false (n - 1) in
        return (Hexpr.frame p body)
      in
      let choice_gen =
        let* a = go ~var ~guarded ~tail (n / 2) in
        let* b = go ~var ~guarded ~tail (n / 2) in
        return (Hexpr.choice a b)
      in
      let mu_gen =
        match var with
        | Some _ -> frequency leaf
        | None ->
            let* body = go ~var:(Some "h") ~guarded:false ~tail:true (n - 1) in
            return (Hexpr.mu "h" body)
      in
      frequency
        (leaf
        @ [
            (4, branches Hexpr.branch);
            (4, branches Hexpr.select);
            (3, seq_gen);
            (2, frame_gen);
            (1, choice_gen);
            (1, mu_gen);
          ])
  in
  fun n -> go ~var:None ~guarded:false ~tail:true n

let hexpr_gen = Gen.sized_size (Gen.int_bound 10) hexpr_gen_sized

(* Histories that are prefixes of balanced ones. *)
let history_gen =
  Gen.(
    let* len = int_bound 14 in
    let rec build acc active k =
      if k = 0 then return (List.rev acc)
      else
        let close_options =
          match active with
          | [] -> []
          | _ ->
              [
                ( 2,
                  let* p = oneofl active in
                  let rec remove = function
                    | [] -> []
                    | q :: rest ->
                        if Usage.Policy.equal p q then rest else q :: remove rest
                  in
                  build (History.Cl p :: acc) (remove active) (k - 1) );
              ]
        in
        frequency
          ([
             ( 4,
               let* e = event_gen in
               build (History.Ev e :: acc) active (k - 1) );
             ( 2,
               let* p = policy_gen in
               build (History.Op p :: acc) (p :: active) (k - 1) );
           ]
          @ close_options)
    in
    build [] [] len)

let history_print h = Fmt.str "%a" History.pp h
let history_arb = make ~print:history_print history_gen

(* Random NFAs over a char alphabet, with random words to probe them. *)
let nfa_gen =
  Gen.(
    let* n_states = int_range 1 6 in
    let* n_trans = int_range 0 14 in
    let* trans =
      list_size (return n_trans)
        (triple (int_bound (n_states - 1))
           (oneofl [ 'a'; 'b'; 'c' ])
           (int_bound (n_states - 1)))
    in
    let* finals = list_size (int_bound 2) (int_bound (n_states - 1)) in
    return (trans, finals))

let word_gen = Gen.(list_size (int_bound 8) (oneofl [ 'a'; 'b'; 'c' ]))

(* Well-typed λ-terms by type-directed generation. Base types only as
   targets; functions appear through immediately-applied redexes, so
   every generated term is closed and well-typed by construction. *)
let lambda_gen_sized =
  let open QCheck.Gen in
  let module A = Lambda_sec.Ast in
  let rec go (env : (string * A.ty) list) (ty : A.ty) n =
    let vars =
      List.filter_map
        (fun (x, t) -> if A.ty_equal t ty then Some (return (A.Var x)) else None)
        env
    in
    let leaf =
      match ty with
      | A.TUnit ->
          [ return A.Unit; map (fun e -> A.Event e) event_gen; map (fun c -> A.Send c) (oneofl channels) ]
      | A.TInt -> [ map (fun n -> A.Int n) (int_bound 9) ]
      | A.TBool -> [ map (fun b -> A.Bool b) bool ]
      | A.TStr | A.TFun _ | A.TPair _ -> [ return A.Unit (* unused *) ]
    in
    let leaves = List.map (fun g -> (1, g)) (leaf @ vars) in
    if n <= 0 then frequency leaves
    else
      let sub = n / 2 in
      let seq_gen =
        let* e1 = go env A.TUnit sub in
        let* e2 = go env ty sub in
        return (A.seq e1 e2)
      in
      let let_gen =
        let* tx = oneofl [ A.TUnit; A.TInt; A.TBool ] in
        let* e1 = go env tx sub in
        let x = Printf.sprintf "v%d" (List.length env) in
        let* e2 = go ((x, tx) :: env) ty sub in
        return (A.Let (x, e1, e2))
      in
      let if_gen =
        let* c = go env A.TBool sub in
        let* e1 = go env ty sub in
        let* e2 = go env ty sub in
        return (A.If (c, e1, e2))
      in
      let redex_gen =
        let* tx = oneofl [ A.TUnit; A.TInt ] in
        let x = Printf.sprintf "v%d" (List.length env) in
        let* body = go ((x, tx) :: env) ty sub in
        let* arg = go env tx sub in
        return A.(lam x tx body @@@ arg)
      in
      let framed_gen =
        let* p = policy_gen in
        let* body = go env ty sub in
        return (A.Framed (p, body))
      in
      let choice_branches mk =
        let* chans = distinct_channels in
        let* bodies = flatten_l (List.map (fun _ -> go env ty sub) chans) in
        return (mk (List.combine chans bodies))
      in
      let ty_specific =
        match ty with
        | A.TInt ->
            [
              ( 2,
                let* a = go env A.TInt sub in
                let* b = go env A.TInt sub in
                let* op = oneofl [ A.Add; A.Sub; A.Mul ] in
                return (A.Binop (op, a, b)) );
            ]
        | A.TBool ->
            [
              ( 2,
                let* a = go env A.TInt sub in
                let* b = go env A.TInt sub in
                let* op = oneofl [ A.Lt; A.Leq ] in
                return (A.Binop (op, a, b)) );
            ]
        | A.TUnit | A.TStr | A.TFun _ | A.TPair _ -> []
      in
      frequency
        (leaves
        @ ty_specific
        @ [
            (3, seq_gen);
            (2, let_gen);
            (2, if_gen);
            (1, redex_gen);
            (2, framed_gen);
            (2, choice_branches (fun bs -> A.Recv bs));
            (2, choice_branches (fun bs -> A.Select bs));
          ])
  in
  fun n -> go [] Lambda_sec.Ast.TUnit n

let lambda_gen = QCheck.Gen.sized_size (QCheck.Gen.int_bound 8) lambda_gen_sized

let lambda_arb =
  QCheck.make ~print:(Fmt.str "%a" Lambda_sec.Ast.pp) lambda_gen

(* Structural shrinkers: replacing subterms with ε and dropping choice
   branches preserves well-formedness, so shrunk counterexamples stay in
   the generators' fragment. *)
let rec hexpr_shrink (h : Hexpr.t) : Hexpr.t QCheck.Iter.t =
  let open QCheck.Iter in
  match Hexpr.node h with
  | Hexpr.Nil | Hexpr.Var _ -> empty
  | Hexpr.Ev _ -> return Hexpr.nil
  | Hexpr.Mu (x, b) ->
      (* drop the loop, or shrink its body *)
      return b <+> (hexpr_shrink b >|= fun b' -> Hexpr.mu x b')
  | Hexpr.Ext bs ->
      shrink_branches bs >|= (fun bs' -> Hexpr.branch bs')
      <+> of_list (List.map snd bs)
  | Hexpr.Int bs ->
      shrink_branches bs >|= (fun bs' -> Hexpr.select bs')
      <+> of_list (List.map snd bs)
  | Hexpr.Seq (a, b) ->
      return a <+> return b
      <+> (hexpr_shrink a >|= fun a' -> Hexpr.seq a' b)
      <+> (hexpr_shrink b >|= fun b' -> Hexpr.seq a b')
  | Hexpr.Open ({ rid; policy }, b) ->
      return b
      <+> (hexpr_shrink b >|= fun b' -> Hexpr.open_ ~rid ?policy b')
  | Hexpr.Close _ | Hexpr.Frame_close _ -> return Hexpr.nil
  | Hexpr.Frame (p, b) ->
      return b <+> (hexpr_shrink b >|= fun b' -> Hexpr.frame p b')
  | Hexpr.Choice (a, b) ->
      return a <+> return b
      <+> (hexpr_shrink a >|= fun a' -> Hexpr.choice a' b)
      <+> (hexpr_shrink b >|= fun b' -> Hexpr.choice a b')

and shrink_branches bs =
  let open QCheck.Iter in
  (* drop one branch (keeping at least one), or shrink one continuation *)
  let drops =
    if List.length bs <= 1 then empty
    else
      of_list
        (List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) bs) bs)
  in
  let shrunk =
    of_list (List.mapi (fun i (a, k) -> (i, a, k)) bs) >>= fun (i, a, k) ->
    hexpr_shrink k >|= fun k' ->
    List.mapi (fun j b -> if j = i then (a, k') else b) bs
  in
  drops <+> shrunk

let hexpr_arb =
  QCheck.make ~print:Hexpr.to_string ~shrink:hexpr_shrink hexpr_gen

let rec contract_shrink (c : Contract.t) : Contract.t QCheck.Iter.t =
  let open QCheck.Iter in
  match Contract.node c with
  | Contract.Nil | Contract.Var _ -> empty
  | Contract.Mu (x, b) ->
      return b <+> (contract_shrink b >|= fun b' -> Contract.mu x b')
  | Contract.Ext bs ->
      contract_branches bs >|= (fun bs' -> Contract.branch bs')
      <+> of_list (List.map snd bs)
  | Contract.Int bs ->
      contract_branches bs >|= (fun bs' -> Contract.select bs')
      <+> of_list (List.map snd bs)
  | Contract.Seq (a, b) ->
      return a <+> return b
      <+> (contract_shrink a >|= fun a' -> Contract.seq a' b)
      <+> (contract_shrink b >|= fun b' -> Contract.seq a b')

and contract_branches bs =
  let open QCheck.Iter in
  let drops =
    if List.length bs <= 1 then empty
    else
      of_list (List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) bs) bs)
  in
  let shrunk =
    of_list (List.mapi (fun i (a, k) -> (i, a, k)) bs) >>= fun (i, a, k) ->
    contract_shrink k >|= fun k' ->
    List.mapi (fun j b -> if j = i then (a, k') else b) bs
  in
  drops <+> shrunk

let contract_arb =
  QCheck.make ~print:Contract.to_string ~shrink:contract_shrink contract_gen
