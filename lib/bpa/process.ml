(* A compound node carries the hash of its whole term, built by [seq]
   and [alt] from its children's, so a walk hashes and tells apart its
   states in time independent of their size. *)
type t =
  | Zero
  | Atom of Sym.t
  | Seq of int * t * t
  | Alt of int * t * t
  | Var of string

type defs = (string * t) list

let comb a b = ((a * 19) + b) land max_int

let hash_sym = function
  | Sym.Ev e -> comb 1 (Hashtbl.hash e)
  | Sym.Frm_open p -> comb 2 (Hashtbl.hash (Usage.Policy.id p))
  | Sym.Frm_close p -> comb 3 (Hashtbl.hash (Usage.Policy.id p))
  | Sym.Comm s -> comb 4 (Hashtbl.hash s)

let hash = function
  | Zero -> 0
  | Atom a -> comb 1 (hash_sym a)
  | Seq (h, _, _) | Alt (h, _, _) -> h
  | Var x -> comb 4 (Hashtbl.hash x)

(* Physical identity, then the stored hashes, then structure. *)
let rec equal x y =
  x == y
  ||
  match (x, y) with
  | Zero, Zero -> true
  | Atom a, Atom b -> Sym.equal a b
  | Seq (h, a, b), Seq (k, c, d) | Alt (h, a, b), Alt (k, c, d) ->
      h = k && equal a c && equal b d
  | Var a, Var b -> String.equal a b
  | (Zero | Atom _ | Seq _ | Alt _ | Var _), _ -> false

let atom a = Atom a

let rec seq a b =
  match (a, b) with
  | Zero, p | p, Zero -> p
  | Seq (_, x, y), p -> seq x (seq y p)
  | _ -> Seq (comb (comb 2 (hash a)) (hash b), a, b)

let alt a b = if equal a b then a else Alt (comb (comb 3 (hash a)) (hash b), a, b)

let fresh_def =
  let counter = ref 0 in
  fun base ->
    incr counter;
    Printf.sprintf "X_%s_%d" base !counter

let of_hexpr h0 =
  let defs = ref [] in
  let rec tr env (h : Core.Hexpr.t) =
    match Core.Hexpr.node h with
    | Core.Hexpr.Nil -> Zero
    | Core.Hexpr.Var x -> (
        match List.assoc_opt x env with
        | Some name -> Var name
        | None -> Var x)
    | Core.Hexpr.Mu (x, b) ->
        let name = fresh_def x in
        let body = tr ((x, name) :: env) b in
        defs := (name, body) :: !defs;
        Var name
    | Core.Hexpr.Ext bs ->
        sum (List.map (fun (a, k) -> seq (Atom (Sym.Comm (a ^ "?"))) (tr env k)) bs)
    | Core.Hexpr.Int bs ->
        sum (List.map (fun (a, k) -> seq (Atom (Sym.Comm (a ^ "!"))) (tr env k)) bs)
    | Core.Hexpr.Ev e -> Atom (Sym.Ev e)
    | Core.Hexpr.Seq (a, b) -> seq (tr env a) (tr env b)
    | Core.Hexpr.Open ({ policy = Some p; _ }, b) ->
        seq (Atom (Sym.Frm_open p)) (seq (tr env b) (Atom (Sym.Frm_close p)))
    | Core.Hexpr.Open ({ policy = None; _ }, b) ->
        seq (Atom (Sym.Comm "open")) (seq (tr env b) (Atom (Sym.Comm "close")))
    | Core.Hexpr.Close { policy = Some p; _ } -> Atom (Sym.Frm_close p)
    | Core.Hexpr.Close { policy = None; _ } -> Atom (Sym.Comm "close")
    | Core.Hexpr.Frame (p, b) ->
        seq (Atom (Sym.Frm_open p)) (seq (tr env b) (Atom (Sym.Frm_close p)))
    | Core.Hexpr.Frame_close p -> Atom (Sym.Frm_close p)
    | Core.Hexpr.Choice (a, b) -> alt (tr env a) (tr env b)
  and sum = function
    | [] -> Zero
    | [ p ] -> p
    | p :: rest -> alt p (sum rest)
  in
  let p = tr [] h0 in
  (p, List.rev !defs)

(* Can the process terminate without performing any action? Least fixed
   point over the definitions (all-false start, iterate to stability). *)
let nullable_table defs =
  let tbl = Hashtbl.create 17 in
  List.iter (fun (x, _) -> Hashtbl.replace tbl x false) defs;
  let rec nul = function
    | Zero -> true
    | Atom _ -> false
    | Seq (_, a, b) -> nul a && nul b
    | Alt (_, a, b) -> nul a || nul b
    | Var x -> Option.value (Hashtbl.find_opt tbl x) ~default:false
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (x, body) ->
        let v = nul body in
        if v && not (Hashtbl.find tbl x) then begin
          Hashtbl.replace tbl x true;
          changed := true
        end)
      defs
  done;
  nul

let is_terminated = function Zero -> true | _ -> false

let transitions defs =
  let nullable = nullable_table defs in
  let rec trans p =
    match p with
    | Zero -> []
    | Atom a -> [ (a, Zero) ]
    | Var x -> (
        match List.assoc_opt x defs with
        | None -> []
        | Some body -> trans body)
    | Alt (_, p, q) -> trans p @ trans q
    | Seq (_, p, q) ->
        let left = List.map (fun (a, p') -> (a, seq p' q)) (trans p) in
        if nullable p then left @ trans q else left
  in
  trans

module Walk = Automata.Bfs.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

module Nfa = Automata.Nfa.Make (Sym)

let to_nfa defs p0 =
  let trans = transitions defs in
  let states = ref [] and edges = ref [] in
  ignore
    (Walk.run [ p0 ] ~limit:100_000
       ~edge:(fun i a j -> edges := (i, a, j) :: !edges)
       (fun _ _ p ->
         states := p :: !states;
         Automata.Bfs.Expand (trans p)));
  let states = Array.of_list (List.rev !states) in
  let decode i = if i < Array.length states then Some states.(i) else None in
  (Nfa.create ~init:[ 0 ] ~finals:[] ~trans:!edges, decode)

let rec size = function
  | Zero | Atom _ | Var _ -> 1
  | Seq (_, a, b) | Alt (_, a, b) -> 1 + size a + size b

let rec pp ppf = function
  | Zero -> Fmt.string ppf "0"
  | Atom a -> Sym.pp ppf a
  | Seq (_, a, b) -> Fmt.pf ppf "%a . %a" pp_atom a pp b
  | Alt (_, a, b) -> Fmt.pf ppf "(%a + %a)" pp a pp b
  | Var x -> Fmt.string ppf x

and pp_atom ppf p =
  match p with
  | Seq _ | Alt _ -> Fmt.pf ppf "(%a)" pp p
  | Zero | Atom _ | Var _ -> pp ppf p
