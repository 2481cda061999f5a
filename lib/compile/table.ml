module Contract = Core.Contract

type kind = Knil | Kinert | Kin | Kout

type t = {
  states : int;
  alphabet : string array;
  index : (string, int) Hashtbl.t;
  kind : kind array;
  row_syms : int array array;
  row_tgts : int array array;
  delta : int array;
}

let step t s sym =
  if sym < 0 then -1 else t.delta.((s * Array.length t.alphabet) + sym)

(* ---- escaping ---------------------------------------------------------

   Channel names come from identifiers, but the codec must be total:
   any byte outside [A-Za-z0-9_.] is %XX-escaped, so names can never
   collide with the codec's own separators or the store's field
   syntax. *)

let plain c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '.'

let esc s =
  if String.for_all plain s then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        if plain c then Buffer.add_char b c
        else Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code c)))
      s;
    Buffer.contents b
  end

let unesc s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i >= n then Ok (Buffer.contents b)
    else if s.[i] <> '%' then begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
    else if i + 2 >= n then Error "truncated escape"
    else
      match int_of_string_opt ("0x" ^ String.sub s (i + 1) 2) with
      | Some code when code >= 0 && code < 256 ->
          Buffer.add_char b (Char.chr code);
          go (i + 3)
      | _ -> Error "bad escape"
  in
  go 0

(* ---- the stable store key --------------------------------------------- *)

(* One buffer for the whole term: string concatenation per node would
   copy every suffix once per enclosing node, quadratic in the depth of
   a long session. *)
let contract_key c =
  let b = Buffer.create 64 in
  let add = Buffer.add_string b in
  let rec key c =
    match Contract.node c with
    | Contract.Nil -> add "n"
    | Contract.Var x -> add "v"; add (esc x); add ";"
    | Contract.Mu (x, body) -> add "m"; add (esc x); add ";"; key body
    | Contract.Ext bs -> add "e("; branches bs; add ")"
    | Contract.Int bs -> add "i("; branches bs; add ")"
    | Contract.Seq (l, r) -> add "s("; key l; add ","; key r; add ")"
  and branches bs =
    List.iteri
      (fun i (a, k) ->
        if i > 0 then add ",";
        add (esc a); add ":"; key k)
      bs
  in
  key c;
  Buffer.contents b

(* ---- lowering --------------------------------------------------------- *)

exception Unlowerable

let state_limit = 200_000

let kind_of c trans =
  if Contract.is_terminated c then Knil
  else
    match trans with
    | [] -> Kinert
    | (d, _, _) :: rest ->
        (* the contract LTS is direction-homogeneous per state (Ext
           states only input, Int states only output, Seq/Mu inherit);
           refuse to compile anything that isn't, rather than risk a
           wrong table *)
        if List.exists (fun (d', _, _) -> d' <> d) rest then
          raise Unlowerable
        else if d = Contract.I then Kin
        else Kout

let build ~alphabet ~kind ~row_syms ~row_tgts =
  let states = Array.length kind in
  let nsyms = Array.length alphabet in
  let index = Hashtbl.create (max 16 nsyms) in
  Array.iteri (fun i a -> Hashtbl.replace index a i) alphabet;
  let delta = Array.make (states * nsyms) (-1) in
  Array.iteri
    (fun s syms ->
      Array.iteri
        (fun i sym ->
          if delta.((s * nsyms) + sym) <> -1 then raise Unlowerable;
          delta.((s * nsyms) + sym) <- row_tgts.(s).(i))
        syms)
    row_syms;
  { states; alphabet; index; kind; row_syms; row_tgts; delta }

let lower_exn c0 =
  let idx = Hashtbl.create 64 in
  let rev_states = ref [] and n = ref 0 in
  let add c =
    if !n >= state_limit then raise Unlowerable;
    Hashtbl.add idx (Contract.id c) !n;
    rev_states := c :: !rev_states;
    incr n
  in
  add c0;
  let q = Queue.create () in
  Queue.add c0 q;
  let rev_rows = ref [] in
  while not (Queue.is_empty q) do
    let c = Queue.pop q in
    let trans = Contract.transitions c in
    List.iter
      (fun (_, _, k) ->
        if not (Hashtbl.mem idx (Contract.id k)) then begin
          add k;
          Queue.add k q
        end)
      trans;
    rev_rows := (c, trans) :: !rev_rows
  done;
  let rows = Array.of_list (List.rev !rev_rows) in
  let states = !n in
  let sym_idx = Hashtbl.create 32 in
  let rev_alpha = ref [] and nsyms = ref 0 in
  let sym a =
    match Hashtbl.find_opt sym_idx a with
    | Some i -> i
    | None ->
        let i = !nsyms in
        Hashtbl.add sym_idx a i;
        rev_alpha := a :: !rev_alpha;
        incr nsyms;
        i
  in
  let kind = Array.make states Knil in
  let row_syms = Array.make states [||] and row_tgts = Array.make states [||] in
  for s = 0 to states - 1 do
    let c, trans = rows.(s) in
    kind.(s) <- kind_of c trans;
    row_syms.(s) <- Array.of_list (List.map (fun (_, a, _) -> sym a) trans);
    row_tgts.(s) <-
      Array.of_list
        (List.map (fun (_, _, k) -> Hashtbl.find idx (Contract.id k)) trans)
  done;
  let alphabet = Array.of_list (List.rev !rev_alpha) in
  build ~alphabet ~kind ~row_syms ~row_tgts

let lower c0 =
  if Contract.free_vars c0 <> [] then None
  else begin
    match lower_exn c0 with
    | t ->
        Obs.Metrics.incr "compile.lowerings";
        Obs.Metrics.add "compile.lower.states" t.states;
        Some t
    | exception Unlowerable -> None
  end

(* ---- codec ------------------------------------------------------------

   One line, no spaces:  [STATES;ALPHA;KINDS;ROWS]  with ALPHA the
   comma-separated escaped symbols ([-] when empty), KINDS one
   character per state (n/v/i/o) and ROWS the [|]-separated per-state
   [sym:tgt] comma lists, in row order. *)

let kind_char = function Knil -> 'n' | Kinert -> 'v' | Kin -> 'i' | Kout -> 'o'

let kind_of_char = function
  | 'n' -> Some Knil
  | 'v' -> Some Kinert
  | 'i' -> Some Kin
  | 'o' -> Some Kout
  | _ -> None

let encode t =
  let b = Buffer.create 256 in
  Buffer.add_string b (string_of_int t.states);
  Buffer.add_char b ';';
  if Array.length t.alphabet = 0 then Buffer.add_char b '-'
  else
    Array.iteri
      (fun i a ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (esc a))
      t.alphabet;
  Buffer.add_char b ';';
  Array.iter (fun k -> Buffer.add_char b (kind_char k)) t.kind;
  Buffer.add_char b ';';
  for s = 0 to t.states - 1 do
    if s > 0 then Buffer.add_char b '|';
    Array.iteri
      (fun i sym ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (string_of_int sym);
        Buffer.add_char b ':';
        Buffer.add_string b (string_of_int t.row_tgts.(s).(i)))
      t.row_syms.(s)
  done;
  Buffer.contents b

let ( let* ) = Result.bind

let int_field what s =
  match int_of_string_opt s with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "bad %s %S" what s)

let decode line =
  match String.split_on_char ';' line with
  | [ states_s; alpha_s; kinds_s; rows_s ] ->
      let* states = int_field "state count" states_s in
      if states < 1 || states > state_limit then
        Error (Printf.sprintf "state count %d out of range" states)
      else
        let* alphabet =
          if alpha_s = "-" then Ok [||]
          else
            let rec go acc = function
              | [] -> Ok (Array.of_list (List.rev acc))
              | a :: rest -> (
                  match unesc a with
                  | Ok "" -> Error "empty symbol"
                  | Ok a -> go (a :: acc) rest
                  | Error e -> Error e)
            in
            go [] (String.split_on_char ',' alpha_s)
        in
        let nsyms = Array.length alphabet in
        if
          Array.length
            (Array.of_seq
               (Hashtbl.to_seq_keys
                  (let h = Hashtbl.create 16 in
                   Array.iter (fun a -> Hashtbl.replace h a ()) alphabet;
                   h)))
          <> nsyms
        then Error "duplicate symbol in alphabet"
        else if String.length kinds_s <> states then
          Error
            (Printf.sprintf "kind string has %d entries for %d states"
               (String.length kinds_s) states)
        else
          let* kind =
            let arr = Array.make states Knil in
            let rec go i =
              if i = states then Ok arr
              else
                match kind_of_char kinds_s.[i] with
                | Some k ->
                    arr.(i) <- k;
                    go (i + 1)
                | None ->
                    Error (Printf.sprintf "bad kind %C" kinds_s.[i])
            in
            go 0
          in
          let row_fields = String.split_on_char '|' rows_s in
          if List.length row_fields <> states then
            Error
              (Printf.sprintf "%d rows for %d states"
                 (List.length row_fields) states)
          else
            let row_syms = Array.make states [||]
            and row_tgts = Array.make states [||] in
            let parse_row s field =
              if field = "" then Ok ()
              else
                let cells = String.split_on_char ',' field in
                let rec go syms tgts = function
                  | [] ->
                      row_syms.(s) <- Array.of_list (List.rev syms);
                      row_tgts.(s) <- Array.of_list (List.rev tgts);
                      Ok ()
                  | cell :: rest -> (
                      match String.index_opt cell ':' with
                      | None -> Error (Printf.sprintf "bad cell %S" cell)
                      | Some i ->
                          let* sym =
                            int_field "symbol" (String.sub cell 0 i)
                          in
                          let* tgt =
                            int_field "target"
                              (String.sub cell (i + 1)
                                 (String.length cell - i - 1))
                          in
                          if sym < 0 || sym >= nsyms then
                            Error (Printf.sprintf "symbol %d out of range" sym)
                          else if tgt < 0 || tgt >= states then
                            Error (Printf.sprintf "target %d out of range" tgt)
                          else go (sym :: syms) (tgt :: tgts) rest)
                in
                go [] [] cells
            in
            let rec rows s = function
              | [] -> Ok ()
              | field :: rest ->
                  let* () = parse_row s field in
                  rows (s + 1) rest
            in
            let* () = rows 0 row_fields in
            let rec consistent s =
              if s = states then Ok ()
              else
                let empty = Array.length row_syms.(s) = 0 in
                match kind.(s) with
                | (Knil | Kinert) when not empty ->
                    Error (Printf.sprintf "state %d: transitions on a %s state"
                             s (if kind.(s) = Knil then "nil" else "inert"))
                | (Kin | Kout) when empty ->
                    Error (Printf.sprintf "state %d: choice state with no row" s)
                | _ -> consistent (s + 1)
            in
            let* () = consistent 0 in
            (match build ~alphabet ~kind ~row_syms ~row_tgts with
            | t -> Ok t
            | exception Unlowerable -> Error "duplicate symbol in a row")
  | _ -> Error "malformed table (want STATES;ALPHA;KINDS;ROWS)"
