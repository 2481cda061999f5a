type token =
  | IDENT of string
  | INTLIT of int
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | COMMA
  | SEMI
  | DOT
  | COLON
  | QUESTION
  | BANG
  | PLUS
  | OPLUS
  | CHOICE
  | HASH
  | TILDE
  | ARROW
  | EDGE
  | EDGEARROW
  | LE
  | LT
  | GE
  | GT
  | EQUAL
  | EQEQ
  | NEQ
  | PIPE
  | STAR
  | MINUS
  | AMP
  | EOF

type located = { token : token; line : int; col : int }

exception Error of string * int * int

let is_ident_start c = ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || ('0' <= c && c <= '9')
let is_digit c = '0' <= c && c <= '9'

let tokenize src =
  let n = String.length src in
  let line = ref 1 and bol = ref 0 in
  let toks = ref [] in
  let emit pos token =
    toks := { token; line = !line; col = pos - !bol + 1 } :: !toks
  in
  let fail pos msg = raise (Error (msg, !line, pos - !bol + 1)) in
  let peek i = if i < n then Some src.[i] else None in
  let rec go i =
    if i >= n then emit i EOF
    else
      match src.[i] with
      | ' ' | '\t' | '\r' -> go (i + 1)
      | '\n' ->
          incr line;
          bol := i + 1;
          go (i + 1)
      | '/' when peek (i + 1) = Some '/' ->
          let rec skip j =
            if j >= n || src.[j] = '\n' then go j else skip (j + 1)
          in
          skip (i + 1)
      | '(' when peek (i + 1) = Some '+' && peek (i + 2) = Some ')' ->
          emit i OPLUS;
          go (i + 3)
      | '(' ->
          emit i LPAREN;
          go (i + 1)
      | ')' ->
          emit i RPAREN;
          go (i + 1)
      | '{' ->
          emit i LBRACE;
          go (i + 1)
      | '}' ->
          emit i RBRACE;
          go (i + 1)
      | '[' ->
          emit i LBRACKET;
          go (i + 1)
      | ']' ->
          emit i RBRACKET;
          go (i + 1)
      | ',' ->
          emit i COMMA;
          go (i + 1)
      | ';' ->
          emit i SEMI;
          go (i + 1)
      | '.' ->
          emit i DOT;
          go (i + 1)
      | ':' ->
          emit i COLON;
          go (i + 1)
      | '?' ->
          emit i QUESTION;
          go (i + 1)
      | '!' when peek (i + 1) = Some '=' ->
          emit i NEQ;
          go (i + 2)
      | '!' ->
          emit i BANG;
          go (i + 1)
      | '+' ->
          emit i PLUS;
          go (i + 1)
      | '#' ->
          emit i HASH;
          go (i + 1)
      | '~' ->
          emit i TILDE;
          go (i + 1)
      | '<' when peek (i + 1) = Some '+' && peek (i + 2) = Some '>' ->
          emit i CHOICE;
          go (i + 3)
      | '<' when peek (i + 1) = Some '=' ->
          emit i LE;
          go (i + 2)
      | '<' ->
          emit i LT;
          go (i + 1)
      | '>' when peek (i + 1) = Some '=' ->
          emit i GE;
          go (i + 2)
      | '>' ->
          emit i GT;
          go (i + 1)
      | '=' when peek (i + 1) = Some '=' ->
          emit i EQEQ;
          go (i + 2)
      | '=' ->
          emit i EQUAL;
          go (i + 1)
      | '|' ->
          emit i PIPE;
          go (i + 1)
      | '-' when peek (i + 1) = Some '>' ->
          emit i ARROW;
          go (i + 2)
      | '-' when peek (i + 1) = Some '-' ->
          if peek (i + 2) = Some '>' then begin
            emit i EDGEARROW;
            go (i + 3)
          end
          else begin
            emit i EDGE;
            go (i + 2)
          end
      | '-' ->
          emit i MINUS;
          go (i + 1)
      | '*' ->
          emit i STAR;
          go (i + 1)
      | '&' ->
          emit i AMP;
          go (i + 1)
      | c when is_digit c ->
          let rec scan j = if j < n && is_digit src.[j] then scan (j + 1) else j in
          let j = scan i in
          (match int_of_string_opt (String.sub src i (j - i)) with
          | Some v -> emit i (INTLIT v)
          | None -> fail i "integer literal out of range");
          go j
      | c when is_ident_start c ->
          let rec scan j =
            if j < n && is_ident_char src.[j] then scan (j + 1) else j
          in
          let j = scan i in
          emit i (IDENT (String.sub src i (j - i)));
          go j
      | c -> fail i (Printf.sprintf "unexpected character %C" c)
  in
  go 0;
  List.rev !toks

let pp_token ppf = function
  | IDENT s -> Fmt.pf ppf "identifier %S" s
  | INTLIT n -> Fmt.pf ppf "integer %d" n
  | LPAREN -> Fmt.string ppf "'('"
  | RPAREN -> Fmt.string ppf "')'"
  | LBRACE -> Fmt.string ppf "'{'"
  | RBRACE -> Fmt.string ppf "'}'"
  | LBRACKET -> Fmt.string ppf "'['"
  | RBRACKET -> Fmt.string ppf "']'"
  | COMMA -> Fmt.string ppf "','"
  | SEMI -> Fmt.string ppf "';'"
  | DOT -> Fmt.string ppf "'.'"
  | COLON -> Fmt.string ppf "':'"
  | QUESTION -> Fmt.string ppf "'?'"
  | BANG -> Fmt.string ppf "'!'"
  | PLUS -> Fmt.string ppf "'+'"
  | OPLUS -> Fmt.string ppf "'(+)'"
  | CHOICE -> Fmt.string ppf "'<+>'"
  | HASH -> Fmt.string ppf "'#'"
  | TILDE -> Fmt.string ppf "'~'"
  | ARROW -> Fmt.string ppf "'->'"
  | EDGE -> Fmt.string ppf "'--'"
  | EDGEARROW -> Fmt.string ppf "'-->'"
  | LE -> Fmt.string ppf "'<='"
  | LT -> Fmt.string ppf "'<'"
  | GE -> Fmt.string ppf "'>='"
  | GT -> Fmt.string ppf "'>'"
  | EQUAL -> Fmt.string ppf "'='"
  | EQEQ -> Fmt.string ppf "'=='"
  | NEQ -> Fmt.string ppf "'!='"
  | PIPE -> Fmt.string ppf "'|'"
  | STAR -> Fmt.string ppf "'*'"
  | MINUS -> Fmt.string ppf "'-'"
  | AMP -> Fmt.string ppf "'&'"
  | EOF -> Fmt.string ppf "end of input"
