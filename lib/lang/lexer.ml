(** Hand-written lexer for MiniFort concrete syntax.

    The token stream carries source positions for error reporting.  Comments
    run from [//] or [#] to end of line. *)

type token =
  | INT of int
  | REAL of float
  | IDENT of string
  | KW_GLOBAL
  | KW_BLOCKDATA
  | KW_PROC
  | KW_IF
  | KW_ELSE
  | KW_WHILE
  | KW_CALL
  | KW_RETURN
  | KW_PRINT
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | COMMA
  | SEMI
  | ASSIGN  (** [=] *)
  | OP_PLUS
  | OP_MINUS
  | OP_STAR
  | OP_SLASH
  | OP_PERCENT
  | OP_EQ  (** [==] *)
  | OP_NE
  | OP_LT
  | OP_LE
  | OP_GT
  | OP_GE
  | OP_ANDAND
  | OP_OROR
  | OP_BANG
  | EOF

let token_to_string = function
  | INT n -> string_of_int n
  | REAL r -> Printf.sprintf "%g" r
  | IDENT s -> s
  | KW_GLOBAL -> "global"
  | KW_BLOCKDATA -> "blockdata"
  | KW_PROC -> "proc"
  | KW_IF -> "if"
  | KW_ELSE -> "else"
  | KW_WHILE -> "while"
  | KW_CALL -> "call"
  | KW_RETURN -> "return"
  | KW_PRINT -> "print"
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACE -> "{"
  | RBRACE -> "}"
  | COMMA -> ","
  | SEMI -> ";"
  | ASSIGN -> "="
  | OP_PLUS -> "+"
  | OP_MINUS -> "-"
  | OP_STAR -> "*"
  | OP_SLASH -> "/"
  | OP_PERCENT -> "%"
  | OP_EQ -> "=="
  | OP_NE -> "!="
  | OP_LT -> "<"
  | OP_LE -> "<="
  | OP_GT -> ">"
  | OP_GE -> ">="
  | OP_ANDAND -> "&&"
  | OP_OROR -> "||"
  | OP_BANG -> "!"
  | EOF -> "<eof>"

exception Error of string * Ast.pos

let error pos fmt = Fmt.kstr (fun s -> raise (Error (s, pos))) fmt

type t = {
  src : string;
  mutable off : int;
  mutable line : int;
  mutable bol : int;  (** offset of the beginning of the current line *)
}

let create src = { src; off = 0; line = 1; bol = 0 }
let pos lx : Ast.pos = { line = lx.line; col = lx.off - lx.bol + 1 }
let at_end lx = lx.off >= String.length lx.src

(* The current character, or ['\000'] past the end: a plain [char], so
   peeking allocates nothing.  A NUL inside the source is told apart from
   the end by {!at_end}. *)
let peek_char lx = if at_end lx then '\000' else String.unsafe_get lx.src lx.off

let advance lx =
  if peek_char lx = '\n' then begin
    lx.line <- lx.line + 1;
    lx.bol <- lx.off + 1
  end;
  lx.off <- lx.off + 1

let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c

let rec skip_ws lx =
  match peek_char lx with
  | ' ' | '\t' | '\r' | '\n' ->
      advance lx;
      skip_ws lx
  | '#' ->
      skip_line lx;
      skip_ws lx
  | '/' when lx.off + 1 < String.length lx.src && lx.src.[lx.off + 1] = '/' ->
      skip_line lx;
      skip_ws lx
  | _ -> ()

and skip_line lx =
  if not (at_end lx || peek_char lx = '\n') then begin
    advance lx;
    skip_line lx
  end

let keyword_of_string = function
  | "global" -> Some KW_GLOBAL
  | "blockdata" -> Some KW_BLOCKDATA
  | "proc" -> Some KW_PROC
  | "if" -> Some KW_IF
  | "else" -> Some KW_ELSE
  | "while" -> Some KW_WHILE
  | "call" -> Some KW_CALL
  | "return" -> Some KW_RETURN
  | "print" -> Some KW_PRINT
  | _ -> None

let lex_number lx p =
  let start = lx.off in
  let seen_dot = ref false and seen_exp = ref false in
  let rec go () =
    match peek_char lx with
    | c when is_digit c ->
        advance lx;
        go ()
    | '.' when not (!seen_dot || !seen_exp) ->
        seen_dot := true;
        advance lx;
        go ()
    | 'e' | 'E' when not !seen_exp ->
        seen_exp := true;
        advance lx;
        (match peek_char lx with '+' | '-' -> advance lx | _ -> ());
        go ()
    | _ -> ()
  in
  go ();
  let text = String.sub lx.src start (lx.off - start) in
  if !seen_dot || !seen_exp then
    match float_of_string_opt text with
    | Some r -> REAL r
    | None -> error p "malformed real literal %S" text
  else
    match int_of_string_opt text with
    | Some n -> INT n
    | None -> error p "malformed integer literal %S" text

(** [next lx] returns the next token and its start position. *)
let next lx : token * Ast.pos =
  skip_ws lx;
  let p = pos lx in
  if at_end lx then (EOF, p)
  else
  match peek_char lx with
  | c when is_digit c -> (lex_number lx p, p)
  | c when is_ident_start c ->
      let start = lx.off in
      let rec go () =
        if is_ident_char (peek_char lx) then begin
          advance lx;
          go ()
        end
      in
      go ();
      let text = String.sub lx.src start (lx.off - start) in
      let tok =
        match keyword_of_string text with
        | Some kw -> kw
        | None -> (
            (* Reserved real literals, so that {!Value.pp}'s explicit
               nan/inf forms read back as the floats they denote. *)
            match text with
            | "nan" -> REAL Float.nan
            | "inf" -> REAL Float.infinity
            | _ -> IDENT text)
      in
      (tok, p)
  | c ->
      let two ifnext single double =
        advance lx;
        if peek_char lx = ifnext then begin
          advance lx;
          double
        end
        else single
      in
      let tok =
        match c with
        | '(' -> advance lx; LPAREN
        | ')' -> advance lx; RPAREN
        | '{' -> advance lx; LBRACE
        | '}' -> advance lx; RBRACE
        | ',' -> advance lx; COMMA
        | ';' -> advance lx; SEMI
        | '+' -> advance lx; OP_PLUS
        | '-' -> advance lx; OP_MINUS
        | '*' -> advance lx; OP_STAR
        | '/' -> advance lx; OP_SLASH
        | '%' -> advance lx; OP_PERCENT
        | '=' -> two '=' ASSIGN OP_EQ
        | '!' -> two '=' OP_BANG OP_NE
        | '<' -> two '=' OP_LT OP_LE
        | '>' -> two '=' OP_GT OP_GE
        | '&' ->
            advance lx;
            (match peek_char lx with
            | '&' -> advance lx; OP_ANDAND
            | _ -> error p "expected '&&'")
        | '|' ->
            advance lx;
            (match peek_char lx with
            | '|' -> advance lx; OP_OROR
            | _ -> error p "expected '||'")
        | c -> error p "unexpected character %C" c
      in
      (tok, p)

(** Tokenise an entire string (testing convenience). *)
let tokens_of_string src =
  let lx = create src in
  let rec go acc =
    match next lx with
    | EOF, _ -> List.rev (EOF :: acc)
    | tok, _ -> go (tok :: acc)
  in
  go []
