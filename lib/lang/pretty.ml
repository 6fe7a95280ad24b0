(** Pretty-printer for MiniFort.

    The output is valid concrete syntax: for every well-formed program [p],
    [Parser.program_of_string (to_string p)] is structurally equal to [p]
    (positions aside).  This round-trip is checked by a property test.

    Everything is written straight into one {!Buffer}: a corpus prints
    megabytes of text, and Format boxes allocated about seventeen words
    per byte of it. *)

open Ast

let str = Buffer.add_string
let chr = Buffer.add_char

let value b = function
  | Value.Int n -> str b (string_of_int n)
  | Value.Real r -> str b (Value.real_to_string r)

let rec expr b ~prec = function
  | Const v -> value b v
  | Var x -> str b x
  | Unary (op, e) ->
      str b (Ops.unop_to_string op);
      atom b e
  | Binary (op, l, r) ->
      (* Left-associative: the right operand needs strictly higher
         precedence to avoid re-association on re-parse. *)
      let p = Ops.binop_precedence op in
      if p < prec then chr b '(';
      expr b ~prec:p l;
      chr b ' ';
      str b (Ops.binop_to_string op);
      chr b ' ';
      expr b ~prec:(p + 1) r;
      if p < prec then chr b ')'

(* The operand of a unary operator: anything but a variable or a
   non-negative literal is parenthesized. *)
and atom b e =
  match e with
  | Var _ -> expr b ~prec:0 e
  | Const (Value.Int n) when n >= 0 -> expr b ~prec:0 e
  | Const (Value.Real r) when not (r < 0.0) -> expr b ~prec:0 e
  | Const _ | Unary _ | Binary _ ->
      chr b '(';
      expr b ~prec:0 e;
      chr b ')'

let comma_list b f = List.iteri (fun i x -> if i > 0 then str b ", "; f x)
let pad b indent = for _ = 1 to indent do chr b ' ' done

let rec stmt b ~indent (s : stmt) =
  pad b indent;
  match s.sdesc with
  | Assign (x, e) ->
      str b x;
      str b " = ";
      expr b ~prec:0 e;
      chr b ';'
  | If (c, t, e) -> (
      str b "if (";
      expr b ~prec:0 c;
      str b ") ";
      block b ~indent t;
      match e with
      | [] -> ()
      | _ ->
          str b " else ";
          block b ~indent e)
  | While (c, body) ->
      str b "while (";
      expr b ~prec:0 c;
      str b ") ";
      block b ~indent body
  | Call (p, args) ->
      str b "call ";
      str b p;
      chr b '(';
      comma_list b (expr b ~prec:0) args;
      str b ");"
  | Return -> str b "return;"
  | Print e ->
      str b "print ";
      expr b ~prec:0 e;
      chr b ';'

and block b ~indent = function
  | [] -> str b "{ }"
  | body ->
      str b "{\n";
      List.iter (fun s -> stmt b ~indent:(indent + 2) s; chr b '\n') body;
      pad b indent;
      chr b '}'

let proc b (p : proc) =
  str b "proc ";
  str b p.pname;
  chr b '(';
  comma_list b (str b) p.formals;
  str b ") ";
  block b ~indent:0 p.body

let program b (prog : program) =
  let initialised = Hashtbl.create (List.length prog.blockdata) in
  List.iter (fun (g, _) -> Hashtbl.replace initialised g ()) prog.blockdata;
  (match List.filter (fun g -> not (Hashtbl.mem initialised g)) prog.globals with
  | [] -> ()
  | declared_only ->
      str b "global ";
      comma_list b (str b) declared_only;
      str b ";\n");
  if prog.blockdata <> [] then begin
    str b "blockdata {\n";
    List.iter
      (fun (g, v) -> str b "  "; str b g; str b " = "; value b v; str b ";\n")
      prog.blockdata;
    str b "}\n"
  end;
  List.iter (fun p -> proc b p; chr b '\n') prog.procs

let to_string f x =
  let b = Buffer.create 4096 in
  f b x;
  Buffer.contents b

let expr_to_string = to_string (expr ~prec:0)
let stmt_to_string = to_string (stmt ~indent:0)
let proc_to_string = to_string proc
let program_to_string = to_string program
let pp_program ppf p = Fmt.string ppf (program_to_string p)
