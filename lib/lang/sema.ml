(** Semantic checks for MiniFort programs.

    A program must pass [check] before being fed to the lowering and analysis
    pipeline; the pipeline assumes well-formedness (e.g. that every call
    resolves and arities match) and would otherwise raise. *)

type error = {
  msg : string;
  where : string;  (** procedure name, or "<program>" *)
  pos : Ast.pos;
}

let pp_error ppf { msg; where; pos } =
  Fmt.pf ppf "%s at %a: %s" where Ast.pp_pos pos msg

exception Illformed of error list

(** Variable classification, shared with lowering. *)
type var_class = Formal of int | Global | Local

(** A program's name table: its globals, hashed once per program.  Every
    per-procedure resolution shares it, so resolving a name costs a scan of
    the procedure's few formals and one probe, whatever the number of
    globals. *)
type scope = { sc_globals : string list; sc_table : (string, unit) Hashtbl.t }

let scope (prog : Ast.program) : scope =
  let sc_table = Hashtbl.create (2 * List.length prog.Ast.globals) in
  List.iter (fun g -> Hashtbl.replace sc_table g ()) prog.Ast.globals;
  { sc_globals = prog.Ast.globals; sc_table }

let globals scope = scope.sc_globals
let is_global scope x = Hashtbl.mem scope.sc_table x

(* [x] against the formals from position [i] on, then the globals.  Not a
   local closure: resolution runs once per identifier occurrence, and a
   closure would be allocated for each. *)
let rec resolve_from scope x i = function
  | [] -> if Hashtbl.mem scope.sc_table x then Global else Local
  | f :: _ when String.equal f x -> Formal i
  | _ :: tl -> resolve_from scope x (i + 1) tl

(** [resolve scope ~formals x] resolves identifier [x] inside a procedure
    with the given formals: the first formal of that name, else the global
    of that name, else a local.  Formals shadow globals. *)
let resolve scope ~formals x : var_class = resolve_from scope x 0 formals

(* [err] prepends one error to [errs]: both checks below accumulate in
   reverse and return in report order. *)
let err errs ?(pos = Ast.no_pos) where fmt =
  Fmt.kstr (fun msg -> errs := { msg; where; pos } :: !errs) fmt

(* Prepend procedure [p]'s errors to [errs], against the program's
   procedure table [find_proc] (name → first definition of that name).
   Only [p]'s own body and formals are read, plus the formal counts of the
   procedures it calls and the set of procedure names. *)
let proc_errors errs ~(find_proc : string -> Ast.proc option) (p : Ast.proc) =
  let rec dup_formals seen = function
    | [] -> ()
    | f :: tl ->
        if List.mem f seen then
          err errs ~pos:p.ppos p.pname "duplicate formal '%s'" f;
        dup_formals (f :: seen) tl
  in
  dup_formals [] p.formals;
  List.iter
    (fun f ->
      if Option.is_some (find_proc f) then
        err errs ~pos:p.ppos p.pname
          "formal '%s' has the same name as a procedure" f)
    p.formals;
  Ast.iter_stmts
    (fun s ->
      match s.sdesc with
      | Ast.Call (q, args) -> (
          match find_proc q with
          | None ->
              err errs ~pos:s.spos p.pname "call to undefined procedure '%s'" q
          | Some callee ->
              let want = List.length callee.formals in
              let got = List.length args in
              if want <> got then
                err errs ~pos:s.spos p.pname
                  "call to '%s' passes %d argument(s), expected %d" q got want)
      | Ast.Assign (x, _) ->
          if Option.is_some (find_proc x) then
            err errs ~pos:s.spos p.pname
              "assignment to '%s' which is a procedure name" x
      | Ast.If _ | Ast.While _ | Ast.Return | Ast.Print _ -> ())
    p.body

(** Errors of one procedure, in report order (see the interface). *)
let check_proc ~find_proc p : error list =
  let errs = ref [] in
  proc_errors errs ~find_proc p;
  List.rev !errs

let check (prog : Ast.program) : (unit, error list) result =
  let errs = ref [] in
  let err ?pos where fmt = err errs ?pos where fmt in
  let where_prog = "<program>" in
  (* Duplicate globals *)
  let rec dup_check seen = function
    | [] -> ()
    | g :: tl ->
        if List.mem g seen then err where_prog "duplicate global '%s'" g;
        dup_check (g :: seen) tl
  in
  dup_check [] prog.globals;
  (* Block data refers to declared globals, no duplicate initialisation *)
  let rec bd_check seen = function
    | [] -> ()
    | (g, _) :: tl ->
        if not (List.mem g prog.globals) then
          err where_prog "block data initialises undeclared global '%s'" g;
        if List.mem g seen then
          err where_prog "global '%s' initialised twice in block data" g;
        bd_check (g :: seen) tl
  in
  bd_check [] prog.blockdata;
  (* Procedure table; duplicate procedures *)
  let ptable = Hashtbl.create 16 in
  List.iter
    (fun (p : Ast.proc) ->
      if Hashtbl.mem ptable p.pname then
        err ~pos:p.ppos where_prog "duplicate procedure '%s'" p.pname
      else Hashtbl.add ptable p.pname p)
    prog.procs;
  (* Entry point *)
  (match Hashtbl.find_opt ptable prog.main with
  | None -> err where_prog "missing entry procedure '%s'" prog.main
  | Some m ->
      if m.formals <> [] then
        err ~pos:m.ppos where_prog "entry procedure '%s' must take no formals"
          prog.main);
  (* Per-procedure checks *)
  List.iter (proc_errors errs ~find_proc:(Hashtbl.find_opt ptable)) prog.procs;
  match List.rev !errs with [] -> Ok () | es -> Error es

(** [check_exn prog] raises {!Illformed} when [check] reports errors. *)
let check_exn prog =
  match check prog with Ok () -> () | Error es -> raise (Illformed es)

let errors_to_string es = Fmt.str "%a" (Fmt.list ~sep:Fmt.cut pp_error) es
