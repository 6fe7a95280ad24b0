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

(** [classify ~globals ~formals x] resolves identifier [x] inside a procedure
    with the given formals, under the program's global declarations.
    Formals shadow globals of the same name. *)
let classify ~globals ~formals x : var_class =
  let rec find_formal i = function
    | [] -> None
    | f :: _ when String.equal f x -> Some i
    | _ :: tl -> find_formal (i + 1) tl
  in
  match find_formal 0 formals with
  | Some i -> Formal i
  | None -> if List.mem x globals then Global else Local

(** Hashed variant of {!classify} for per-procedure bulk resolution: the
    lookup tables are built once, so each query is O(1) instead of a list
    scan over the program's globals.  Identical results to {!classify}. *)
let classifier ~globals ~formals : string -> var_class =
  let tbl = Hashtbl.create (4 * (List.length formals + 1)) in
  List.iter (fun g -> Hashtbl.replace tbl g Global) globals;
  (* Formals shadow globals of the same name; first occurrence wins, as in
     [classify]'s left-to-right scan. *)
  List.iteri
    (fun i f -> if not (Hashtbl.mem tbl f) || Hashtbl.find tbl f = Global
                then Hashtbl.replace tbl f (Formal i))
    formals;
  fun x ->
    match Hashtbl.find_opt tbl x with Some c -> c | None -> Local

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
