(** Per-procedure IPA input summaries (the paper's "IPA collection phase",
    Figure 2 step 1).

    During collection each procedure is visited once and the facts the
    interprocedural phases need are extracted from its AST: which formals
    and globals it immediately modifies and references, and the argument
    shape at each of its call sites. *)

open Fsicp_lang

(** A variable as seen across procedure boundaries: either the [i]-th formal
    of the procedure under discussion, or a global.  Locals never appear in
    interprocedural sets. *)
type vref = Vformal of int | Vglobal of string

module Vref = struct
  type t = vref

  let compare (a : t) (b : t) =
    match (a, b) with
    | Vformal i, Vformal j -> Int.compare i j
    | Vformal _, Vglobal _ -> -1
    | Vglobal _, Vformal _ -> 1
    | Vglobal g, Vglobal h -> String.compare g h

  let equal a b = compare a b = 0

  let pp ppf = function
    | Vformal i -> Fmt.pf ppf "formal#%d" i
    | Vglobal g -> Fmt.pf ppf "global:%s" g
end

module VrefSet = Set.Make (Vref)

(** Shape of an actual argument, as much as the flow-insensitive methods can
    see without intraprocedural analysis. *)
type arg_summary =
  | Alit of Value.t  (** immediate (literal) constant *)
  | Aformal of int  (** a bare formal of the calling procedure *)
  | Aglobal of string  (** a bare global *)
  | Alocal of string  (** a bare local *)
  | Aexpr  (** any compound expression *)

type call_summary = {
  cs_callee : string;
  cs_args : arg_summary array;
  cs_index : int;  (** textual call-site index within the caller *)
}

type proc_summary = {
  ps_name : string;
  ps_formals : string list;
  ps_imod : VrefSet.t;
      (** formals/globals immediately (directly) assigned in the body *)
  ps_iref : VrefSet.t;  (** formals/globals immediately read in the body *)
  ps_calls : call_summary list;
}

type t = {
  prog : Ast.program;
  table : (string, proc_summary) Hashtbl.t;
}

let classify_arg_with ~classify (e : Ast.expr) : arg_summary =
  match e with
  | Ast.Const v -> Alit v
  | Ast.Var x -> (
      match classify x with
      | Sema.Formal i -> Aformal i
      | Sema.Global -> Aglobal x
      | Sema.Local -> Alocal x)
  | Ast.Unary _ | Ast.Binary _ -> Aexpr

(* Names resolve through the program's scope, so collection is O(body)
   per procedure, not O(body × globals): the globals table is built once
   per program, which matters on the 10⁴–10⁶-procedure corpora. *)
let summarize_in (scope : Sema.scope) (p : Ast.proc) : proc_summary =
  let formals = p.Ast.formals in
  let classify = Sema.resolve scope ~formals in
  let to_vref x =
    match classify x with
    | Sema.Formal i -> Some (Vformal i)
    | Sema.Global -> Some (Vglobal x)
    | Sema.Local -> None
  in
  let imod =
    Ast.assigned_vars p |> List.filter_map to_vref |> VrefSet.of_list
  in
  let iref = Ast.read_vars p |> List.filter_map to_vref |> VrefSet.of_list in
  let calls =
    List.mapi
      (fun cs_index (callee, args, _pos) ->
        {
          cs_callee = callee;
          cs_args =
            Array.of_list (List.map (classify_arg_with ~classify) args);
          cs_index;
        })
      (Ast.call_sites p)
  in
  { ps_name = p.Ast.pname; ps_formals = formals; ps_imod = imod;
    ps_iref = iref; ps_calls = calls }

let summarize_proc (prog : Ast.program) (p : Ast.proc) : proc_summary =
  summarize_in (Sema.scope prog) p

(** Collect summaries for every procedure of the program.  With [prev],
    a procedure whose AST node is physically the one [prev] summarized
    keeps that summary, provided the globals list is physically [prev]'s
    too: a summary reads nothing else. *)
let collect ?prev (prog : Ast.program) : t =
  let table = Hashtbl.create 16 in
  let reused =
    match prev with
    | Some prev when prev.prog.Ast.globals == prog.Ast.globals ->
        let old = Hashtbl.create 64 in
        List.iter
          (fun q -> Hashtbl.replace old q.Ast.pname q)
          prev.prog.Ast.procs;
        fun (p : Ast.proc) ->
          (match Hashtbl.find_opt old p.Ast.pname with
          | Some q when q == p -> Hashtbl.find_opt prev.table p.Ast.pname
          | Some _ | None -> None)
    | Some _ | None -> fun _ -> None
  in
  let scope = Sema.scope prog in
  List.iter
    (fun p ->
      Hashtbl.replace table p.Ast.pname
        (match reused p with Some s -> s | None -> summarize_in scope p))
    prog.Ast.procs;
  { prog; table }

(** Argument shapes match constructor-for-constructor, but two literals
    may carry different payloads: literal argument values feed only the
    constant propagation methods, never the PCG, alias or MOD/REF phases,
    which see only which positions are by-reference and to what. *)
let args_shape_equal (a : arg_summary array) (b : arg_summary array) : bool =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri
    (fun i x ->
      match (x, b.(i)) with
      | Alit _, Alit _ -> ()
      | x, y -> if x <> y then ok := false)
    a;
  !ok

(** Call for call: the same callee at the same index with equal argument
    shapes. *)
let calls_shape_equal (a : call_summary list) (b : call_summary list) : bool
    =
  List.equal
    (fun x y ->
      String.equal x.cs_callee y.cs_callee
      && x.cs_index = y.cs_index
      && args_shape_equal x.cs_args y.cs_args)
    a b

let find t name : proc_summary =
  match Hashtbl.find_opt t.table name with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Summary.find: unknown procedure %s" name)
