(** Quad-style intermediate representation.

    Each MiniFort procedure is lowered ({!Lower}) to a control-flow graph of
    basic blocks over a flat, three-address instruction set.  Expressions are
    flattened into compiler temporaries so that every instruction has at most
    one operator — the shape the sparse conditional constant propagation
    ({!Fsicp_scc}) works on. *)

open Fsicp_lang
open Fsicp_prog

(** How an identifier was resolved.  [Formal] carries the parameter index,
    which the interprocedural analyses use to bind actuals to formals. *)
type kind =
  | Local
  | Formal of int
  | Global
  | Temp  (** compiler-introduced temporary; never escapes the procedure *)

type var = { vid : Prog.Var.id; vkind : kind }
(** [vid] is the interned name ({!Fsicp_prog.Prog.Var}): hashing and
    equating variables are single-word integer operations on the SSA and
    SCC hot paths.

    {!Var.compare} is the one variable order: by name, then by kind.  It
    never depends on the order in which the process interned the names, so
    neither does anything sorted by it (the SSA universe, call-def and
    kill lists, {!VarSet}) nor, through them, [Solution.digest]. *)

module Var = struct
  type t = var

  let name v = Prog.Var.name v.vid

  (* Explicit tag-based compare: [Stdlib.compare] on [vkind] would be
     polymorphic (slower, and fragile the day [kind] gains a non-constant
     constructor other than [Formal]). *)
  let kind_tag = function Local -> 0 | Formal _ -> 1 | Global -> 2 | Temp -> 3

  let compare_kind a b =
    match (a, b) with
    | Formal i, Formal j -> Int.compare i j
    | _ -> Int.compare (kind_tag a) (kind_tag b)

  (* [Prog.Var.compare] reads no name when the ids are equal. *)
  let compare a b =
    match Prog.Var.compare a.vid b.vid with
    | 0 -> compare_kind a.vkind b.vkind
    | c -> c

  let equal a b = Prog.Var.equal a.vid b.vid && compare_kind a.vkind b.vkind = 0

  let hash v =
    let k = match v.vkind with Formal i -> 4 + i | k -> kind_tag k in
    (Prog.Var.hash v.vid * 31) + k

  (** Collision-free int key within one procedure's variable universe: the
      interned name id plus the kind tag.  (The [Formal] index is dropped:
      a name resolves to at most one formal slot per procedure.)  An
      identity for dense and hashed tables — the construction scratch of
      {!Fsicp_ssa.Ssa} and {!Fsicp_scc.Scc.env_of_list} — never an order:
      it depends on the process's interning order. *)
  let slot_key v = (Prog.Var.to_int v.vid * 4) + kind_tag v.vkind

  let pp ppf v =
    match v.vkind with
    | Local -> Fmt.pf ppf "%s" (name v)
    | Formal i -> Fmt.pf ppf "%s{f%d}" (name v) i
    | Global -> Fmt.pf ppf "%s{g}" (name v)
    | Temp -> Fmt.pf ppf "%s" (name v)

  let is_temp v = v.vkind = Temp
  let is_global v = v.vkind = Global
  let is_formal v = match v.vkind with Formal _ -> true | _ -> false

  (** Source-level variables — the ones metrics count uses of. *)
  let is_source v = not (is_temp v)
end

module VarSet = Set.Make (Var)
module VarMap = Map.Make (Var)

let local name = { vid = Prog.Var.intern name; vkind = Local }
let formal name i = { vid = Prog.Var.intern name; vkind = Formal i }
let global name = { vid = Prog.Var.intern name; vkind = Global }
let temp i = { vid = Prog.Var.intern (Printf.sprintf "$t%d" i); vkind = Temp }

type operand = Const of Value.t | Var of var

let pp_operand ppf = function
  | Const v -> Value.pp ppf v
  | Var v -> Var.pp ppf v

type rhs =
  | Copy of operand
  | Unop of Ops.unop * operand
  | Binop of Ops.binop * operand * operand

let pp_rhs ppf = function
  | Copy o -> pp_operand ppf o
  | Unop (op, o) -> Fmt.pf ppf "%a%a" Ops.pp_unop op pp_operand o
  | Binop (op, a, b) ->
      Fmt.pf ppf "%a %a %a" pp_operand a Ops.pp_binop op pp_operand b

(** A call argument.  [a_byref] is [Some v] when the source actual was the
    bare variable [v] (passed by reference, so the callee may write through
    it); in that case [a_operand = Var v].  Literal actuals keep their
    [Const] operand, which is how the IMM column of Table 1 and the literal
    jump function recognise immediate constants. *)
type arg = { a_operand : operand; a_byref : var option }

type instr =
  | Assign of var * rhs
  | Call of { cs_id : int; callee : string; args : arg array }
      (** [cs_id] numbers call sites within the procedure in textual order *)
  | Print of operand

let pp_instr ppf = function
  | Assign (v, rhs) -> Fmt.pf ppf "%a = %a" Var.pp v pp_rhs rhs
  | Call { cs_id; callee; args } ->
      Fmt.pf ppf "call[%d] %s(%a)" cs_id callee
        Fmt.(array ~sep:(any ", ") (fun ppf a -> pp_operand ppf a.a_operand))
        args
  | Print o -> Fmt.pf ppf "print %a" pp_operand o

type terminator =
  | Goto of int
  | Cond of operand * int * int  (** [Cond (c, if_true, if_false)] *)
  | Ret

let pp_terminator ppf = function
  | Goto b -> Fmt.pf ppf "goto B%d" b
  | Cond (c, t, f) -> Fmt.pf ppf "if %a then B%d else B%d" pp_operand c t f
  | Ret -> Fmt.string ppf "ret"

type block = { instrs : instr array; term : terminator }

type cfg = {
  blocks : block array;
  entry : int;  (** always [0] after lowering *)
}

(** A lowered procedure. *)
type proc = {
  name : string;
  formals : var array;
  cfg : cfg;
  n_call_sites : int;
}

let successors (b : block) : int list =
  match b.term with
  | Goto t -> [ t ]
  | Cond (_, t, f) -> if t = f then [ t ] else [ t; f ]
  | Ret -> []

let predecessors (cfg : cfg) : int list array =
  let preds = Array.make (Array.length cfg.blocks) [] in
  Array.iteri
    (fun i b -> List.iter (fun s -> preds.(s) <- i :: preds.(s)) (successors b))
    cfg.blocks;
  Array.map List.rev preds

(** Reverse postorder of the reachable blocks, starting at the entry. *)
let reverse_postorder (cfg : cfg) : int array =
  let n = Array.length cfg.blocks in
  let seen = Array.make n false in
  let order = ref [] in
  let rec dfs i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter dfs (successors cfg.blocks.(i));
      order := i :: !order
    end
  in
  dfs cfg.entry;
  Array.of_list !order

(** Iterate over every instruction of the CFG (all blocks, in block order). *)
let iter_instrs f (cfg : cfg) =
  Array.iteri
    (fun bi b -> Array.iteri (fun ii ins -> f ~block:bi ~index:ii ins) b.instrs)
    cfg.blocks

(** All variables occurring in the procedure (defined or used), excluding
    call-effect globals that never appear textually. *)
let occurring_vars (p : proc) : VarSet.t =
  let acc = ref VarSet.empty in
  let add_op = function Const _ -> () | Var v -> acc := VarSet.add v !acc in
  let add_rhs = function
    | Copy o | Unop (_, o) -> add_op o
    | Binop (_, a, b) ->
        add_op a;
        add_op b
  in
  Array.iter (fun f -> acc := VarSet.add f !acc) p.formals;
  Array.iter
    (fun b ->
      Array.iter
        (function
          | Assign (v, rhs) ->
              acc := VarSet.add v !acc;
              add_rhs rhs
          | Call { args; _ } ->
              Array.iter (fun a -> add_op a.a_operand) args
          | Print o -> add_op o)
        b.instrs;
      match b.term with Cond (c, _, _) -> add_op c | Goto _ | Ret -> ())
    p.cfg.blocks;
  !acc

let pp_proc ppf (p : proc) =
  Fmt.pf ppf "proc %s(%a):@\n" p.name
    Fmt.(array ~sep:(any ", ") Var.pp)
    p.formals;
  Array.iteri
    (fun i b ->
      Fmt.pf ppf "B%d:@\n" i;
      Array.iter (fun ins -> Fmt.pf ppf "  %a@\n" pp_instr ins) b.instrs;
      Fmt.pf ppf "  %a@\n" pp_terminator b.term)
    p.cfg.blocks

let proc_to_string p = Fmt.str "%a" pp_proc p
