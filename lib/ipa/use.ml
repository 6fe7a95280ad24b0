(** Flow-sensitive interprocedural USE (paper §3.2).

    [USE(p)] is the set of formals and globals that may be {e referenced
    before being defined} when [p] is invoked — upward-exposed uses,
    propagated interprocedurally.  The paper computes it with the same
    one-pass discipline as the flow-sensitive ICP, mirrored here: one
    reverse topological traversal of the PCG in which a call site uses the
    callee's already-computed USE set for forward edges and falls back to
    the (flow-insensitive) REF information for back edges.

    Within a procedure we run the backward upward-exposed-uses dataflow
    (liveness, read at the entry block).  Call sites {e kill} nothing (MOD
    is may-information; only must-definitions may kill a use, and plain
    assignments are the only must-definitions), which keeps USE an
    over-approximation.

    The sets are bitsets over {!Modref}'s numbering: global [g] is bit [g],
    formal [i] is bit [G + i].  Locals and temporaries have no bit.
    Liveness treats every variable independently and only formals and
    globals reach the entry set, so leaving them out changes nothing.  Each
    block gets gen/kill words once; the fixpoint is then word operations
    only.  [test/use_reference.ml] keeps the [VarSet] formulation this
    replaced, and a property test holds the two equal. *)

open Fsicp_cfg
open Fsicp_prog
open Summary
module Callgraph = Fsicp_callgraph.Callgraph

type t = {
  db : Prog.t;
  modref : Modref.t;  (** the numbering, to render sets *)
  width : int;
  use : int array;  (** [width] words per procedure id *)
}

let get t name =
  match Prog.proc_id t.db name with
  | Some id -> Modref.to_vrefs t.modref t.use ((id :> int) * t.width)
  | None -> VrefSet.empty

let wb = Modref.word_bits

let[@inline] add words base b =
  let w = base + (b / wb) in
  words.(w) <- words.(w) lor (1 lsl (b mod wb))

let[@inline] remove words base b =
  let w = base + (b / wb) in
  words.(w) <- words.(w) land lnot (1 lsl (b mod wb))

(** [compute procs modref pcg] computes USE for every reachable procedure.
    [procs] must contain the lowered body of each reachable procedure. *)
let compute (procs : Ir.proc Prog.Proc.Tbl.t) (modref : Modref.t)
    (pcg : Callgraph.t) : t =
  let n = Callgraph.n_procs pcg in
  let width = Modref.width modref and ng = Modref.n_globals modref in
  (* A variable's bit, or -1 for a local or a temporary.  Globals are
     looked up by interned id, not by name. *)
  let gbit = Hashtbl.create (2 * ng) in
  for b = 0 to ng - 1 do
    Hashtbl.replace gbit
      (Prog.Var.to_int (Prog.Var.intern (Modref.global_name modref b)))
      b
  done;
  let bit (v : Ir.var) =
    match v.Ir.vkind with
    | Ir.Formal i -> ng + i
    | Ir.Global -> (
        match Hashtbl.find gbit (Prog.Var.to_int v.Ir.vid) with
        | b -> b
        | exception Not_found -> -1)
    | Ir.Local | Ir.Temp -> -1
  in
  let gmask = Array.make width 0 in
  for b = 0 to ng - 1 do
    add gmask 0 b
  done;
  let use = Array.make (n * width) 0 in
  Array.iter
    (fun pid ->
      let cfg = (Prog.Proc.Tbl.get procs pid).Ir.cfg in
      let blocks = cfg.Ir.blocks in
      let nb = Array.length blocks in
      (* Per block: upward-exposed uses ([gen]) and definitions ([kill]),
         from a backward walk over the instructions. *)
      let gen = Array.make (nb * width) 0 in
      let kill = Array.make (nb * width) 0 in
      let use_op base = function
        | Ir.Var v ->
            let b = bit v in
            if b >= 0 then add gen base b
        | Ir.Const _ -> ()
      in
      Array.iteri
        (fun bi (blk : Ir.block) ->
          let base = bi * width in
          (match blk.Ir.term with
          | Ir.Cond (o, _, _) -> use_op base o
          | Ir.Goto _ | Ir.Ret -> ());
          for i = Array.length blk.Ir.instrs - 1 downto 0 do
            match blk.Ir.instrs.(i) with
            | Ir.Assign (v, rhs) -> (
                let b = bit v in
                if b >= 0 then begin
                  remove gen base b;
                  add kill base b
                end;
                match rhs with
                | Ir.Copy o | Ir.Unop (_, o) -> use_op base o
                | Ir.Binop (_, x, y) ->
                    use_op base x;
                    use_op base y)
            | Ir.Print o -> use_op base o
            | Ir.Call { cs_id; callee; args } ->
                for j = 0 to Array.length args - 1 do
                  use_op base args.(j).Ir.a_operand
                done;
                (* The callee's USE (or REF, on a back edge) bound through
                   the argument list: a global stays itself; formal [j]
                   becomes the by-reference actual at [j], which the loop
                   above already counted as read. *)
                let q = Callgraph.proc_id_exn pcg callee in
                (* A forward edge's callee comes first in reverse order,
                   so its USE is final by now. *)
                let from_use =
                  not
                    (Callgraph.is_back_edge_at pcg ~caller:pid
                       ~cs_index:cs_id)
                in
                let qb = (q :> int) * width in
                for w = 0 to width - 1 do
                  let word =
                    if from_use then use.(qb + w)
                    else Modref.gref_word modref q w
                  in
                  gen.(base + w) <- gen.(base + w) lor (word land gmask.(w))
                done
          done)
        blocks;
      (* Backward liveness to the least fixpoint, in reverse of the
         reverse postorder: live_in(b) = gen(b) ∪ (live_out(b) − kill(b)),
         live_out(b) the union of the successors' live_in. *)
      let live = Array.make (nb * width) 0 in
      let out = Array.make width 0 in
      let join s =
        for w = 0 to width - 1 do
          out.(w) <- out.(w) lor live.((s * width) + w)
        done
      in
      let rpo = Ir.reverse_postorder cfg in
      let changed = ref true in
      while !changed do
        changed := false;
        for k = Array.length rpo - 1 downto 0 do
          let b = rpo.(k) in
          let base = b * width in
          Array.fill out 0 width 0;
          (match blocks.(b).Ir.term with
          | Ir.Goto s -> join s
          | Ir.Cond (_, s, s') ->
              join s;
              join s'
          | Ir.Ret -> ());
          for w = 0 to width - 1 do
            let v = gen.(base + w) lor (out.(w) land lnot kill.(base + w)) in
            if v <> live.(base + w) then begin
              live.(base + w) <- v;
              changed := true
            end
          done
        done
      done;
      Array.blit live (cfg.Ir.entry * width) use ((pid :> int) * width) width)
    (Callgraph.reverse_order pcg);
  { db = pcg.Callgraph.db; modref; width; use }

(** Is global [g] in USE(p)? *)
let global_used t p g = VrefSet.mem (Vglobal g) (get t p)
