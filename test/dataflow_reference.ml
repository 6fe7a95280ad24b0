(** A dense, iterative dataflow framework over {!Fsicp_cfg.Ir} CFGs,
    kept as a test reference.

    A round-robin worklist solver over any join-semilattice, with liveness
    and upward-exposed uses over {!Ir.VarSet} as its instances.  The
    production analyses use sparse, purpose-built solvers instead; the
    tests run this one beside them as an independent specification: the
    [VarSet] USE computation ([use_reference.ml]) and the pruned-SSA
    bound on φ placement ([test_ssa.ml]) are written on it. *)

open Fsicp_cfg

(** A bounded join-semilattice over which we iterate to a fixpoint. *)
module type LATTICE = sig
  type t

  val bottom : t
  val equal : t -> t -> bool
  val join : t -> t -> t
  val pp : t Fmt.t
end

type direction = Forward | Backward

module Make (L : LATTICE) = struct
  type result = {
    block_in : L.t array;  (** value at block entry (in CFG direction) *)
    block_out : L.t array;  (** value at block exit *)
  }

  (** [solve ~direction ~init ~transfer cfg] iterates to a fixpoint.

      [init] is the boundary value at the entry block (for [Forward]) or at
      every [Ret] block (for [Backward]).  [transfer b v] pushes a value
      through block [b]. *)
  let solve ~direction ~(init : L.t) ~(transfer : int -> L.t -> L.t)
      (cfg : Ir.cfg) : result =
    let n = Array.length cfg.Ir.blocks in
    let preds = Ir.predecessors cfg in
    let succs = Array.map Ir.successors cfg.Ir.blocks in
    let block_in = Array.make n L.bottom in
    let block_out = Array.make n L.bottom in
    (* Process in (reverse of) reverse postorder for fast convergence. *)
    let rpo = Ir.reverse_postorder cfg in
    let order =
      match direction with
      | Forward -> rpo
      | Backward ->
          let a = Array.copy rpo in
          let n = Array.length a in
          Array.init n (fun i -> a.(n - 1 - i))
    in
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iter
        (fun b ->
          let input =
            match direction with
            | Forward ->
                if b = cfg.Ir.entry then
                  List.fold_left
                    (fun acc p -> L.join acc block_out.(p))
                    init preds.(b)
                else
                  List.fold_left
                    (fun acc p -> L.join acc block_out.(p))
                    L.bottom preds.(b)
            | Backward ->
                let base =
                  match cfg.Ir.blocks.(b).Ir.term with
                  | Ir.Ret -> init
                  | Ir.Goto _ | Ir.Cond _ -> L.bottom
                in
                List.fold_left
                  (fun acc s -> L.join acc block_in.(s))
                  base succs.(b)
          in
          let output = transfer b input in
          match direction with
          | Forward ->
              if not (L.equal block_in.(b) input) then begin
                block_in.(b) <- input;
                changed := true
              end;
              if not (L.equal block_out.(b) output) then begin
                block_out.(b) <- output;
                changed := true
              end
          | Backward ->
              if not (L.equal block_out.(b) input) then begin
                block_out.(b) <- input;
                changed := true
              end;
              if not (L.equal block_in.(b) output) then begin
                block_in.(b) <- output;
                changed := true
              end)
        order
    done;
    { block_in; block_out }
end

(** Variable-set lattice, used by liveness / upward-exposed uses. *)
module VarSetLattice = struct
  type t = Ir.VarSet.t

  let bottom = Ir.VarSet.empty
  let equal = Ir.VarSet.equal
  let join = Ir.VarSet.union
  let pp ppf s =
    Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ", ") Ir.Var.pp) (Ir.VarSet.elements s)
end

module VarSets = Make (VarSetLattice)

(** Per-instruction uses (variables read).  [call_uses] supplies the
    variables a call reads beyond its textual arguments (e.g. globals the
    callee references), mirroring the interprocedural REF information. *)
let instr_uses ?(call_uses = fun _ -> []) (ins : Ir.instr) : Ir.var list =
  let op_vars = function Ir.Const _ -> [] | Ir.Var v -> [ v ] in
  match ins with
  | Ir.Assign (_, Ir.Copy o) | Ir.Assign (_, Ir.Unop (_, o)) -> op_vars o
  | Ir.Assign (_, Ir.Binop (_, a, b)) -> op_vars a @ op_vars b
  | Ir.Print o -> op_vars o
  | Ir.Call { callee; args; _ } ->
      Array.to_list args
      |> List.concat_map (fun (a : Ir.arg) -> op_vars a.Ir.a_operand)
      |> fun l -> l @ call_uses callee

(** Per-instruction definitions.  [call_defs] supplies the variables a call
    may write (by-reference actuals whose formal is modified, modified
    globals), i.e. the interprocedural MOD information. *)
let instr_defs ?(call_defs = fun ~callee:_ ~byrefs:_ -> []) (ins : Ir.instr) :
    Ir.var list =
  match ins with
  | Ir.Assign (v, _) -> [ v ]
  | Ir.Print _ -> []
  | Ir.Call { callee; args; _ } ->
      let byrefs =
        Array.to_list args |> List.filter_map (fun a -> a.Ir.a_byref)
      in
      call_defs ~callee ~byrefs

(** Upward-exposed uses of a procedure: variables that may be read before
    being written on some path from the entry.  This is the intraprocedural
    half of the paper's flow-sensitive USE computation (§3.2); {!Fsicp_ipa}
    composes it over the PCG. *)
let upward_exposed ?call_uses ?call_defs (cfg : Ir.cfg) : Ir.VarSet.t =
  (* Backward "liveness at entry" restricted to paths from the block start:
     ue(b) = uses-before-defs within b  ∪  (live-in of successors minus defs
     of b).  We solve ordinary liveness and read off the entry block. *)
  let transfer b (live_out : Ir.VarSet.t) =
    let blk = cfg.Ir.blocks.(b) in
    let live = ref live_out in
    (* terminator condition counts as a use *)
    (match blk.Ir.term with
    | Ir.Cond (Ir.Var v, _, _) -> live := Ir.VarSet.add v !live
    | Ir.Cond (Ir.Const _, _, _) | Ir.Goto _ | Ir.Ret -> ());
    for i = Array.length blk.Ir.instrs - 1 downto 0 do
      let ins = blk.Ir.instrs.(i) in
      List.iter
        (fun d -> live := Ir.VarSet.remove d !live)
        (instr_defs ?call_defs ins);
      List.iter (fun u -> live := Ir.VarSet.add u !live) (instr_uses ?call_uses ins)
    done;
    !live
  in
  let res =
    VarSets.solve ~direction:Backward ~init:Ir.VarSet.empty ~transfer cfg
  in
  res.VarSets.block_in.(cfg.Ir.entry)
