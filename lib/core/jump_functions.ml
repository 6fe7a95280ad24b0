(** Jump-function interprocedural constant propagation — the baselines the
    paper compares against (Callahan–Cooper–Kennedy–Torczon, SIGPLAN '86;
    Grove–Torczon, PLDI '93).

    A {e jump function} for argument position [j] of a call site summarises
    the value of the actual as a function of the {e formals of the calling
    procedure}.  After jump functions are built, a separate optimistic
    propagation pass runs over the call graph: evaluate each call site's
    jump functions under the caller's current formal values and meet the
    results into the callee's formals.

    The four variants, in increasing precision (paper Figure 1):

    - {b literal}: only literal actuals ([Jconst]); everything else ⊥.
    - {b intra}: the {e Intraprocedural Constant} jump function — a
      flow-sensitive intraprocedural constant propagation (our SCC with an
      all-unknown entry environment) is applied first; actuals it proves
      constant become [Jconst].
    - {b pass-through}: intra, plus an actual that is an {e unmodified}
      formal of the caller becomes the identity function [Jformal] (we
      detect this precisely: its SSA operand is version 0 of the formal,
      i.e. unmodified along every path reaching the call).
    - {b polynomial}: intra, plus actuals that are polynomial functions of
      the caller's formals ([Jpoly]), computed by a symbolic evaluation
      over SSA restricted to the blocks the intra analysis proves live.

    Globals are {e not} propagated by these baselines: "It is not clear how
    globals can be efficiently handled in this framework.  The creation of
    a jump function for each global variable for each call site can add
    substantial overhead" (paper §5); accordingly Grove–Torczon-style
    results in Tables 3–5 carry (almost) no global constants.

    Return jump functions are likewise omitted, matching the paper's use of
    Grove–Torczon's "No Return Jump Function" results for comparison.

    The propagation step iterates to a fixpoint, so unlike the historical
    implementations ("their method does not handle call graph cycles") the
    baselines here are well-defined on recursive programs too. *)

open Fsicp_lang
open Fsicp_prog
open Fsicp_cfg
open Fsicp_ssa
open Fsicp_callgraph
open Fsicp_ipa
open Fsicp_scc

type variant = Literal | Intra | Pass_through | Polynomial

let variant_name = function
  | Literal -> "literal"
  | Intra -> "intra"
  | Pass_through -> "pass-through"
  | Polynomial -> "polynomial"

let all_variants = [ Literal; Intra; Pass_through; Polynomial ]

type jf =
  | Jconst of Value.t
  | Jformal of int  (** pass-through of the caller's i-th formal *)
  | Jpoly of Poly.t  (** polynomial in the caller's formals *)
  | Jbot

(* ------------------------------------------------------------------ *)
(* Symbolic polynomial evaluation over SSA                             *)
(* ------------------------------------------------------------------ *)

type pvalue = PTop | PPoly of Poly.t | PBot

let pmeet a b =
  match (a, b) with
  | PTop, x | x, PTop -> x
  | PBot, _ | _, PBot -> PBot
  | PPoly p, PPoly q -> if Poly.equal p q then a else PBot

let pequal a b =
  match (a, b) with
  | PTop, PTop | PBot, PBot -> true
  | PPoly p, PPoly q -> Poly.equal p q
  | (PTop | PPoly _ | PBot), _ -> false

(** Polynomial abstract values for every SSA name of [ssa], restricted to
    the blocks and edges the intra-procedural SCC result [intra] proved
    executable (so the polynomial jump function subsumes the intra one). *)
let polynomial_values (ssa : Ssa.proc) (intra : Scc.result) : pvalue array =
  let values = Array.make (max 1 ssa.Ssa.n_names) PTop in
  (* Entry names: formals are themselves; everything else is unknown. *)
  Array.iter
    (fun ((v : Ir.var), (n : Ssa.name)) ->
      values.(n.Ssa.id) <-
        (match v.Ir.vkind with
        | Ir.Formal i -> PPoly (Poly.formal i)
        | Ir.Global | Ir.Local | Ir.Temp -> PBot))
    ssa.Ssa.entry_names;
  let operand_value = function
    | Ssa.Oconst v -> PPoly (Poly.const v)
    | Ssa.Oname n -> values.(n.Ssa.id)
  in
  let lift f a b =
    match (a, b) with
    | PBot, _ | _, PBot -> PBot
    | PTop, _ | _, PTop -> PTop
    | PPoly p, PPoly q -> ( match f p q with Some r -> PPoly r | None -> PBot)
  in
  let eval_binop op a b =
    match op with
    | Ops.Add -> lift Poly.add a b
    | Ops.Sub -> lift Poly.sub a b
    | Ops.Mul -> lift Poly.mul a b
    | Ops.Div | Ops.Mod | Ops.Eq | Ops.Ne | Ops.Lt | Ops.Le | Ops.Gt
    | Ops.Ge | Ops.And | Ops.Or -> (
        (* Not polynomial: only constant folding applies. *)
        match (a, b) with
        | PBot, _ | _, PBot -> PBot
        | PTop, _ | _, PTop -> PTop
        | PPoly p, PPoly q -> (
            match (Poly.is_const p, Poly.is_const q) with
            | Some x, Some y -> (
                match Value.eval_binop op x y with
                | Some r -> PPoly (Poly.const r)
                | None -> PBot)
            | _ -> PBot))
  in
  let eval_unop op a =
    match op with
    | Ops.Neg -> (
        match a with
        | PBot -> PBot
        | PTop -> PTop
        | PPoly p -> PPoly (Poly.neg p))
    | Ops.Not -> (
        match a with
        | PBot -> PBot
        | PTop -> PTop
        | PPoly p -> (
            match Poly.is_const p with
            | Some v -> (
                match Value.eval_unop Ops.Not v with
                | Some r -> PPoly (Poly.const r)
                | None -> PBot)
            | None -> PBot))
  in
  let edge_exec e = Scc.edge_bit intra e in
  let set (n : Ssa.name) v changed =
    if not (pequal values.(n.Ssa.id) v) then begin
      values.(n.Ssa.id) <- v;
      changed := true
    end
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun b (blk : Ssa.block) ->
        if intra.Scc.block_executable.(b) then begin
          Array.iter
            (fun (ph : Ssa.phi) ->
              let v = ref PTop in
              Array.iteri
                (fun k (_, (n : Ssa.name)) ->
                  if edge_exec ph.Ssa.p_edges.(k) then
                    v := pmeet !v values.(n.Ssa.id))
                ph.Ssa.p_args;
              let v = !v in
              set ph.Ssa.p_name v changed)
            blk.Ssa.phis;
          Array.iter
            (fun ins ->
              match ins with
              | Ssa.Assign (n, rhs) ->
                  let v =
                    match rhs with
                    | Ssa.Copy o -> operand_value o
                    | Ssa.Unop (op, o) -> eval_unop op (operand_value o)
                    | Ssa.Binop (op, a, c) ->
                        eval_binop op (operand_value a) (operand_value c)
                  in
                  set n v changed
              | Ssa.Kill kills ->
                  Array.iter (fun (_, n) -> set n PBot changed) kills
              | Ssa.Call c ->
                  Array.iter (fun (_, n) -> set n PBot changed) c.Ssa.c_defs
              | Ssa.Print _ -> ())
            blk.Ssa.instrs
        end)
      ssa.Ssa.blocks
  done;
  values

(* ------------------------------------------------------------------ *)
(* Jump function construction                                          *)
(* ------------------------------------------------------------------ *)

type site_jfs = {
  sj_caller : Prog.Proc.id;
  sj_cs_index : int;
  sj_callee : Prog.Proc.id;
  sj_live : bool;  (** false when the intra analysis proved the site dead *)
  sj_jfs : jf array;
}

(** Build the jump functions of every call site of every reachable
    procedure, for the given [variant].  Returns the sites and the number
    of flow-sensitive intraprocedural analyses used. *)
let build_jump_functions (ctx : Context.t) (variant : variant) :
    site_jfs list * int =
  let pcg = ctx.Context.pcg in
  let scc_runs = ref 0 in
  let sites = ref [] in
  Array.iter
    (fun pid ->
      let proc = Callgraph.proc_name pcg pid in
      match variant with
      | Literal ->
          (* Purely syntactic; no intraprocedural analysis. *)
          let s = Summary.find ctx.Context.summaries proc in
          List.iter
            (fun (c : Summary.call_summary) ->
              let sj_jfs =
                Array.map
                  (fun arg ->
                    match arg with
                    | Summary.Alit v -> Jconst v
                    | Summary.Aformal _ | Summary.Aglobal _
                    | Summary.Alocal _ | Summary.Aexpr -> Jbot)
                  c.Summary.cs_args
              in
              sites :=
                {
                  sj_caller = pid;
                  sj_cs_index = c.Summary.cs_index;
                  sj_callee = Callgraph.proc_id_exn pcg c.Summary.cs_callee;
                  sj_live = true;
                  sj_jfs;
                }
                :: !sites)
            s.Summary.ps_calls
      | Intra | Pass_through | Polynomial ->
          let ssa = Context.ssa_at ctx pid in
          let intra = Scc.run ssa in
          incr scc_runs;
          let poly_values =
            match variant with
            | Polynomial -> Some (polynomial_values ssa intra)
            | Literal | Intra | Pass_through -> None
          in
          List.iter
            (fun (b, _, (c : Ssa.call)) ->
              let live = intra.Scc.block_executable.(b) in
              let sj_jfs =
                Array.mapi
                  (fun j (a : Ssa.ssa_arg) ->
                    if not live then Jbot
                    else
                      match Scc.arg_value intra c j with
                      | Lattice.Const v -> Jconst v
                      | Lattice.Top | Lattice.Bot -> (
                          match variant with
                          | Intra | Literal -> Jbot
                          | Pass_through -> (
                              match a.Ssa.sa_operand with
                              | Ssa.Oname n when n.Ssa.ver = 0 -> (
                                  match n.Ssa.base.Ir.vkind with
                                  | Ir.Formal i -> Jformal i
                                  | Ir.Local | Ir.Global | Ir.Temp -> Jbot)
                              | Ssa.Oname _ | Ssa.Oconst _ -> Jbot)
                          | Polynomial -> (
                              let pv =
                                match a.Ssa.sa_operand with
                                | Ssa.Oconst v -> PPoly (Poly.const v)
                                | Ssa.Oname n ->
                                    (Option.get poly_values).(n.Ssa.id)
                              in
                              match pv with
                              | PPoly p -> (
                                  match Poly.is_const p with
                                  | Some v -> Jconst v
                                  | None -> Jpoly p)
                              | PTop | PBot -> Jbot)))
                  c.Ssa.c_args
              in
              sites :=
                {
                  sj_caller = pid;
                  sj_cs_index = c.Ssa.c_cs_id;
                  sj_callee = Callgraph.proc_id_exn pcg c.Ssa.c_callee;
                  sj_live = live;
                  sj_jfs;
                }
                :: !sites)
            (Ssa.call_sites ssa))
    (Callgraph.forward_order pcg);
  (List.rev !sites, !scc_runs)

(* ------------------------------------------------------------------ *)
(* Interprocedural propagation over the jump functions                 *)
(* ------------------------------------------------------------------ *)

module P = Lattice.P

(* Caller formals are packed lattice words; the fixpoint below meets packed
   words in flat int arrays, so evaluation answers packed too. *)
let eval_jf (ctx : Context.t) (jf : jf) (caller_formals : int array) : int =
  let w =
    match jf with
    | Jconst v -> P.of_value v
    | Jbot -> P.bot
    | Jformal i ->
        if i < Array.length caller_formals then caller_formals.(i) else P.bot
    | Jpoly p ->
        let used = Poly.formals_used p in
        if
          List.exists
            (fun i ->
              i >= Array.length caller_formals || caller_formals.(i) = P.bot)
            used
        then P.bot
        else if List.exists (fun i -> caller_formals.(i) = P.top) used then
          P.top
        else
          (* Every used formal is a constant after the two guards above. *)
          let env i = Some (P.const_value caller_formals.(i)) in
          (match Poly.eval p env with
          | Some v -> P.of_value v
          | None -> P.bot)
  in
  Context.censor_w ctx w

(** Solve the given jump-function variant; returns a {!Solution} with
    formal constants only (no globals — see the module comment). *)
let solve (ctx : Context.t) (variant : variant) : Solution.t =
  let pcg = ctx.Context.pcg in
  let db = pcg.Callgraph.db in
  let sites, scc_runs = build_jump_functions ctx variant in
  let formal_values : int array Prog.Proc.Tbl.t =
    Prog.tbl_init db (fun pid ->
        let s =
          Summary.find ctx.Context.summaries (Prog.proc_name db pid)
        in
        Array.make (List.length s.Summary.ps_formals) P.top)
  in
  let sites_of : site_jfs list array =
    Array.make (Callgraph.n_procs pcg) []
  in
  List.iter
    (fun sj ->
      let c = (sj.sj_caller :> int) in
      sites_of.(c) <- sj :: sites_of.(c))
    sites;
  (* Optimistic fixpoint: evaluate jump functions under the caller's current
     formal values; iterate while anything lowers. *)
  let work : Prog.Proc.id Queue.t = Queue.create () in
  Array.iter (fun p -> Queue.add p work) (Callgraph.forward_order pcg);
  while not (Queue.is_empty work) do
    let caller = Queue.take work in
    let caller_formals = Prog.Proc.Tbl.get formal_values caller in
    List.iter
      (fun sj ->
        if sj.sj_live then begin
          let callee_formals =
            Prog.Proc.Tbl.get formal_values sj.sj_callee
          in
          let changed = ref false in
          Array.iteri
            (fun j jf ->
              if j < Array.length callee_formals then begin
                let w = eval_jf ctx jf caller_formals in
                let merged = P.meet callee_formals.(j) w in
                if merged <> callee_formals.(j) then begin
                  callee_formals.(j) <- merged;
                  changed := true
                end
              end)
            sj.sj_jfs;
          if !changed then Queue.add sj.sj_callee work
        end)
      sites_of.((caller :> int))
  done;

  let entries =
    Prog.tbl_init db (fun pid ->
        let pe_formals =
          Prog.Proc.Tbl.get formal_values pid
          |> Array.map (fun w -> if w = P.top then Lattice.Bot else P.to_t w)
        in
        (* Globals are not handled by jump-function methods.  The REF
           closure comes descending by name; entries list it ascending. *)
        let pe_globals =
          Modref.call_global_refs ctx.Context.modref
            ~callee:(Prog.proc_name db pid)
          |> List.rev_map (fun (gv : Ir.var) -> (gv.Ir.vid, Lattice.Bot))
        in
        { Solution.pe_formals; pe_globals })
  in
  (* Call-site records: the evaluated jump-function value per argument. *)
  let call_records =
    List.map
      (fun sj ->
        let caller_formals =
          (Prog.Proc.Tbl.get formal_values sj.sj_caller
          |> Array.map (fun w -> if w = P.top then P.bot else w))
        in
        {
          Solution.cr_caller = sj.sj_caller;
          cr_cs_index = sj.sj_cs_index;
          cr_callee = sj.sj_callee;
          cr_executable = sj.sj_live;
          cr_args =
            Array.map
              (fun jf -> P.to_t (eval_jf ctx jf caller_formals))
              sj.sj_jfs;
          cr_globals = [];
        })
      sites
  in
  Solution.make ~method_name:(variant_name variant) ~db ~entries
    ~call_records ~scc_runs
