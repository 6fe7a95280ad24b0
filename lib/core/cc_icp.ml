(** Copy-constant interprocedural propagation.

    The flow-sensitive method ({!Fs_icp}) loses a constant whenever it
    reaches a call site {e before} the value is known: the kernel records
    ⊥ for an argument that merely {e copies} a formal or global whose
    entry value has not been discovered yet, and — the paper's deliberate
    trade — back edges are seeded from the flow-insensitive solution
    rather than iterated.  This method keeps the copies alive instead.

    The packed lattice gains a fourth word class ({!Lattice.P.copy}):
    "equal to entry slot [k] of this procedure".  Each intraprocedural
    analysis — the same flat SCC kernel, arena scratch and entry-vector
    memo as {!Fs_icp}; never the retained reference path — runs with an
    entry environment that binds every non-constant formal and
    REF-closure global to its own copy word, so direct copies survive
    assignments and φ-meets while any arithmetic over them collapses to ⊥
    (only genuine copies propagate).  Call-site records then hold
    constants {e or} unevaluated copy bindings; the interprocedural meet
    evaluates a copy record against the caller's current entry table, so
    a constant discovered at pass [n] flows through every chain of copies
    by pass [n+1].

    The driver is a Gauss–Seidel fixpoint in PCG forward order, exactly
    the {!Reference} schedule: within a pass, forward edges see records
    of the same pass and back edges see the previous pass's (nothing on
    the first — the optimistic ⊤ start), iterating until no entry
    changes.  On an acyclic PCG the first pass already agrees with
    {!Fs_icp}; with cycles the optimistic iteration is at least as
    precise as FS's pessimistic flow-insensitive back-edge seed, so
    [fs ⊑ cc] everywhere (fuzzed by the oracle, alongside [fs ⊑ ref]).

    Copy words never escape: the assembled {!Solution.t} evaluates every
    record against the final entry tables, and [scc_results] is [None]
    (the raw kernel arrays still hold copy words, which do not box). *)

open Fsicp_prog
open Fsicp_ssa
open Fsicp_callgraph
open Fsicp_scc

let method_name = "copy-constant"

module Trace = Fsicp_trace.Trace
module P = Lattice.P

(* Deterministic per program: the forward schedule is fixed and every
   pass either changes an entry or is the last. *)
let c_passes = Trace.counter "cc.passes"

let max_passes = 100

(* One call-site record: executability plus the {e unevaluated} packed
   words of every argument and REF-closure global — constants, copy
   bindings into the caller's entry slots, or ⊥. *)
type record = {
  rec_exec : bool;
  rec_words : int array * (Prog.Var.id * int) list;
}

(** [solve ?jobs ctx] — the copy-constant solution.  [jobs] is accepted
    for interface symmetry with the other methods and ignored: the
    Gauss–Seidel schedule is inherently sequential (each pass reads the
    entries the same pass just wrote), and a pass is one kernel run per
    procedure, memo-hit whenever its entry vector repeats. *)
let solve_body ?jobs (ctx : Context.t) : Solution.t =
  ignore jobs;
  let pcg = ctx.Context.pcg in
  let db = pcg.Callgraph.db in
  let nodes = pcg.Callgraph.nodes in
  let n = Array.length nodes in
  let roots = Entry_vec.roots ctx in

  (* Per-procedure entry shape: both the kernel's copy words and the
     record evaluation below number slots the {!Entry_vec} way. *)
  let shapes =
    Array.map (fun pid -> Entry_vec.shape ctx (Prog.proc_name db pid)) nodes
  in

  (* Current finalized entry vectors (constants or ⊥ only, never ⊤ and
     never a copy): what copy records evaluate against, and what the
     kernel's constant entry bindings come from. *)
  let vecs = Array.map (fun sh -> Array.make (Entry_vec.size sh) P.bot) shapes in
  let visited = Array.make n false in

  (* Evaluate a recorded word of caller [i] against the caller's current
     entry vector.  Entries are censored at their own boundaries, so the
     evaluation needs no further censoring. *)
  let eval_word i w = if P.is_copy w then vecs.(i).(P.copy_slot w) else w in

  (* Records by (caller index, cs_index), dense rows; [None] = the site's
     procedure has not been analysed yet (optimistic: no contribution). *)
  let records : record option array array =
    Array.init n (fun i -> Array.make (Callgraph.n_call_sites pcg nodes.(i)) None)
  in

  let in_edges = Array.map (fun pid -> Callgraph.in_edges pcg pid) nodes in
  let forward = Callgraph.forward_order pcg in
  let scc_runs = ref 0 in

  let pass () =
    let any_change = ref false in
    Array.iter
      (fun (pid : Prog.Proc.id) ->
        let i = (pid :> int) in
        let sh = shapes.(i) in
        let acc = Entry_vec.top sh in
        (* Meet every recorded executable call into [proc], copy bindings
           evaluated against the calling procedure's current entries —
           same-pass for forward edges, previous-pass for back edges. *)
        Array.iter
          (fun (e : Callgraph.edge) ->
            let ci = (e.Callgraph.caller :> int) in
            match records.(ci).(e.Callgraph.cs_index) with
            | None -> ()
            | Some r when not r.rec_exec -> ()
            | Some { rec_words = args, globals; _ } ->
                Entry_vec.meet_site sh acc ~word:(eval_word ci) args globals)
          in_edges.(i);
        (* [main]'s globals come from block data alone — calls into main
           are necessarily back edges and are deliberately overridden,
           exactly as {!Fs_icp} does. *)
        if Entry_vec.is_main roots pid then
          Entry_vec.set_main_globals roots sh acc;
        (* ⊤ after all contributions = no executable call reaches the
           slot: unknown, not a dead-code constant. *)
        Entry_vec.finalize acc;
        if (not visited.(i)) || acc <> vecs.(i) then begin
          any_change := true;
          vecs.(i) <- acc;
          visited.(i) <- true
        end;
        (* One kernel run: constant entry slots bind to their constant,
           every other formal/closure-global to its own copy word.  The
           entry vector repeats between converging passes, so reruns are
           memo hits. *)
        let entry_env =
          Entry_vec.env roots sh pid (fun s ->
              let w = acc.(s) in
              if P.is_const w then w else P.copy s)
        in
        let ssa = Context.ssa_at ctx pid in
        let config = { Scc.default_config with Scc.entry_env } in
        let res = Scc.run ~config ssa in
        incr scc_runs;
        let keep w = if P.is_copy w then w else Context.censor_w ctx w in
        List.iter
          (fun (b, _, (c : Ssa.call)) ->
            records.(i).(c.Ssa.c_cs_id) <-
              Some
                {
                  rec_exec = res.Scc.block_executable.(b);
                  rec_words = Entry_vec.read_site ~word:keep res c;
                })
          (Ssa.call_sites ssa))
      forward;
    !any_change
  in
  let passes = ref 1 in
  while pass () && !passes < max_passes do
    incr passes
  done;
  Trace.add c_passes !passes;

  (* Assemble the solution against the {e final} entry vectors; no copy
     word survives past this point. *)
  let entries =
    Prog.tbl_init db (fun pid ->
        let i = (pid :> int) in
        Entry_vec.box_entry shapes.(i) vecs.(i))
  in
  let call_records =
    Array.to_list nodes
    |> List.concat_map (fun (pid : Prog.Proc.id) ->
           let i = (pid :> int) in
           let out = Callgraph.out_edges pcg pid in
           let acc = ref [] in
           Array.iteri
             (fun cs_index slot ->
               match slot with
               | None -> ()
               | Some { rec_exec; rec_words = args, globals } ->
                   let cr =
                     Entry_vec.box_site ~caller:pid ~cs_index
                       ~callee:out.(cs_index).Callgraph.callee ~exec:rec_exec
                       ~word:(eval_word i) (args, globals)
                   in
                   acc := cr :: !acc)
             records.(i);
           List.rev !acc)
  in
  Solution.make ~method_name ~db ~entries ~call_records ~scc_runs:!scc_runs
    ~scc_results:(Prog.tbl db None)

let solve ?jobs (ctx : Context.t) : Solution.t =
  Trace.next_epoch ();
  Trace.span "cc:solve" (fun () -> solve_body ?jobs ctx)
