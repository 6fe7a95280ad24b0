(** Copy-constant interprocedural propagation.

    The flow-sensitive method ({!Fs_icp}) loses a constant whenever it
    reaches a call site {e before} the value is known: the kernel records
    ⊥ for an argument that merely {e copies} a formal or global whose
    entry value has not been discovered yet, and — the paper's deliberate
    trade — back edges are seeded from the flow-insensitive solution
    rather than iterated.  This method keeps the copies alive instead.

    The packed lattice gains a fourth word class ({!Lattice.P.copy}):
    "equal to entry slot [k] of this procedure".  Each intraprocedural
    analysis is the kernel step {!Fs_icp} takes ({!Entry_vec.run}), with
    CC's slot policy: a constant slot binds its constant and every other
    formal and REF-closure global binds its own copy word, so direct
    copies survive assignments and φ-meets while any arithmetic over them
    collapses to ⊥ (only genuine copies propagate).  Call-site records
    then hold constants {e or} unevaluated copy bindings; the
    interprocedural meet evaluates a copy record against the caller's
    current entry table, so a constant discovered at pass [n] flows
    through every chain of copies by pass [n+1].

    The driver is a Gauss–Seidel fixpoint in PCG forward order, exactly
    the {!Reference} schedule: within a pass, forward edges see records
    of the same pass and back edges see the previous pass's (nothing on
    the first — the optimistic ⊤ start), iterating until no entry
    changes.  On an acyclic PCG the first pass already agrees with
    {!Fs_icp} on every entry and call record: copy propagation subsumes
    constant propagation (Sreekala and Paleri), and a copy word read as ⊥
    is FS's step (tested on generated acyclic programs and the suite, and
    after every edit of the edit-sequence oracle).  The serve engine
    relies on it: on an acyclic PCG its CC read is its FS solution under
    this method's name ({!Engine.cc_solution}), and no solve runs.
    With cycles the optimistic iteration is at least as precise as FS's
    pessimistic flow-insensitive back-edge seed, so [fs ⊑ cc] everywhere
    (fuzzed by the oracle, alongside [fs ⊑ ref]).

    Copy words never escape: the assembled {!Solution.t} evaluates every
    record against the final entry tables, and the raw kernel arrays,
    which still hold copy words, are not kept. *)

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

(* Solves whose pass budget ran out and that answered with FS instead. *)
let c_fallback = Trace.counter "cc.fs_fallback"

(* One call-site record: executability plus the {e unevaluated} packed
   words of every argument and REF-closure global — constants, copy
   bindings into the caller's entry slots, or ⊥. *)
type record = {
  rec_exec : bool;
  rec_words : int array * (Prog.Var.id * int) list;
}

(** [solve ?jobs ctx] — the copy-constant solution.  The passes ignore
    [jobs]: the Gauss–Seidel schedule is inherently sequential (each pass
    reads the entries the same pass just wrote), and a pass is one kernel
    run per procedure, memo-hit whenever its entry vector repeats.

    The passes are budgeted at twice the program's entry slots plus two.
    A run that exhausts the budget has not converged, and its last pass
    may claim constants a later pass would lower, so it answers with the
    flow-sensitive solution instead, which is sound. *)
let solve_body ?jobs (ctx : Context.t) : Solution.t =
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

  let forward = Callgraph.forward_order pcg in
  let scc_runs = ref 0 in

  let pass () =
    let any_change = ref false in
    Array.iter
      (fun (pid : Prog.Proc.id) ->
        let i = (pid :> int) in
        let sh = shapes.(i) in
        (* Meet every recorded executable call into [proc], copy bindings
           evaluated against the calling procedure's current entries —
           same-pass for forward edges, previous-pass for back edges. *)
        let acc =
          Entry_vec.entry roots sh pid (fun (e : Callgraph.edge) acc ->
              let ci = (e.Callgraph.caller :> int) in
              match records.(ci).(e.Callgraph.cs_index) with
              | Some { rec_exec = true; rec_words = args, globals } ->
                  Entry_vec.meet_site sh acc ~word:(eval_word ci) args globals
              | Some _ | None -> ())
        in
        if (not visited.(i)) || acc <> vecs.(i) then begin
          any_change := true;
          vecs.(i) <- acc;
          visited.(i) <- true
        end;
        (* One kernel run: constant entry slots bind to their constant,
           every other formal/closure-global to its own copy word.  The
           entry vector repeats between converging passes, so reruns are
           memo hits. *)
        let res, call_sites =
          Entry_vec.run ctx roots sh pid (fun s ->
              let w = acc.(s) in
              if P.is_const w then w else P.copy s)
        in
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
          call_sites)
      forward;
    !any_change
  in
  let slots = Array.fold_left (fun k sh -> k + Entry_vec.size sh) 0 shapes in
  let budget = (2 * slots) + 2 in
  (* [converged] once a pass changes no entry. *)
  let rec iterate passes =
    if not (pass ()) then (passes, true)
    else if passes >= budget then (passes, false)
    else iterate (passes + 1)
  in
  let passes, converged = iterate 1 in
  Trace.add c_passes passes;
  if not converged then begin
    Trace.incr c_fallback;
    { (Fs_icp.solve ?jobs ctx) with Solution.method_name }
  end
  else
    (* Publish against the {e final} entry vectors; no copy word survives
       past this point. *)
    Entry_vec.publish pcg ~method_name ~scc_runs:!scc_runs shapes vecs
      (fun (e : Callgraph.edge) ->
        let i = (e.Callgraph.caller :> int) in
        Option.map
          (fun r -> (r.rec_exec, eval_word i, r.rec_words))
          records.(i).(e.Callgraph.cs_index))

let solve ?jobs (ctx : Context.t) : Solution.t =
  Trace.next_epoch ();
  Trace.span "cc:solve" (fun () -> solve_body ?jobs ctx)
