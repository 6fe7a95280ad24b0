(** Value-context-sensitive interprocedural propagation.

    The flow-sensitive method analyses each procedure once, with the
    {e meet} of every arriving environment — so a procedure called with
    [f(1)] here and [f(2)] there sees ⊥ even though each call site on its
    own passes a constant.  This method analyses a procedure once per
    {e distinct packed entry vector} instead: the entry-vector memo the
    SCC kernel already keys its cache by ({!Fsicp_scc.Scc.run}) is
    promoted from an optimisation to the method's semantics.

    Top-down worklist over (procedure, context) pairs, starting from
    [main] under its block-data environment.  Analysing a context runs
    the flat kernel once; each {e executable} call site then produces the
    callee's arrival vector (argument and REF-closure-global values under
    this context), and unseen vectors enqueue new pairs.  There is no
    bottom-up feedback — call-defined variables are ⊥ in every method
    built on the kernel — so the enumeration is monotone and terminates.

    {b Blowup fallback}: a procedure holds at most {!context_budget}
    distinct contexts.  Past that it collapses to {e merged mode} — one
    context equal to the meet of every vector that ever arrived,
    re-analysed whenever a new arrival strictly lowers the merge — which
    is exactly the flow-sensitive treatment of that procedure.  Deep
    recursion over a descending constant ([r(7)] → [r(6)] → …) therefore
    costs a bounded number of kernel runs before degrading to FS
    precision, never an unbounded context family.

    The published entry of a procedure is the meet of every arrived
    vector (⊥ for a procedure no executable call ever reaches — such a
    procedure is never analysed and its own call sites are published as
    non-executable), so the solution is at least as precise as FS's
    single-meet entry; [fs ⊑ vc] is fuzzed by the oracle.  Per-call-site
    records meet the recorded values over the contexts in which the site
    was executable, mirroring the FS record convention ([Top] args on
    never-executable sites). *)

open Fsicp_lang
open Fsicp_prog
open Fsicp_ssa
open Fsicp_callgraph
open Fsicp_scc

let method_name = "value-context"

module Trace = Fsicp_trace.Trace
module P = Lattice.P

(* Distinct contexts analysed and procedures that overflowed into merged
   mode; both deterministic for a given program. *)
let c_contexts = Trace.counter "vc.contexts"
let c_merged = Trace.counter "vc.merged_procs"

(** Distinct entry vectors a procedure may hold before collapsing to the
    merged (flow-sensitive) treatment. *)
let context_budget = 24

(* One entry context is an {!Entry_vec} vector (constants or ⊥ only).
   Plain int arrays — structural equality is context identity, since
   packed words are canonical. *)
let vec_meet = Array.map2 P.meet

(** [solve ?jobs ctx] — the value-context solution.  [jobs] is accepted
    for interface symmetry and ignored: the worklist is drained
    sequentially in deterministic order (contexts of one procedure feed
    its callees' tables, so the traversal is inherently ordered), and
    the result does not depend on it. *)
let solve_body ?jobs (ctx : Context.t) : Solution.t =
  ignore jobs;
  let pcg = ctx.Context.pcg in
  let db = pcg.Callgraph.db in
  let nodes = pcg.Callgraph.nodes in
  let n = Array.length nodes in
  let main_id = Callgraph.proc_id_exn pcg ctx.Context.prog.Ast.main in
  let roots = Entry_vec.roots ctx in

  (* Per-procedure entry shape, shared slot numbering with the arrival
     vectors. *)
  let shapes =
    Array.map (fun pid -> Entry_vec.shape ctx (Prog.proc_name db pid)) nodes
  in

  (* Context tables: the distinct vectors seen (until the budget trips),
     merged-mode state, and the running entry meet over every arrival. *)
  let seen : int array list array = Array.make n [] in
  let merged : int array option array = Array.make n None in
  let entry_meet : int array option array = Array.make n None in

  (* Per-call-site accumulators, dense by (caller index, cs_index): [Some]
     once executable in any context, holding the meet of each
     argument/global word over the executable occurrences. *)
  let sites : (int array * (Prog.Var.id * int) list) option array array =
    Array.init n (fun i ->
        Array.make (Callgraph.n_call_sites pcg nodes.(i)) None)
  in

  let queue : (int * int array) Queue.t = Queue.create () in
  let scc_runs = ref 0 in
  let contexts = ref 0 in
  let merged_procs = ref 0 in

  (* Route one arrival vector into [i]'s table: new distinct context →
     enqueue it; budget exceeded → collapse to (or lower) the merged
     context.  Arrivals into [main] are dropped — any call edge into main
     is a back edge, and main's entry is the block-data root environment,
     exactly as in {!Fs_icp}. *)
  let arrive i (v : int array) =
    if i <> (main_id :> int) then begin
      (match entry_meet.(i) with
      | None -> entry_meet.(i) <- Some v
      | Some m -> entry_meet.(i) <- Some (vec_meet m v));
      match merged.(i) with
      | Some m ->
          let m' = vec_meet m v in
          if m <> m' then begin
            merged.(i) <- Some m';
            Queue.add (i, m') queue
          end
      | None ->
          if not (List.mem v seen.(i)) then
            if List.length seen.(i) >= context_budget then begin
              (* Blowup: fall back to the flow-sensitive treatment — one
                 context, the meet of everything that ever arrived. *)
              incr merged_procs;
              let m =
                List.fold_left vec_meet v seen.(i)
              in
              merged.(i) <- Some m;
              Queue.add (i, m) queue
            end
            else begin
              seen.(i) <- v :: seen.(i);
              Queue.add (i, v) queue
            end
    end
  in

  (* Analyse procedure [i] under one entry context. *)
  let process i (v : int array) =
    let pid = nodes.(i) in
    incr contexts;
    let entry_env = Entry_vec.env roots shapes.(i) pid (Array.get v) in
    let ssa = Context.ssa_at ctx pid in
    let config = { Scc.default_config with Scc.entry_env } in
    let res = Scc.run ~config ssa in
    incr scc_runs;
    (* The kernel never leaves an executable value at ⊤ once its block
       runs, but finalize defensively: an arrival vector must hold
       constants or ⊥ only. *)
    let fin w = if w = P.top then P.bot else Context.censor_w ctx w in
    List.iter
      (fun (b, _, (c : Ssa.call)) ->
        if res.Scc.block_executable.(b) then begin
          let cs = c.Ssa.c_cs_id in
          let callee_i = (Callgraph.proc_id_exn pcg c.Ssa.c_callee :> int) in
          let args, globals = Entry_vec.read_site ~word:fin res c in
          (* Accumulate the published record. *)
          sites.(i).(cs) <-
            Some
              (match sites.(i).(cs) with
              | None -> (args, globals)
              | Some (aacc, gacc) ->
                  Array.iteri (fun j w -> aacc.(j) <- P.meet aacc.(j) w) args;
                  ( aacc,
                    List.map2
                      (fun (g, w') (g', w) ->
                        assert (Prog.Var.equal g g');
                        (g, P.meet w' w))
                      gacc globals ));
          (* The callee's arrival vector under this context: every word is
             already final, so meeting into ⊤ and finalizing sets the
             site's slots and leaves the rest ⊥. *)
          let sh = shapes.(callee_i) in
          let arrival = Entry_vec.top sh in
          Entry_vec.meet_site sh arrival ~word:Fun.id args globals;
          Entry_vec.finalize arrival;
          arrive callee_i arrival
        end)
      (Ssa.call_sites ssa)
  in

  (* Root: [main] under the block-data environment. *)
  let root = Entry_vec.main_vector roots shapes.((main_id :> int)) in
  entry_meet.((main_id :> int)) <- Some root;
  seen.((main_id :> int)) <- [ root ];
  Queue.add ((main_id :> int), root) queue;

  while not (Queue.is_empty queue) do
    let i, v = Queue.take queue in
    (* A queued pre-merge context of a since-merged procedure is stale:
       the merged context subsumes it (it is one of the meet's operands),
       so skip the kernel run. *)
    let stale =
      match merged.(i) with Some m -> m <> v | None -> false
    in
    if not stale then process i v
  done;
  Trace.add c_contexts !contexts;
  Trace.add c_merged !merged_procs;

  (* Publish: entry = meet of every arrival (⊥ rows for procedures no
     executable call reached), records from the per-site accumulators
     (non-executable sites in the FS [Top] convention — including every
     site of a never-analysed procedure, reconstructed from the callee's
     shape without touching its SSA). *)
  let entries =
    Prog.tbl_init db (fun pid ->
        let sh = shapes.((pid :> int)) in
        match entry_meet.((pid :> int)) with
        | Some v -> Entry_vec.box_entry sh v
        | None -> Entry_vec.box_entry sh (Array.make (Entry_vec.size sh) P.bot))
  in
  let call_records =
    Array.to_list nodes
    |> List.concat_map (fun (pid : Prog.Proc.id) ->
           let i = (pid :> int) in
           Array.to_list (Callgraph.out_edges pcg pid)
           |> List.map (fun (e : Callgraph.edge) ->
                  let cs = e.Callgraph.cs_index in
                  let callee = e.Callgraph.callee in
                  let exec, words =
                    match sites.(i).(cs) with
                    | Some words -> (true, words)
                    | None ->
                        let sh = shapes.((callee :> int)) in
                        (false, Entry_vec.split sh (Entry_vec.top sh))
                  in
                  Entry_vec.box_site ~caller:pid ~cs_index:cs ~callee ~exec
                    ~word:Fun.id words))
  in
  Solution.make ~method_name ~db ~entries ~call_records ~scc_runs:!scc_runs
    ~scc_results:(Prog.tbl db None)

let solve ?jobs (ctx : Context.t) : Solution.t =
  Trace.next_epoch ();
  Trace.span "vc:solve" (fun () -> solve_body ?jobs ctx)
