(** Flow-sensitive interprocedural constant propagation (paper Figure 4).

    One forward topological traversal of the PCG, interleaving the
    Wegman–Zadeck SCC intraprocedural analysis with interprocedural
    propagation:

    + visit procedures in reverse postorder from [main], so every caller
      reachable over forward edges is processed before its callees;
    + on visiting [p], meet — over all already-processed, {e executable}
      call sites invoking [p] — the recorded lattice value of each argument
      and of each global in [p]'s REF closure; call sites reached over
      {b back edges} have not been processed yet, so their contribution is
      taken from the {b flow-insensitive} solution instead (computed
      beforehand, and only when the PCG actually has cycles);
    + run SCC on [p] {e once}, with the met values as the entry environment;
    + record at each executable call site of [p] the lattice value of every
      argument and every relevant global, for its callees' later meets.

    Thus each procedure receives exactly one flow-sensitive analysis —
    recursion included — which is the paper's efficiency claim; when the
    PCG is acyclic the result coincides with the full iterative
    flow-sensitive solution (checked against {!Reference} in the tests),
    and as the back-edge ratio grows the solution degrades gracefully
    toward the flow-insensitive one (the BACKEDGE experiment).

    {2 Sweep}

    The traversal is one in-order sweep over ascending procedure ids,
    which are the PCG's reverse postorder, on the calling domain.  When
    procedure [p] comes up, every forward caller has already been
    analysed, so [p]'s entry meet is {e pulled} from the call records those
    callers produced, in canonical in-edge order.  Back-edge contributions
    come from the flow-insensitive seed, which is complete before the
    sweep starts.  The entry vector itself — slot layout, the in-edge
    meet, [main]'s roots, finalisation and boxing — is {!Entry_vec}'s.
    [jobs] only fans out the SSA pre-build ({!Context.build_ssa}); the
    solution is identical for every [jobs] (verified by the test
    suite). *)

open Fsicp_prog
open Fsicp_cfg
open Fsicp_ssa
open Fsicp_callgraph
open Fsicp_scc
open Fsicp_par

let method_name = "flow-sensitive"

module Trace = Fsicp_trace.Trace
module P = Lattice.P

(* Incremental re-solve volume: procedures in the re-solved cone, procedures
   outside it whose previous outputs were reused verbatim, and cone members
   cut off because none of their inputs changed.  All three are
   deterministic for a given edit sequence. *)
let c_resolve_dirty = Trace.counter "fs.resolve.dirty"
let c_resolve_reused = Trace.counter "fs.resolve.reused"
let c_resolve_cutoff = Trace.counter "fs.resolve.cutoff"

(** [solve ?jobs ?fi ?call_def_value ctx] computes the flow-sensitive
    solution.

    [jobs] bounds the worker domains for the SSA pre-build (default
    {!Fsicp_par.Par.default_jobs}); the sweep itself runs on the calling
    domain.  The solution is identical for every value.

    [fi] overrides the flow-insensitive solution used for back edges
    (computed on demand when the PCG has cycles, matching the paper:
    "performing a flow-insensitive analysis prior to the flow-sensitive
    analysis, only if there are cycles in the PCG").

    [call_def_value] refines the post-call value of call-defined variables;
    the return-constants extension ({!Return_consts}) passes the summaries
    of its reverse traversal here.

    [prev]/[seeds] select the incremental path (see {!resolve}): only the
    forward-edge cone of [seeds] is swept, and in it only the seeds and
    the procedures whose forward in-edge records changed are analysed
    again; every other procedure keeps [prev]'s entry, call-record row
    and SCC result.  Returns the solution and the
    number of procedures analysed. *)
let solve_body ?jobs ?fi ?prev ?(seeds = [])
    ?(call_def_value :
       (caller:string -> Ssa.call -> Ir.var -> int) option)
    (ctx : Context.t) : Solution.t * int =
  let pcg = ctx.Context.pcg in
  let nodes = pcg.Callgraph.nodes in
  let n = Array.length nodes in
  let budget = match jobs with Some j -> j | None -> Par.default_jobs () in
  let fi =
    match fi with
    | Some s -> Some s
    | None -> if Callgraph.has_cycles pcg then Some (Fi_icp.solve ctx) else None
  in

  (* The procedures to sweep: every id from scratch, the seeds' cone
     (ascending ids) on the incremental path, with the seeds marked.
     Ascending ids are the forward topological order. *)
  let order, seeded =
    match prev with
    | Some _ ->
        let seeded = Bytes.make n '\000' in
        List.iter
          (fun (p : Prog.Proc.id) -> Bytes.set seeded (p :> int) '\001')
          seeds;
        ( Array.map
            (fun (p : Prog.Proc.id) -> (p :> int))
            (Callgraph.cone pcg ~seeds),
          seeded )
    | None -> (Array.init n Fun.id, Bytes.empty)
  in

  (* When the SSA build would fan out ([Par.cutoff] procedures to sweep),
     pre-build SSA for every procedure first: it is embarrassingly
     parallel and the bulk of the flow-sensitive setup time.  Below the
     cutoff each procedure's SSA is built at its turn in the sweep.
     Streaming contexts skip the pre-build on purpose: each procedure's
     SSA is built inside [analyse] when its turn comes and released right
     after, so the peak resident set follows the sweep instead of the
     program. *)
  let streaming = Context.is_streaming ctx in
  if Par.domains ~jobs:budget (Array.length order) > 1 && not streaming then
    Context.build_ssa ~jobs:budget ctx;

  let roots = Entry_vec.roots ctx in

  (* Per-procedure outputs, written when the sweep analyses the procedure
     and read by its callees later in the sweep.  Call records are stored
     by (caller id, cs_index): dense rows, one slot per call site, since a
     caller records each of its sites at most once; the rows become the
     solution's as they stand.

     Incremental path: start from copies of the previous solution's three
     per-procedure tables, so every procedure that is not analysed again
     keeps its entry, SCC result and call-record row (shared, never
     written).  Each analysed procedure gets a fresh row. *)
  let db = pcg.Callgraph.db in
  let fresh_row pid = Array.make (Callgraph.n_call_sites pcg pid) None in
  let entries, results, record_idx =
    match prev with
    | Some (prev : Solution.t) ->
        ( Prog.Proc.Tbl.copy prev.Solution.entries,
          Prog.Proc.Tbl.copy prev.Solution.scc_results,
          Prog.Proc.Tbl.copy prev.Solution.call_index )
    | None ->
        ( Prog.tbl db Solution.empty_entry,
          Prog.tbl db None,
          Prog.tbl_init db fresh_row )
  in

  (* Early cutoff.  A cone member that is not a seed keeps [prev]'s outputs
     when every forward in-edge record is still [prev]'s physical record.
     Its forward callers were processed first (ascending ids), and
     an analysed caller stores each record equal to [prev]'s as [prev]'s
     own, so [==] is the whole test.  Its back-edge contributions are
     unchanged too, since the callee of every back edge whose
     flow-insensitive record changed is a seed, and a non-seed's SSA is
     [prev]'s.  The same entry vector over the same SSA gives [prev]'s
     entry, SCC result and records: a from-scratch solve would recompute
     exactly them. *)
  let cutoffs = ref 0 in
  let unchanged (pid : Prog.Proc.id) =
    match prev with
    | None -> false
    | Some prev ->
        Bytes.get seeded (pid :> int) = '\000'
        && Array.for_all
             (fun (e : Callgraph.edge) ->
               let caller = e.Callgraph.caller and k = e.Callgraph.cs_index in
               e.Callgraph.back
               || (Prog.Proc.Tbl.get record_idx caller).(k)
                  == (Prog.Proc.Tbl.get prev.Solution.call_index caller).(k))
             (Callgraph.in_edges pcg pid)
  in

  let analyse pid =
    let proc = Callgraph.proc_name pcg pid in
    (* Detached: the Logical flush lifts each [fs:proc] span to the root
       level, sorted by procedure name, which is the shape the committed
       [*.trace.expected] goldens pin. *)
    Trace.span ~detach:true
      ~args:(fun () -> [ ("proc", proc) ])
      "fs:proc"
    @@ fun () ->
    (* Computed on demand, so only the current procedure's shape is live. *)
    let sh = Entry_vec.shape ctx proc in
    (* A forward caller has a lower id, so the sweep has processed it and
       its recorded executable call-site values are pulled; a back edge
       contributes the flow-insensitive record instead. *)
    let v =
      Entry_vec.entry roots sh pid (fun (e : Callgraph.edge) v ->
          let caller = e.Callgraph.caller and cs_index = e.Callgraph.cs_index in
          let meet (cr : Solution.callsite_record) =
            Entry_vec.meet_site sh v ~word:P.of_t cr.Solution.cr_args
              cr.Solution.cr_globals
          in
          if e.Callgraph.back then
            Option.iter
              (fun fi ->
                Option.iter meet
                  (Solution.find_call_record fi ~caller ~cs_index))
              fi
          else
            match (Prog.Proc.Tbl.get record_idx caller).(cs_index) with
            | Some cr when cr.Solution.cr_executable -> meet cr
            | Some _ | None -> ())
    in
    Prog.Proc.Tbl.set entries pid (Entry_vec.box_entry sh v);
    (* One flow-sensitive intraprocedural analysis of [proc]. *)
    let entry_env = Entry_vec.env roots sh pid (Array.get v) in
    let ssa = Context.ssa_at ctx pid in
    let call_sites = Ssa.call_sites ssa in
    let cdv =
      match call_def_value with
      | None -> Scc.default_config.Scc.call_def_value
      | Some f ->
          (* The SCC core keys call effects by callee name; when several
             calls to the same callee define the same variable, meet their
             summaries (conservative and rare).  The calls are indexed by
             callee once, so each query folds only that callee's sites. *)
          let by_callee : (string, Ssa.call list) Hashtbl.t =
            Hashtbl.create 8
          in
          List.iter
            (fun (_, _, (c : Ssa.call)) ->
              Hashtbl.replace by_callee c.Ssa.c_callee
                (c
                :: Option.value
                     (Hashtbl.find_opt by_callee c.Ssa.c_callee)
                     ~default:[]))
            (List.rev call_sites);
          fun ~callee v ->
            List.fold_left
              (fun acc (c : Ssa.call) -> P.meet acc (f ~caller:proc c v))
              P.top
              (Option.value (Hashtbl.find_opt by_callee callee) ~default:[])
            |> fun r -> if r = P.top then P.bot else r
    in
    let config = { Scc.entry_env; call_def_value = cdv } in
    let res = Scc.run ~config ssa in
    Prog.Proc.Tbl.set results pid (Some res);
    (* Record call-site values for the callees' later meets.  Reading the
       words and boxing them are two passes; a fused reader saved 4% of
       this layer's minor words on the 20 000-procedure corpus (7 675 vs
       7 994 kw per compile at jobs 1) and no measurable time, so FS boxes
       through the same path as CC and VC.  On the incremental path a
       record equal to [prev]'s is stored as [prev]'s, for the callees'
       cutoff test. *)
    let row =
      match prev with
      | Some _ ->
          let row = fresh_row pid in
          Prog.Proc.Tbl.set record_idx pid row;
          row
      | None -> Prog.Proc.Tbl.get record_idx pid
    and prev_row =
      match prev with
      | Some prev -> Prog.Proc.Tbl.get prev.Solution.call_index pid
      | None -> [||]
    in
    List.iter
      (fun (b, _, (c : Ssa.call)) ->
        let k = c.Ssa.c_cs_id in
        let cr =
          Entry_vec.box_site ~caller:pid ~cs_index:k
            ~callee:(Callgraph.proc_id_exn pcg c.Ssa.c_callee)
            ~exec:res.Scc.block_executable.(b)
            ~word:(Context.censor_w ctx)
            (Entry_vec.read_site ~word:Fun.id res c)
        in
        row.(k) <-
          (match if k < Array.length prev_row then prev_row.(k) else None with
          | Some old as kept when Solution.record_equal old cr -> kept
          | Some _ | None -> Some cr))
      call_sites;
    (* Streaming solves must not retain each procedure's SSA through the
       retained [Scc.result]: once the records are extracted the result
       keeps every per-name array (the canonical digest reads those) but
       its SSA field is retired to [None] — any later accessor that needs
       the structure raises instead of reading stale state. *)
    if streaming then begin
      Prog.Proc.Tbl.set results pid (Some { res with Scc.proc = None });
      Context.retire ctx pid
    end
  in
  Array.iter
    (fun i ->
      let pid = nodes.(i) in
      if unchanged pid then incr cutoffs else analyse pid)
    order;

  let cut = !cutoffs in
  if Option.is_some prev then begin
    Trace.add c_resolve_dirty (Array.length order);
    Trace.add c_resolve_reused (n - Array.length order);
    Trace.add c_resolve_cutoff cut
  end;
  ( Solution.of_rows ~method_name ~db ~entries ~call_index:record_idx
      ~scc_runs:n ~scc_results:results,
    Array.length order - cut )

let solve ?jobs ?fi
    ?(call_def_value :
       (caller:string -> Ssa.call -> Ir.var -> int) option)
    (ctx : Context.t) : Solution.t =
  Trace.next_epoch ();
  Trace.span "fs:solve" (fun () ->
      fst (solve_body ?jobs ?fi ?call_def_value ctx))

(** Incremental re-solve of an edited program over [prev]'s PCG.

    [seeds] are the procedures whose inputs changed outside the sweep:
    the edited procedures, every procedure whose SSA form is not [prev]'s,
    and the callee of every back edge whose flow-insensitive record
    changed; [fi] is the {e fresh} flow-insensitive solution of the edited
    program; [prev] is the previous flow-sensitive solution.  Only the
    seeds' forward cone ({!Callgraph.cone}) is swept, and in it a procedure is analysed again only when it is a
    seed or some forward in-edge record differs from [prev]'s; the others
    are cut off and keep [prev]'s entry, SCC result and row.  The result
    is identical — including [scc_runs], which counts one flow-sensitive
    analysis per procedure, the solution-shape invariant — to a
    from-scratch {!solve} at any [jobs]; the actual work shows up in the
    returned count of analysed procedures and in the trace counters
    (["fs.resolve.dirty"], ["fs.resolve.reused"], ["fs.resolve.cutoff"],
    ["scc.memo_hits"]). *)
let resolve ?jobs ~(fi : Solution.t) ~(prev : Solution.t)
    ~(seeds : Prog.Proc.id list) (ctx : Context.t) : Solution.t * int =
  Trace.next_epoch ();
  Trace.span "fs:resolve" @@ fun () -> solve_body ?jobs ~fi ~prev ~seeds ctx
