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

    {2 Parallel execution}

    The traversal is a dependency {e wavefront}: a procedure is ready as
    soon as all of its forward-edge callers have been analysed,
    independently of its siblings, so ready procedures run concurrently on
    up to [jobs] domains once the traversal reaches
    {!Fsicp_par.Par.cutoff} [Wavefront] procedures
    ({!Fsicp_par.Par.wavefront}, each domain owning the
    procedures of the {!shard_regions} it is assigned).  Procedure [p]'s
    entry meet is {e pulled} at dispatch time from the call records its
    forward callers already produced — in canonical in-edge order, so the
    result is independent of completion order — rather than pushed by the
    callers, which keeps the per-call-site hot path free of locks: the
    scheduler's pending counts and cross-domain handoffs are the only
    synchronisation points.  The entry vector itself — slot layout, the
    in-edge meet, [main]'s roots, finalisation and boxing — is
    {!Entry_vec}'s.  Back-edge
    contributions come from the flow-insensitive seed, which is complete
    before the wavefront starts, so no cross-domain race exists.
    [jobs = 1] processes the nodes sequentially in exactly the forward
    order the original implementation used; any [jobs] yields a
    bit-identical {!Solution.t} (verified by the test suite). *)

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

(* -- Shard regions ------------------------------------------------------ *)

(* A cut at position [i] splits the dense id range into [0, i) / [i, n).
   In reverse postorder every non-back edge increases ids, so any path
   from a higher id back to a lower one must traverse a back edge (c, k)
   with [k <= c]; an SCC spanning the cut would need such a path crossing
   it, i.e. a back edge with [k < i <= c].  Forbidding cuts inside every
   back-edge interval [k+1, c] therefore keeps each SCC of the PCG
   condensation whole within one region. *)
let shard_regions (pcg : Callgraph.t) ~parts : int array =
  let n = Callgraph.n_procs pcg in
  let parts = max 1 (min parts (max 1 n)) in
  if n = 0 then [| 0; 0 |]
  else begin
    (* Difference-array coverage of the forbidden intervals. *)
    let diff = Array.make (n + 2) 0 in
    List.iter
      (fun (e : Callgraph.edge) ->
        if e.Callgraph.back then begin
          let k = (e.Callgraph.callee :> int)
          and c = (e.Callgraph.caller :> int) in
          (* Self-recursion (k = c) forbids nothing: the interval is empty. *)
          if k < c then begin
            diff.(k + 1) <- diff.(k + 1) + 1;
            diff.(c + 1) <- diff.(c + 1) - 1
          end
        end)
      pcg.Callgraph.edges;
    let legal = ref [] and cov = ref 0 in
    for i = 1 to n - 1 do
      cov := !cov + diff.(i);
      if !cov = 0 then legal := i :: !legal
    done;
    let legal = Array.of_list (List.rev !legal) in
    (* For each ideal boundary, take the largest legal cut not past it;
       strictly increasing cuts, so heavily cyclic graphs just yield fewer
       (larger) regions. *)
    let cuts = ref [] and last = ref 0 and li = ref 0 in
    for p = 1 to parts - 1 do
      let target = p * n / parts in
      while !li < Array.length legal && legal.(!li) <= target do
        incr li
      done;
      if !li > 0 && legal.(!li - 1) > !last then begin
        cuts := legal.(!li - 1) :: !cuts;
        last := legal.(!li - 1)
      end
    done;
    Array.of_list ((0 :: List.rev (n :: !cuts)) |> List.sort_uniq compare)
  end

(* Region [r] (ids [bounds.(r), bounds.(r+1))) belongs to domain
   [r mod jobs]: more regions than domains interleaves whole regions
   round-robin, which balances corpora whose hard work clusters in one
   id range without ever splitting a region. *)
let owners_of_regions (bounds : int array) ~jobs ~n : int array =
  let owners = Array.make n 0 in
  for r = 0 to Array.length bounds - 2 do
    for i = bounds.(r) to bounds.(r + 1) - 1 do
      owners.(i) <- r mod jobs
    done
  done;
  owners

(** [solve ?jobs ?fi ?call_def_value ctx] computes the flow-sensitive
    solution.

    [jobs] bounds the worker domains for the wavefront traversal and the
    SSA pre-build (default {!Fsicp_par.Par.default_jobs}); the traversal
    runs on one domain below {!Fsicp_par.Par.cutoff} [Wavefront]
    procedures.  The solution is identical for every value.

    [fi] overrides the flow-insensitive solution used for back edges
    (computed on demand when the PCG has cycles, matching the paper:
    "performing a flow-insensitive analysis prior to the flow-sensitive
    analysis, only if there are cycles in the PCG").

    [call_def_value] refines the post-call value of call-defined variables;
    the return-constants extension ({!Return_consts}) passes the summaries
    of its reverse traversal here.

    [prev]/[seeds] select the incremental path (see {!resolve}): only the
    forward-edge cone of [seeds] is driven through the wavefront, and in
    it only the seeds and the procedures whose forward in-edge records
    changed are analysed again; every other procedure keeps [prev]'s
    entry, call-record row and SCC result.  Returns the solution and the
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

  (* The procedures to drive: every id from scratch, the seeds' cone
     (ascending ids) on the incremental path, with the seeds marked.
     Ascending ids are the forward topological order, so the sequential
     path is an in-order sweep.  The wavefront spreads over domains only
     from [Par.cutoff Wavefront] procedures on; below it, and for a cone
     that small, it runs on the calling domain alone. *)
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
  let jobs = Par.domains Par.Wavefront ~jobs:budget (Array.length order) in

  (* When the SSA build would fan out ([Par.cutoff Init] procedures to
     drive), pre-build SSA for every procedure first (embarrassingly
     parallel, and the bulk of the flow-sensitive setup time); afterwards
     [Context.ssa] is a read-only cache hit from any domain, which a
     parallel wavefront needs — and the wavefront's cutoff lies above
     [Init]'s.  Below it the solve takes the [jobs 1] path: each
     procedure's SSA is built at its wavefront turn.  Streaming contexts
     skip the pre-build on purpose: each procedure's SSA is built inside
     [analyse] when its turn comes and released right after, so the peak
     resident set follows the frontier instead of the program. *)
  let streaming = Context.is_streaming ctx in
  if
    Par.domains Par.Init ~jobs:budget (Array.length order) > 1
    && not streaming
  then Context.build_ssa ~jobs:budget ctx;

  let roots = Entry_vec.roots ctx in

  (* Per-procedure outputs, written only by the domain that processes the
     procedure and read by its dependents after the scheduler's
     happens-before edge.  Call records are stored by (caller id,
     cs_index): dense rows, one slot per call site, since a caller records
     each of its sites at most once; the rows become the solution's as
     they stand, so it is identical for every [jobs].

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
     Its forward callers were processed first (the scheduler's order), and
     an analysed caller stores each record equal to [prev]'s as [prev]'s
     own, so [==] is the whole test.  Its back-edge contributions are
     unchanged too, since the callee of every back edge whose
     flow-insensitive record changed is a seed, and a non-seed's SSA is
     [prev]'s.  The same entry vector over the same SSA gives [prev]'s
     entry, SCC result and records: a from-scratch solve would recompute
     exactly them. *)
  let cutoffs = Atomic.make 0 in
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
    (* Detached: the wavefront runs the procedure on whichever domain owns
       it, so the span must not inherit that domain's stack in the
       canonical trace.  The procedure name keys the canonical order. *)
    Trace.span ~detach:true
      ~args:(fun () -> [ ("proc", proc) ])
      "fs:proc"
    @@ fun () ->
    (* Computed on demand, so only the frontier's shapes are live. *)
    let sh = Entry_vec.shape ctx proc in
    (* A forward caller has been processed (the scheduler guarantees it),
       so its recorded executable call-site values are pulled; a back edge
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
  let process i =
    let pid = nodes.(i) in
    if unchanged pid then Atomic.incr cutoffs else analyse pid
  in

  (* One scheduler call for both paths.  An incremental solve restricts
     the wavefront to the cone: a cone member waits only on its forward
     callers in the cone (the others' records are already in
     [record_idx]), and completion must never enqueue a node outside it.
     The frontier is sharded into contiguous SCC-whole id regions, ~4 per
     domain, each domain owning its regions' nodes on a private stack;
     every output is stored by procedure id, which makes the solution
     independent of the sharding, so this is purely a scheduling choice
     (verified by the digest-equality tests).  At one domain the scheduler
     ignores [owners], [deps] and [dependents], so neither sharding nor
     the cone's dependency filtering happens. *)
  let owners, deps, dependents =
    if jobs <= 1 then ([||], [||], [||])
    else
      let owners =
        owners_of_regions (shard_regions pcg ~parts:(4 * jobs)) ~jobs ~n
      in
      (* Wavefront shape: procedure [i] depends on the distinct procedures
         that call it over forward (non-back) edges; back edges contribute
         the FI seed instead and impose no ordering.  The forward-edge
         graph is acyclic and consistent with reverse postorder by
         construction.  A procedure's id is its reverse-postorder index,
         so ids double as wavefront slots.  The lists depend on the PCG
         alone and are shared by every solve. *)
      let deps, dependents = Callgraph.forward_deps pcg in
      match prev with
      | None -> (owners, deps, dependents)
      | Some _ ->
          let m = Array.make n false in
          Array.iter (fun i -> m.(i) <- true) order;
          let rdeps = Array.make n [] and rdependents = Array.make n [] in
          Array.iter
            (fun i ->
              rdeps.(i) <- List.filter (fun c -> m.(c)) deps.(i);
              rdependents.(i) <- List.filter (fun d -> m.(d)) dependents.(i))
            order;
          (owners, rdeps, rdependents)
  in
  Par.wavefront ~jobs ~owners ~order ~deps ~dependents process;

  let cut = Atomic.get cutoffs in
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

    [seeds] are the procedures whose inputs changed outside the wavefront:
    the edited procedures, every procedure whose SSA form is not [prev]'s,
    and the callee of every back edge whose flow-insensitive record
    changed; [fi] is the {e fresh} flow-insensitive solution of the edited
    program; [prev] is the previous flow-sensitive solution.  Only the
    seeds' forward cone ({!Callgraph.cone}) is driven through the
    wavefront, and in it a procedure is analysed again only when it is a
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
