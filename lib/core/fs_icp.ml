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
    [jobs] domains ({!Fsicp_par.Par.wavefront}, each domain owning the
    procedures of the {!shard_regions} it is assigned).  Procedure [p]'s
    entry meet is {e pulled} at dispatch time from the call records its
    forward callers already produced — in canonical in-edge order, so the
    result is independent of completion order — rather than pushed by the
    callers, which keeps the per-call-site hot path free of locks: the
    scheduler's pending counts and cross-domain handoffs are the only
    synchronisation points.  The entry vector itself — slot layout, roots,
    finalisation and boxing — is {!Entry_vec}'s.  Back-edge
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

(* Incremental re-solve volume: procedures re-driven through the wavefront
   vs procedures whose previous outputs were reused verbatim.  Both are
   deterministic for a given edit sequence. *)
let c_resolve_dirty = Trace.counter "fs.resolve.dirty"
let c_resolve_reused = Trace.counter "fs.resolve.reused"

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

    [jobs] is the number of worker domains for the wavefront traversal and
    the SSA pre-build (default {!Fsicp_par.Par.default_jobs}); the solution
    is identical for every value.

    [fi] overrides the flow-insensitive solution used for back edges
    (computed on demand when the PCG has cycles, matching the paper:
    "performing a flow-insensitive analysis prior to the flow-sensitive
    analysis, only if there are cycles in the PCG").

    [call_def_value] refines the post-call value of call-defined variables;
    the return-constants extension ({!Return_consts}) passes the summaries
    of its reverse traversal here.

    [prev]/[dirty] select the incremental path (see {!resolve}): only the
    procedures in [dirty] — a forward-edge-closed cone in ascending id
    order — are re-driven through the wavefront; every other procedure's
    entry, call records and SCC result are copied from [prev] verbatim. *)
let solve_body ?jobs ?fi ?prev ?(dirty : Prog.Proc.id array option)
    ?(call_def_value :
       (caller:string -> Ssa.call -> Ir.var -> int) option)
    (ctx : Context.t) : Solution.t =
  let pcg = ctx.Context.pcg in
  let nodes = pcg.Callgraph.nodes in
  let n = Array.length nodes in
  let jobs =
    max 1 (min (match jobs with Some j -> j | None -> Par.default_jobs ()) n)
  in
  let fi =
    match fi with
    | Some s -> Some s
    | None -> if Callgraph.has_cycles pcg then Some (Fi_icp.solve ctx) else None
  in

  (* Wavefront shape: procedure [i] depends on the distinct procedures that
     call it over forward (non-back) edges; back edges contribute the FI
     seed instead and impose no ordering.  The forward-edge graph is acyclic
     and consistent with reverse postorder by construction.  A procedure's
     id is its reverse-postorder index, so ids double as wavefront slots. *)
  let in_edges = Array.map (fun pid -> Callgraph.in_edges pcg pid) nodes in
  let deps = Array.make n [] in
  let dependents = Array.make n [] in
  Array.iteri
    (fun i es ->
      let callers =
        Array.to_list es
        |> List.filter_map (fun (e : Callgraph.edge) ->
               if e.Callgraph.back then None
               else Some (e.Callgraph.caller :> int))
        |> List.sort_uniq compare
      in
      deps.(i) <- callers;
      List.iter (fun c -> dependents.(c) <- i :: dependents.(c)) callers)
    in_edges;
  Array.iteri (fun i l -> dependents.(i) <- List.rev l) dependents;

  (* Pre-build SSA for every procedure (embarrassingly parallel, and the
     bulk of the flow-sensitive setup time); afterwards [Context.ssa] is a
     read-only cache hit from any domain.  Streaming contexts skip this on
     purpose: each procedure's SSA is built inside [process] when its
     wavefront turn comes and released right after, so the peak resident
     set follows the frontier instead of the program. *)
  let streaming = Context.is_streaming ctx in
  if jobs > 1 && not streaming then Context.build_ssa ~jobs ctx;

  let roots = Entry_vec.roots ctx in

  (* Per-procedure outputs, written only by the domain that processes the
     procedure and read by its dependents after the scheduler's
     happens-before edge. *)
  let entries_arr = Array.make n Solution.empty_entry in
  let results_arr : Scc.result option array = Array.make n None in
  let records_arr : Solution.callsite_record list array = Array.make n [] in
  (* Call records by (caller id, cs_index): dense rows, one slot per call
     site, since a caller records each of its sites at most once. *)
  let record_idx : Solution.callsite_record option array array =
    Array.init n (fun i -> Array.make (Callgraph.n_call_sites pcg nodes.(i)) None)
  in

  (* Incremental path: flag the dirty cone and seed every clean
     procedure's outputs from the previous solution.  A clean procedure's
     forward callers are all clean (the cone is forward-closed) and its
     back-edge contributions are unchanged (procedures downstream of a
     changed flow-insensitive record are seeded into the cone), so its
     previous entry, records and SCC result are exactly what a from-scratch
     solve would recompute. *)
  let dirty_mask =
    match dirty with
    | None -> None
    | Some d ->
        let m = Array.make n false in
        Array.iter (fun (pid : Prog.Proc.id) -> m.((pid :> int)) <- true) d;
        Some m
  in
  (match (prev, dirty_mask) with
  | Some (prev : Solution.t), Some m ->
      (* Bucket the previous records by caller, preserving the per-caller
         (call-site) order the from-scratch assembly produced. *)
      let acc = Array.make n [] in
      List.iter
        (fun (cr : Solution.callsite_record) ->
          let c = (cr.Solution.cr_caller :> int) in
          acc.(c) <- cr :: acc.(c))
        prev.Solution.call_records;
      for i = 0 to n - 1 do
        if not m.(i) then begin
          let pid = nodes.(i) in
          entries_arr.(i) <- Solution.entry_at prev pid;
          results_arr.(i) <- Prog.Proc.Tbl.get prev.Solution.scc_results pid;
          let recs = List.rev acc.(i) in
          records_arr.(i) <- recs;
          List.iter
            (fun (cr : Solution.callsite_record) ->
              record_idx.(i).(cr.Solution.cr_cs_index) <- Some cr)
            recs
        end
      done
  | _ -> ());

  let process i =
    let pid = nodes.(i) in
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
    let v = Entry_vec.top sh in
    let contribute (cr : Solution.callsite_record) =
      Entry_vec.meet_site sh v ~word:P.of_t cr.Solution.cr_args
        cr.Solution.cr_globals
    in
    (* Back edges contribute the flow-insensitive per-call-site statuses. *)
    (match fi with
    | None -> ()
    | Some fi ->
        Array.iter
          (fun (e : Callgraph.edge) ->
            if e.Callgraph.back then
              match
                Solution.find_call_record fi ~caller:e.Callgraph.caller
                  ~cs_index:e.Callgraph.cs_index
              with
              | None -> ()
              | Some cr -> contribute cr)
          in_edges.(i));
    (* Entry environment of [main]: block data constants; everything else
       unknown.  (Any call edge into [main] is necessarily a back edge, so
       this replacement is main's whole global story bar the FI seed, which
       it deliberately overrides — as the sequential traversal always did.) *)
    if Entry_vec.is_main roots pid then Entry_vec.set_main_globals roots sh v;
    (* Forward edges: every forward caller has been processed (the
       scheduler guarantees it), so pull its recorded executable call-site
       values, in canonical in-edge order. *)
    Array.iter
      (fun (e : Callgraph.edge) ->
        if not e.Callgraph.back then
          match
            record_idx.((e.Callgraph.caller :> int)).(e.Callgraph.cs_index)
          with
          | Some cr when cr.Solution.cr_executable -> contribute cr
          | Some _ | None -> ())
      in_edges.(i);
    (* Top after all contributions = no executable call reaches the
       procedure; treat as unknown rather than claiming dead-code
       constants.  Finalize in place: [v] doubles as the entry lookup the
       SCC entry environment reads below. *)
    Entry_vec.finalize v;
    entries_arr.(i) <- Entry_vec.box_entry sh v;
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
    results_arr.(i) <- Some res;
    (* Record call-site values for the callees' later meets.  Reading the
       words and boxing them are two passes; a fused reader saved 4% of
       this layer's minor words on the 20 000-procedure corpus (7 675 vs
       7 994 kw per compile at jobs 1) and no measurable time, so FS boxes
       through the same path as CC and VC. *)
    let recs =
      List.map
        (fun (b, _, (c : Ssa.call)) ->
          let cr =
            Entry_vec.box_site ~caller:pid ~cs_index:c.Ssa.c_cs_id
              ~callee:(Callgraph.proc_id_exn pcg c.Ssa.c_callee)
              ~exec:res.Scc.block_executable.(b)
              ~word:(Context.censor_w ctx)
              (Entry_vec.read_site ~word:Fun.id res c)
          in
          record_idx.(i).(c.Ssa.c_cs_id) <- Some cr;
          cr)
        call_sites
    in
    records_arr.(i) <- recs;
    (* Streaming solves must not retain each procedure's SSA through the
       retained [Scc.result]: once the records are extracted the result
       keeps every per-name array (the canonical digest reads those) but
       its SSA field is retired to [None] — any later accessor that needs
       the structure raises instead of reading stale state. *)
    if streaming then begin
      results_arr.(i) <- Some { res with Scc.proc = None };
      Context.retire ctx pid
    end
  in

  (* One scheduler call for both paths.  A from-scratch solve orders every
     id; an incremental one restricts the wavefront to the dirty cone: a
     dirty procedure waits only on its dirty forward callers (clean
     callers' records are already in [record_idx]), and completion must
     never enqueue a clean node.  Ascending ids are the forward topological
     order, so the sequential path is just an in-order sweep.  The frontier
     is sharded into contiguous SCC-whole id regions, ~4 per domain, each
     domain owning its regions' nodes on a private stack; the canonical
     assembly below makes the solution independent of the sharding, so
     this is purely a scheduling choice (verified by the digest-equality
     tests). *)
  let order, deps, dependents =
    match (dirty, dirty_mask) with
    | Some d, Some m ->
        let order = Array.map (fun (p : Prog.Proc.id) -> (p :> int)) d in
        let rdeps = Array.make n [] and rdependents = Array.make n [] in
        Array.iter
          (fun i ->
            rdeps.(i) <- List.filter (fun c -> m.(c)) deps.(i);
            rdependents.(i) <- List.filter (fun d -> m.(d)) dependents.(i))
          order;
        (order, rdeps, rdependents)
    | _ -> (Array.init n Fun.id, deps, dependents)
  in
  (* A cone can be smaller than the pool: the scheduler runs one domain
     per owner, so both shrink to the order's length together.  At one
     domain the scheduler ignores [owners] and sharding is skipped. *)
  let jobs = min jobs (Array.length order) in
  let owners =
    if jobs <= 1 then [||]
    else owners_of_regions (shard_regions pcg ~parts:(4 * jobs)) ~jobs ~n
  in
  Par.wavefront ~jobs ~owners ~order ~deps ~dependents process;

  (* Canonical normalisation point: assemble per-procedure outputs in
     forward (reverse postorder) node order, so the recorded call-record
     order — and hence the whole solution — is identical for every [jobs]. *)
  let db = pcg.Callgraph.db in
  let entries = Prog.tbl_init db (fun pid -> entries_arr.((pid :> int))) in
  let scc_results = Prog.tbl_init db (fun pid -> results_arr.((pid :> int))) in
  let call_records = List.concat (Array.to_list records_arr) in
  Solution.make ~method_name ~db ~entries ~call_records ~scc_runs:n ~scc_results

let solve ?jobs ?fi
    ?(call_def_value :
       (caller:string -> Ssa.call -> Ir.var -> int) option)
    (ctx : Context.t) : Solution.t =
  Trace.next_epoch ();
  Trace.span "fs:solve" (fun () -> solve_body ?jobs ?fi ?call_def_value ctx)

(** Incremental re-solve after a shape-preserving procedure edit.

    [dirty] is the downstream wavefront cone ({!Callgraph.cone}) of the
    edited procedures plus every callee of a back edge whose
    flow-insensitive record changed; [fi] is the {e fresh} flow-insensitive
    solution of the edited program; [prev] is the previous flow-sensitive
    solution.  Only the cone is re-driven through the wavefront; everything
    outside it is copied from [prev].  The result is identical — including
    [scc_runs], which counts one flow-sensitive analysis per procedure, the
    solution-shape invariant — to a from-scratch {!solve} at any [jobs];
    the actual kernel work shows up in the trace counters instead
    (["fs.resolve.dirty"], ["fs.resolve.reused"], ["scc.memo_hits"]). *)
let resolve ?jobs ~(fi : Solution.t) ~(prev : Solution.t)
    ~(dirty : Prog.Proc.id array) (ctx : Context.t) : Solution.t =
  Trace.next_epoch ();
  Trace.span "fs:resolve" @@ fun () ->
  let n = Array.length ctx.Context.pcg.Callgraph.nodes in
  Trace.add c_resolve_dirty (Array.length dirty);
  Trace.add c_resolve_reused (n - Array.length dirty);
  (* Small dirty regions run sequentially regardless of the requested
     [jobs]: spawning a worker pool costs on the order of a millisecond,
     more than re-solving a handful of procedures outright.  Results are
     identical at every jobs count by construction, so the clamp is purely
     a latency decision. *)
  let jobs = if Array.length dirty < 24 then Some 1 else jobs in
  solve_body ?jobs ~fi ~prev ~dirty ctx
