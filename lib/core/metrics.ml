(** The paper's evaluation metrics (§4).

    The paper introduces two interprocedural metrics, deliberately different
    from the substitution counts of Metzger–Stroud and Grove–Torczon:

    - {b call-site constant candidates} (Tables 1 and 3): at each call site,
      how many actual arguments does each method establish as constant, and
      how many global constants reach the site and are referenced by the
      callee ("a global variable that is propagated to multiple procedures
      will be counted once for each procedure that it is propagated to");
    - {b interprocedural propagated constants} (Tables 2 and 4): how many
      formals / directly-referenced globals are constant {e at procedure
      entry} — counted once per procedure regardless of how many uses they
      have, which is what makes the metric independent of the
      intraprocedural method;
    - {b intraprocedural substitutions} (Table 5): the classic metric, for
      comparison with Grove–Torczon's published numbers.

    Only procedures reachable from main are measured, as in the paper. *)

open Fsicp_prog
open Fsicp_ipa
open Fsicp_scc

type candidates_row = {
  cd_program : string;
  cd_args : int;  (** ARG: total number of arguments at all call sites *)
  cd_imm : int;  (** IMM: immediate (literal) constant arguments *)
  cd_fi : int;  (** constant arguments, flow-insensitive method *)
  cd_fs : int;  (** constant arguments, flow-sensitive method *)
  cd_gl_fi : int;  (** block-data global candidates considered by FI *)
  cd_gl_fs : int;
      (** (call site, global) pairs: constant reaches the site and the
          callee references the global (directly or indirectly) *)
  cd_gl_vis : int;  (** subset of [cd_gl_fs] visible in the caller *)
}

type propagated_row = {
  pr_program : string;
  pr_fp : int;  (** total number of formal parameters *)
  pr_fi : int;  (** constant formals, flow-insensitive *)
  pr_fs : int;  (** constant formals, flow-sensitive *)
  pr_procs : int;  (** procedures reachable from main (incl. main) *)
  pr_gl_fi : int;
      (** global constants at procedure entry, directly referenced, FI *)
  pr_gl_fs : int;  (** ditto, flow-sensitive *)
}

type substitutions_row = {
  sb_program : string;
  sb_poly : int;  (** polynomial jump function (no return jump function) *)
  sb_fi : int;
  sb_fs : int;
  sb_cc : int;  (** beyond the paper: copy-constant ({!Cc_icp}) *)
  sb_vc : int;  (** beyond the paper: value-context ({!Vc_icp}) *)
}

let count_const (a : Lattice.t array) =
  Array.fold_left
    (fun acc v -> if Lattice.is_const v then acc + 1 else acc)
    0 a

(** Table 1 / Table 3 row. *)
let candidates (ctx : Context.t) ~(fi : Solution.t) ~(fs : Solution.t)
    ~(name : string) : candidates_row =
  let pcg = ctx.Context.pcg in
  let args_total = ref 0 and imm = ref 0 in
  Array.iter
    (fun pid ->
      let proc = Fsicp_callgraph.Callgraph.proc_name pcg pid in
      let s = Summary.find ctx.Context.summaries proc in
      List.iter
        (fun (c : Summary.call_summary) ->
          args_total := !args_total + Array.length c.Summary.cs_args;
          Array.iter
            (fun a ->
              match a with
              | Summary.Alit _ -> incr imm
              | Summary.Aformal _ | Summary.Aglobal _ | Summary.Alocal _
              | Summary.Aexpr -> ())
            c.Summary.cs_args)
        s.Summary.ps_calls)
    pcg.Fsicp_callgraph.Callgraph.nodes;
  let fi_args =
    List.fold_left
      (fun acc (cr : Solution.callsite_record) ->
        acc + count_const cr.Solution.cr_args)
      0 (Solution.call_records fi)
  in
  let fs_args =
    List.fold_left
      (fun acc (cr : Solution.callsite_record) ->
        if cr.Solution.cr_executable then
          acc + count_const cr.Solution.cr_args
        else acc)
      0 (Solution.call_records fs)
  in
  let gl_fi =
    Context.blockdata_env ctx
    |> List.filter (fun (_, v) -> Lattice.is_const v)
    |> List.length
  in
  let gl_fs, gl_vis =
    List.fold_left
      (fun (n, nv) (cr : Solution.callsite_record) ->
        if cr.Solution.cr_executable then
          List.fold_left
            (fun (n, nv) (g, v) ->
              if Lattice.is_const v then
                ( n + 1,
                  if
                    Context.global_visible_in ctx
                      (Solution.proc_name fs cr.Solution.cr_caller)
                      (Prog.Var.name g)
                  then nv + 1
                  else nv )
              else (n, nv))
            (n, nv) cr.Solution.cr_globals
        else (n, nv))
      (0, 0) (Solution.call_records fs)
  in
  {
    cd_program = name;
    cd_args = !args_total;
    cd_imm = !imm;
    cd_fi = fi_args;
    cd_fs = fs_args;
    cd_gl_fi = gl_fi;
    cd_gl_fs = gl_fs;
    cd_gl_vis = gl_vis;
  }

(** Table 2 / Table 4 row. *)
let propagated (ctx : Context.t) ~(fi : Solution.t) ~(fs : Solution.t)
    ~(name : string) : propagated_row =
  let pcg = ctx.Context.pcg in
  let fp_total = ref 0 in
  let count_formals (sol : Solution.t) =
    Array.fold_left
      (fun acc pid ->
        acc + count_const (Solution.entry_at sol pid).Solution.pe_formals)
      0 pcg.Fsicp_callgraph.Callgraph.nodes
  in
  Array.iter
    (fun pid ->
      let s =
        Summary.find ctx.Context.summaries
          (Fsicp_callgraph.Callgraph.proc_name pcg pid)
      in
      fp_total := !fp_total + List.length s.Summary.ps_formals)
    pcg.Fsicp_callgraph.Callgraph.nodes;
  let count_globals (sol : Solution.t) =
    Array.fold_left
      (fun acc pid ->
        let proc = Fsicp_callgraph.Callgraph.proc_name pcg pid in
        let e = Solution.entry_at sol pid in
        acc
        + List.length
            (List.filter
               (fun (g, v) ->
                 Lattice.is_const v
                 && Context.global_direct_ref ctx proc (Prog.Var.name g))
               e.Solution.pe_globals))
      0 pcg.Fsicp_callgraph.Callgraph.nodes
  in
  {
    pr_program = name;
    pr_fp = !fp_total;
    pr_fi = count_formals fi;
    pr_fs = count_formals fs;
    pr_procs = Array.length pcg.Fsicp_callgraph.Callgraph.nodes;
    pr_gl_fi = count_globals fi;
    pr_gl_fs = count_globals fs;
  }

(** Table 5 row: intraprocedural substitutions under each method's entry
    constants.  [poly] defaults to solving the polynomial jump function
    baseline on the same context. *)
let substitutions (ctx : Context.t) ?poly ?cc ?vc ~(fi : Solution.t)
    ~(fs : Solution.t) ~(name : string) () : substitutions_row =
  let poly =
    match poly with
    | Some p -> p
    | None -> Jump_functions.solve ctx Jump_functions.Polynomial
  in
  let cc = match cc with Some s -> s | None -> Cc_icp.solve ctx in
  let vc = match vc with Some s -> s | None -> Vc_icp.solve ctx in
  let _, n_poly = Transform.substitutions ctx poly in
  let _, n_fi = Transform.substitutions ctx fi in
  let _, n_fs = Transform.substitutions ctx fs in
  let _, n_cc = Transform.substitutions ctx cc in
  let _, n_vc = Transform.substitutions ctx vc in
  {
    sb_program = name;
    sb_poly = n_poly;
    sb_fi = n_fi;
    sb_fs = n_fs;
    sb_cc = n_cc;
    sb_vc = n_vc;
  }

let pct n total =
  if total = 0 then 0.0 else 100.0 *. float_of_int n /. float_of_int total

(** Formal-constant sets per jump-function variant plus FI and FS on one
    program — the paper's Figure 1 comparison. *)
type figure1_row = { f1_method : string; f1_constants : (string * int) list }

let figure1 (ctx : Context.t) : figure1_row list =
  let fi = Fi_icp.solve ctx in
  let fs = Fs_icp.solve ~fi ctx in
  let of_solution (sol : Solution.t) =
    Solution.constant_formals sol |> List.map (fun (p, i, _) -> (p, i))
  in
  let rows =
    [
      ("flow-sensitive", of_solution fs);
      ("flow-insensitive", of_solution fi);
    ]
    @ List.map
        (fun variant ->
          ( Jump_functions.variant_name variant,
            of_solution (Jump_functions.solve ctx variant) ))
        Jump_functions.all_variants
    @ [
        (Cc_icp.method_name, of_solution (Cc_icp.solve ctx));
        (Vc_icp.method_name, of_solution (Vc_icp.solve ctx));
      ]
  in
  List.map (fun (m, cs) -> { f1_method = m; f1_constants = cs }) rows

(** Entry-constant gains of the beyond-the-paper methods over FS. *)
type gains_row = {
  gn_program : string;
  gn_fs_formals : int;
  gn_fs_globals : int;
  gn_cc_formals : int;
  gn_cc_globals : int;
  gn_vc_formals : int;
  gn_vc_globals : int;
}

let extended_gains (ctx : Context.t) ?cc ?vc ~(fs : Solution.t)
    ~(name : string) () : gains_row =
  let cc = match cc with Some s -> s | None -> Cc_icp.solve ctx in
  let vc = match vc with Some s -> s | None -> Vc_icp.solve ctx in
  let nf sol = List.length (Solution.constant_formals sol) in
  let ng sol = List.length (Solution.constant_globals sol) in
  {
    gn_program = name;
    gn_fs_formals = nf fs;
    gn_fs_globals = ng fs;
    gn_cc_formals = nf cc;
    gn_cc_globals = ng cc;
    gn_vc_formals = nf vc;
    gn_vc_globals = ng vc;
  }

(** Cumulative SCC block visits (process-wide, all domains), read from the
    ["scc.block_visits"] counter of {!Fsicp_trace.Trace}.  The memo
    warm-path acceptance check reads this: a re-solve of an unchanged
    program must not advance it. *)
let scc_block_visits () = Fsicp_trace.Trace.counter_total "scc.block_visits"

(** Cumulative entry-vector memo evictions (capacity overflows), from the
    ["scc.memo_evictions"] counter.  The warm-path check also reads this:
    a memo working set that fits capacity must never evict. *)
let scc_memo_evictions () =
  Fsicp_trace.Trace.counter_total "scc.memo_evictions"
