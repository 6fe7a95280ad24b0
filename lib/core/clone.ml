(** Goal-directed procedure cloning from constant-propagation results.

    The paper's compilation model performs "optional procedure inlining and
    cloning ... with the output of interprocedural constant propagation
    available to them", and cites Metzger–Stroud: "goal-directed procedure
    cloning based on constant propagation can substantially increase the
    number of interprocedural constants".

    This pass groups the call sites of each procedure by the vector of
    constant argument values the flow-sensitive solution records at the
    site.  When at least two groups exist and at least one carries
    constants that are lost in the meet over all sites, the procedure is
    cloned per group and the call sites are retargeted, so a subsequent ICP
    run sees per-group constant formals. *)

open Fsicp_lang
open Fsicp_scc

(** Signature of a call site: the constant-or-not vector of its arguments. *)
type signature = Value.t option list

let signature_of (cr : Solution.callsite_record) : signature =
  Array.to_list cr.Solution.cr_args |> List.map Lattice.const_value

let has_constants (s : signature) = List.exists Option.is_some s

(** [clone_by_constants ctx ~fs ?max_clones_per_proc ()] returns the cloned
    program together with the number of clones created.  The result is
    {!Sema.check}-clean whenever the input was. *)
let clone_by_constants (ctx : Context.t) ~(fs : Solution.t)
    ?(max_clones_per_proc = 8) () : Ast.program * int =
  let prog = ctx.Context.prog in
  (* Group executable call records per callee by signature. *)
  let groups : (string, (signature * (string * int) list) list) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (cr : Solution.callsite_record) ->
      if cr.Solution.cr_executable then begin
        let s = signature_of cr in
        let callee = Solution.proc_name fs cr.Solution.cr_callee in
        let existing =
          Option.value (Hashtbl.find_opt groups callee) ~default:[]
        in
        let site =
          (Solution.proc_name fs cr.Solution.cr_caller, cr.Solution.cr_cs_index)
        in
        let rec insert = function
          | [] -> [ (s, [ site ]) ]
          | (s', sites) :: tl when s = s' -> (s', site :: sites) :: tl
          | hd :: tl -> hd :: insert tl
        in
        Hashtbl.replace groups callee (insert existing)
      end)
    (Solution.call_records fs);
  (* Decide clones: callees with >= 2 signature groups, of which at least
     one group has constants; the first group keeps the original. *)
  let renames : (string * int, string) Hashtbl.t = Hashtbl.create 16 in
  let clones = ref [] in
  let n_clones = ref 0 in
  Hashtbl.iter
    (fun callee sigs ->
      if
        (not (String.equal callee prog.Ast.main))
        && List.length sigs >= 2
        && List.exists (fun (s, _) -> has_constants s) sigs
      then begin
        let base = Ast.find_proc_exn prog callee in
        List.iteri
          (fun k (_, sites) ->
            if k > 0 && k <= max_clones_per_proc then begin
              let cname = Printf.sprintf "%s__clone%d" callee k in
              incr n_clones;
              clones := { base with Ast.pname = cname } :: !clones;
              List.iter
                (fun site -> Hashtbl.replace renames site cname)
                sites
            end)
          sigs
      end)
    groups;
  (* Rewrite call sites: walk each procedure body, numbering call
     statements in textual order (matching [Ast.call_sites]). *)
  let rewrite_proc (p : Ast.proc) : Ast.proc =
    let counter = ref 0 in
    let rec rw_block body = List.map rw_stmt body
    and rw_stmt (s : Ast.stmt) : Ast.stmt =
      match s.Ast.sdesc with
      | Ast.Call (q, args) ->
          let idx = !counter in
          incr counter;
          let q' =
            Option.value
              (Hashtbl.find_opt renames (p.Ast.pname, idx))
              ~default:q
          in
          { s with Ast.sdesc = Ast.Call (q', args) }
      | Ast.If (c, t, e) ->
          let t' = rw_block t in
          let e' = rw_block e in
          { s with Ast.sdesc = Ast.If (c, t', e') }
      | Ast.While (c, b) -> { s with Ast.sdesc = Ast.While (c, rw_block b) }
      | Ast.Assign _ | Ast.Return | Ast.Print _ -> s
    in
    { p with Ast.body = rw_block p.Ast.body }
  in
  let procs = List.map rewrite_proc prog.Ast.procs @ List.rev !clones in
  ({ prog with Ast.procs }, !n_clones)
