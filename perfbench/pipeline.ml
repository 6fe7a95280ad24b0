(* The compile pipeline composed from the public entry points, in the
   order [Context.create] calls them, with one span around each layer
   call.  The context record is assembled the way [Driver.run] does it. *)

open Fsicp_lang
open Fsicp_core
open Fsicp_ipa
open Fsicp_callgraph
module Prog = Fsicp_prog.Prog
module Verify = Fsicp_verify.Verify

let span = Spans.span

(* The inline size limit [Verify.apply_transform] uses, so the verified
   program is the one the benchmark built. *)
let inline_max_body = 12

type front = { ctx : Context.t; fs : Solution.t }

let parse text = span "lang.parse" (fun () -> Parser.program_of_string text)
let sema prog = span "lang.sema" (fun () -> Sema.check_exn prog)

(* Text to FI and FS solutions over warm SSA. *)
let front ~jobs text =
  let prog = parse text in
  sema prog;
  let pcg = span "callgraph.build" (fun () -> Callgraph.build prog) in
  let summaries = span "ipa.summary" (fun () -> Summary.collect prog) in
  let aliases = span "ipa.alias" (fun () -> Alias.compute summaries pcg) in
  let modref =
    span "ipa.modref" (fun () -> Modref.compute summaries aliases pcg)
  in
  let lowered =
    span "cfg.lower" (fun () -> Context.lower_all ~jobs prog pcg)
  in
  let alias_kills =
    span "core.alias_kills" (fun () ->
        Context.compute_alias_kills aliases summaries pcg lowered)
  in
  let ctx =
    {
      Context.prog;
      pcg;
      summaries;
      aliases;
      modref;
      floats = true;
      lowered = Prog.Proc.Tbl.map (fun p -> Some p) lowered;
      alias_kills = Prog.Proc.Tbl.map (fun k -> Some k) alias_kills;
      ssa_cache = Prog.tbl pcg.Callgraph.db None;
      epochs = Prog.tbl pcg.Callgraph.db 0;
      edit_epoch = 0;
      stream = None;
    }
  in
  span "ssa.build" (fun () -> Context.build_ssa ~jobs ctx);
  let fi = span "core.fi" (fun () -> Fi_icp.solve ctx) in
  let fs = span "core.fs" (fun () -> Fs_icp.solve ~jobs ~fi ctx) in
  ignore (span "ipa.use" (fun () -> Use.compute lowered modref pcg));
  { ctx; fs }

type suite_out = {
  s_front : front;
  s_trans : (string * Ast.program) list;  (** in [Verify.transform_names] order *)
  s_inline_sites : int;
  s_clones : int;
  s_vcs : Verify.vc list;
}

(* One suite operation: a program's text to a validated, transformed
   text.  Verification covers all four transformations. *)
let suite_compile ~jobs text =
  let f = front ~jobs text in
  let ctx = f.ctx and fs = f.fs in
  ignore (span "core.cc" (fun () -> Cc_icp.solve ~jobs ctx));
  ignore (span "core.vc" (fun () -> Vc_icp.solve ~jobs ctx));
  let insert =
    span "core.insert" (fun () -> Transform.insert_entry_constants ctx fs)
  in
  let fold = span "core.fold" (fun () -> Fold.fold_program ctx fs) in
  let inlined, sites =
    span "core.inline" (fun () ->
        Inline.inline_program ctx ~max_body:inline_max_body ())
  in
  let cloned, clones =
    span "core.clone" (fun () -> Clone.clone_by_constants ctx ~fs ())
  in
  let trans =
    [ ("insert", insert); ("fold", fold); ("inline", inlined); ("clone", cloned) ]
  in
  let vcs =
    List.concat_map
      (fun (name, t) ->
        span ("verify." ^ name) (fun () ->
            Verify.vcs ctx ~solution:fs ~transform:name ~trans:t))
      trans
  in
  ignore (span "lang.pretty" (fun () -> Pretty.program_to_string fold));
  { s_front = f; s_trans = trans; s_inline_sites = sites; s_clones = clones; s_vcs = vcs }

type corpus_out = { c_front : front; c_fold : Ast.program }

(* One corpus operation: text to folded, printed output, without verify. *)
let corpus_compile ~jobs text =
  let f = front ~jobs text in
  let fold = span "core.fold" (fun () -> Fold.fold_program f.ctx f.fs) in
  ignore (span "lang.pretty" (fun () -> Pretty.program_to_string fold));
  { c_front = f; c_fold = fold }

(* Constant formals and globals at procedure entries. *)
let constants (s : Solution.t) =
  List.length (Solution.constant_formals s)
  + List.length (Solution.constant_globals s)
