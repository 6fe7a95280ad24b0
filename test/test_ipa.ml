(** Tests for the interprocedural analyses of Figure 2, steps 1, 3 and 4:
    summaries, reference-parameter aliasing, MOD/REF, and the
    flow-sensitive USE computation. *)

open Fsicp_lang
open Fsicp_ipa
open Fsicp_callgraph

let setup src =
  let p = Test_util.parse src in
  let pcg = Callgraph.build p in
  let summaries = Summary.collect p in
  let aliases = Alias.compute summaries pcg in
  let modref = Modref.compute summaries aliases pcg in
  (p, pcg, summaries, aliases, modref)

(* -- summaries -------------------------------------------------------- *)

let test_summary_imod_iref () =
  let _, _, summaries, _, _ =
    setup
      {|global g, h;
        proc main() { call f(1); }
        proc f(a) { a = g + 1; h = 2; l = 3; print l; }|}
  in
  let s = Summary.find summaries "f" in
  Alcotest.(check bool) "formal a in IMOD" true
    (Summary.VrefSet.mem (Summary.Vformal 0) s.Summary.ps_imod);
  Alcotest.(check bool) "global h in IMOD" true
    (Summary.VrefSet.mem (Summary.Vglobal "h") s.Summary.ps_imod);
  Alcotest.(check bool) "global g in IREF" true
    (Summary.VrefSet.mem (Summary.Vglobal "g") s.Summary.ps_iref);
  Alcotest.(check bool) "local not in IMOD" false
    (Summary.VrefSet.mem (Summary.Vglobal "l") s.Summary.ps_imod)

let test_summary_arg_shapes () =
  let _, _, summaries, _, _ =
    setup
      {|global g;
        proc main() { l = 1; call f(3, l, g, l + 1); call f(2.5, l, l, l); }
        proc f(a, b, c, d) { }|}
  in
  let s = Summary.find summaries "main" in
  let c0 = List.nth s.Summary.ps_calls 0 in
  (match c0.Summary.cs_args with
  | [| Summary.Alit (Value.Int 3); Summary.Alocal "l"; Summary.Aglobal "g";
       Summary.Aexpr |] -> ()
  | _ -> Alcotest.fail "first call arg shapes");
  let c1 = List.nth s.Summary.ps_calls 1 in
  match c1.Summary.cs_args.(0) with
  | Summary.Alit (Value.Real 2.5) -> ()
  | _ -> Alcotest.fail "real literal arg"

let test_summary_formal_args () =
  let _, _, summaries, _, _ =
    setup
      {|proc main() { call f(1, 2); }
        proc f(a, b) { call h(b, a); }
        proc h(x, y) { }|}
  in
  let s = Summary.find summaries "f" in
  match (List.hd s.Summary.ps_calls).Summary.cs_args with
  | [| Summary.Aformal 1; Summary.Aformal 0 |] -> ()
  | _ -> Alcotest.fail "formal argument indices"

(* -- aliasing ---------------------------------------------------------- *)

let test_alias_same_var_twice () =
  let _, _, _, aliases, _ =
    setup
      {|proc main() { x = 1; call f(x, x, 2); }
        proc f(a, b, c) { }|}
  in
  Alcotest.(check bool) "a and b alias" true
    (Alias.formals_may_alias aliases "f" 0 1);
  Alcotest.(check bool) "a and c do not" false
    (Alias.formals_may_alias aliases "f" 0 2)

let test_alias_global_arg () =
  let _, _, _, aliases, _ =
    setup
      {|global g;
        proc main() { call f(g); }
        proc f(a) { }|}
  in
  Alcotest.(check bool) "a aliases g" true
    (Alias.formal_global_may_alias aliases "f" 0 "g")

let test_alias_transitive () =
  let _, _, _, aliases, _ =
    setup
      {|global g;
        proc main() { x = 1; call f(x, x); call h2(g); }
        proc f(a, b) { call h(a, b); }
        proc h(p, q) { }
        proc h2(r) { call h3(r); }
        proc h3(s) { }|}
  in
  Alcotest.(check bool) "aliases propagate down call chains" true
    (Alias.formals_may_alias aliases "h" 0 1);
  Alcotest.(check bool) "formal-global aliases propagate" true
    (Alias.formal_global_may_alias aliases "h3" 0 "g")

let test_alias_none_for_literals () =
  let _, _, _, aliases, _ =
    setup {|proc main() { call f(1, 2); } proc f(a, b) { }|}
  in
  Alcotest.(check bool) "no alias" false (Alias.formals_may_alias aliases "f" 0 1)

(* -- MOD/REF ----------------------------------------------------------- *)

let test_mod_direct () =
  let _, _, _, _, modref =
    setup
      {|global g;
        proc main() { x = 1; call f(x); }
        proc f(a) { a = 2; g = 3; }|}
  in
  Alcotest.(check bool) "f modifies its formal" true
    (Modref.formal_modified modref "f" 0);
  Alcotest.(check bool) "f modifies g" true
    (Modref.global_modified_in modref "f" "g");
  Alcotest.(check bool) "main modifies g transitively" true
    (Modref.global_modified_in modref "main" "g")

let test_mod_binding_through_args () =
  let _, _, _, _, modref =
    setup
      {|proc main() { call outer(1); }
        proc outer(x) { call inner(x); }
        proc inner(y) { y = 5; }|}
  in
  Alcotest.(check bool) "inner mods y" true (Modref.formal_modified modref "inner" 0);
  Alcotest.(check bool) "outer mods x via inner" true
    (Modref.formal_modified modref "outer" 0)

let test_mod_local_actual_invisible () =
  let _, _, _, _, modref =
    setup
      {|global g;
        proc main() { l = 1; call f(l); }
        proc f(a) { a = 2; }|}
  in
  (* f writes main's local; that is not a MOD of any global *)
  Alcotest.(check (list string)) "no global modified" []
    (Modref.globals_modified_anywhere modref ~main:"main")

let test_mod_alias_closure () =
  let _, _, _, _, modref =
    setup
      {|global g;
        proc main() { call f(g); }
        proc f(a) { a = 2; }|}
  in
  (* writing a, which aliases g, modifies g *)
  Alcotest.(check (list string)) "g modified through alias" [ "g" ]
    (Modref.globals_modified_anywhere modref ~main:"main")

let test_ref_closure () =
  let _, _, _, _, modref =
    setup
      {|global g;
        proc main() { call a(); }
        proc a() { call b(); }
        proc b() { print g; }|}
  in
  Alcotest.(check bool) "b refs g" true (Modref.global_referenced_in modref "b" "g");
  Alcotest.(check bool) "a refs g transitively" true
    (Modref.global_referenced_in modref "a" "g");
  Alcotest.(check bool) "main refs g transitively" true
    (Modref.global_referenced_in modref "main" "g")

let test_call_defs_oracle () =
  let _, _, _, _, modref =
    setup
      {|global g, h;
        proc main() { x = 1; call f(x); }
        proc f(a) { a = 1; g = 2; print h; }|}
  in
  let x = Fsicp_cfg.Ir.local "x" in
  let defs =
    Modref.call_defs modref ~callee:"f" ~byref_args:[| Some x |]
  in
  let names = List.map (fun (v : Fsicp_cfg.Ir.var) -> (Fsicp_cfg.Ir.Var.name v)) defs in
  Alcotest.(check (list string)) "defines x and g" [ "g"; "x" ]
    (List.sort String.compare names);
  let refs = Modref.call_global_refs modref ~callee:"f" in
  Alcotest.(check (list string)) "references h"
    [ "h" ]
    (List.map (fun (v : Fsicp_cfg.Ir.var) -> (Fsicp_cfg.Ir.Var.name v)) refs
    |> List.sort String.compare)

let test_recursive_mod () =
  let _, _, _, _, modref =
    setup
      {|global g;
        proc main() { call f(); }
        proc f() { if (c) { call f(); } g = 1; }|}
  in
  Alcotest.(check bool) "recursive MOD converges" true
    (Modref.global_modified_in modref "f" "g")

(* -- USE ---------------------------------------------------------------- *)

let test_use_flow_sensitive () =
  let p, pcg, _, _, modref =
    setup
      {|global g;
        proc main() { g = 1; call f(); }
        proc f() { print g; }|}
  in
  let lowered =
    Fsicp_prog.Prog.tbl_init pcg.Callgraph.db (fun pid ->
        Fsicp_cfg.Lower.lower_proc p (Callgraph.proc_ast pcg pid))
  in
  let use = Use.compute lowered modref pcg in
  Alcotest.(check bool) "f uses g" true (Use.global_used use "f" "g");
  (* main defines g before the call: not upward-exposed in main *)
  Alcotest.(check bool) "main kills g before use" false
    (Use.global_used use "main" "g")

let test_use_vs_ref () =
  (* REF is flow-insensitive: it keeps g for main; USE drops it. *)
  let _, _, _, _, modref =
    setup
      {|global g;
        proc main() { g = 1; call f(); }
        proc f() { print g; }|}
  in
  Alcotest.(check bool) "REF keeps g for main" true
    (Modref.global_referenced_in modref "main" "g")

(* Alias pairs need not be transitive: f's formals 0~1 come from one call
   and 1~2 from the other, and 0~2 from neither.  MOD is closed under the
   pairs as a chain all the same, as it always has been: a store to [a]
   reaches [c] through [b]. *)
let test_mod_alias_chain () =
  let _, _, _, aliases, modref =
    setup
      {|global u;
        proc main() { x = 1; y = 2; z = 3; call f(x, x, y); call f(y, z, z); }
        proc f(a, b, c) { a = 1; }|}
  in
  Alcotest.(check bool) "0 and 2 do not alias" false
    (Alias.formals_may_alias aliases "f" 0 2);
  Alcotest.(check (list int)) "MOD(f) formals" [ 0; 1; 2 ]
    (List.filter (Modref.formal_modified modref "f") [ 0; 1; 2 ])

(* -- MOD/REF against the round-robin reference ------------------------- *)

(* A random program for the MOD/REF property, as source text: up to 130
   globals (so sets span several words), procedures calling one another at
   random (recursive components of several procedures), and actuals that
   are formals, globals, literals, locals, expressions or the previous
   actual repeated. *)
let modref_source seed =
  let r = Random.State.make [| seed |] in
  let pick n = Random.State.int r n in
  let ng = [| 3; 8; 70; 130 |].(pick 4) in
  let np = 2 + pick 7 in
  let arity = Array.init np (fun _ -> pick 4) in
  let b = Buffer.create 1024 in
  let add fmt = Printf.bprintf b fmt in
  add "global %s;\n"
    (String.concat ", " (List.init ng (Printf.sprintf "g%d")));
  let global () = Printf.sprintf "g%d" (pick ng) in
  let call nf q =
    let args = ref [] in
    for _ = 1 to arity.(q) do
      let a =
        match (pick 7, !args) with
        | 0, prev :: _ -> prev
        | (0 | 1), _ when nf > 0 -> Printf.sprintf "f%d" (pick nf)
        | 2, _ -> global ()
        | 3, _ -> string_of_int (pick 9)
        | 4, _ -> "l"
        | 5, _ -> "l + 1"
        | _, _ -> global ()
      in
      args := a :: !args
    done;
    add "call p%d(%s); " q (String.concat ", " (List.rev !args))
  in
  add "proc main() { l = 1; ";
  call 0 0;
  call 0 (pick np);
  add "}\n";
  for k = 0 to np - 1 do
    let nf = arity.(k) in
    add "proc p%d(%s) { l = 1; " k
      (String.concat ", " (List.init nf (Printf.sprintf "f%d")));
    let operand () =
      match pick 4 with
      | 0 when nf > 0 -> Printf.sprintf "f%d" (pick nf)
      | 1 -> "l"
      | 2 -> string_of_int (pick 9)
      | _ -> global ()
    in
    for _ = 1 to pick 3 do
      let target =
        if nf > 0 && pick 2 = 0 then Printf.sprintf "f%d" (pick nf)
        else global ()
      in
      add "%s = %s; " target (operand ())
    done;
    for _ = 1 to pick 3 do
      (* Calls lean forward, so chains form, with every third one to
         any procedure, so cycles form too. *)
      call nf (if pick 3 = 0 then pick np else min (np - 1) (k + 1 + pick 2))
    done;
    add "print %s; }\n" (operand ())
  done;
  Buffer.contents b

(* Every query of the bitset solver equals the reference's, for every
   procedure of a random program. *)
let modref_matches_reference seed =
  let p, pcg, summaries, aliases, modref = setup (modref_source seed) in
  let reference = Modref_reference.compute summaries aliases pcg in
  let byref_args =
    Array.init 4 (fun j ->
        match j mod 3 with
        | 0 -> Some (Fsicp_cfg.Ir.local (Printf.sprintf "v%d" j))
        | 1 -> Some (Fsicp_cfg.Ir.global "g0")
        | _ -> None)
  in
  let vars_equal = List.equal Fsicp_cfg.Ir.Var.equal in
  List.for_all
    (fun (q : Ast.proc) ->
      let name = q.Ast.pname in
      Summary.VrefSet.equal (Modref.gmod_of modref name)
        (Modref_reference.gmod_of reference name)
      && Summary.VrefSet.equal (Modref.gref_of modref name)
           (Modref_reference.gref_of reference name)
      && vars_equal
           (Modref.call_defs modref ~callee:name ~byref_args)
           (Modref_reference.call_defs reference ~callee:name ~byref_args)
      && vars_equal
           (Modref.call_global_refs modref ~callee:name)
           (Modref_reference.call_global_refs reference ~callee:name))
    p.Ast.procs
  && Modref.globals_modified_anywhere modref ~main:"main"
     = Modref_reference.globals_modified_anywhere reference ~main:"main"

let prop_modref_matches_reference =
  Test_util.qcheck ~count:300
    ~name:"bitset MOD/REF = round-robin reference (sets, call defs, refs)"
    Test_util.seed_gen modref_matches_reference

(* -- USE and name resolution against their list/set references -------- *)

(* A random program for the USE and resolution properties, as source text:
   like [modref_source], but some formals take the name of a global they
   then shadow, bodies branch, loop and return, locals are read before
   they are written, and two programs in three close a ring of calls
   through [p0], so most have a recursive component. *)
let shadow_source seed =
  let r = Random.State.make [| seed |] in
  let pick n = Random.State.int r n in
  let ng = [| 3; 8; 70; 130 |].(pick 4) in
  let np = 2 + pick 7 in
  let global () = Printf.sprintf "g%d" (pick ng) in
  (* Formal [i] of each procedure: its own name, or a global's. *)
  let formals =
    Array.init np (fun _ ->
        let names = ref [] in
        for i = 0 to pick 4 - 1 do
          let g = global () in
          names :=
            (if pick 3 = 0 && not (List.mem g !names) then g
             else Printf.sprintf "f%d" i)
            :: !names
        done;
        Array.of_list (List.rev !names))
  in
  let b = Buffer.create 1024 in
  let add fmt = Printf.bprintf b fmt in
  add "global %s;\n"
    (String.concat ", " (List.init ng (Printf.sprintf "g%d")));
  let call fs q =
    let nf = Array.length fs and args = ref [] in
    for _ = 1 to Array.length formals.(q) do
      let a =
        match (pick 7, !args) with
        | 0, prev :: _ -> prev
        | (0 | 1), _ when nf > 0 -> fs.(pick nf)
        | 2, _ -> string_of_int (pick 9)
        | 3, _ -> "l"
        | 4, _ -> "l + 1"
        | _, _ -> global ()
      in
      args := a :: !args
    done;
    add "call p%d(%s); " q (String.concat ", " (List.rev !args))
  in
  let body fs k =
    let nf = Array.length fs in
    let var () =
      match pick 4 with
      | 0 when nf > 0 -> fs.(pick nf)
      | 1 -> "l"
      | _ -> global ()
    in
    let operand () = if pick 4 = 0 then string_of_int (pick 9) else var () in
    let rec stmts depth =
      for _ = 1 to 1 + pick 3 do
        match pick (if depth > 1 then 4 else 7) with
        | 0 | 1 -> add "%s = %s + %s; " (var ()) (operand ()) (operand ())
        | 2 -> add "print %s; " (operand ())
        | 3 ->
            (* Calls lean forward, so chains form, with every third one
               to any procedure, so cycles form too. *)
            call fs
              (if pick 3 = 0 then pick np else min (np - 1) (k + 1 + pick 2))
        | 4 ->
            add "if (%s > 3) { " (operand ());
            stmts (depth + 1);
            add "} else { ";
            stmts (depth + 1);
            add "} "
        | 5 ->
            add "while (%s < 2) { " (var ());
            stmts (depth + 1);
            add "} "
        | _ -> add "if (%s == 1) { return; } " (operand ())
      done
    in
    stmts 0
  in
  add "proc main() { ";
  body [||] (-1);
  call [||] 0;
  add "}\n";
  Array.iteri
    (fun k fs ->
      add "proc p%d(%s) { " k (String.concat ", " (Array.to_list fs));
      body fs k;
      (* Close a ring through p0 in two programs of three. *)
      if pick 3 > 0 then call fs ((k + 1) mod np);
      add "}\n")
    formals;
  Buffer.contents b

(* USE over MOD/REF's bitsets equals the [VarSet] reference, for every
   reachable procedure. *)
let use_matches_reference seed =
  let p, pcg, _, _, modref = setup (shadow_source seed) in
  let lowered = Fsicp_core.Context.lower_all ~jobs:1 p pcg in
  let use = Use.compute lowered modref pcg in
  let reference = Use_reference.compute lowered modref pcg in
  Array.for_all
    (fun pid ->
      let name = Callgraph.proc_name pcg pid in
      Summary.VrefSet.equal (Use.get use name)
        (Use_reference.get reference name))
    pcg.Callgraph.nodes

let prop_use_matches_reference =
  Test_util.qcheck ~count:300 ~name:"bitset USE = VarSet reference"
    Test_util.seed_gen use_matches_reference

(* The list scan the program's scope replaced: the first formal named [x],
   else a global, else a local. *)
let classify ~globals ~formals x : Sema.var_class =
  let rec find_formal i = function
    | [] -> None
    | f :: _ when String.equal f x -> Some i
    | _ :: tl -> find_formal (i + 1) tl
  in
  match find_formal 0 formals with
  | Some i -> Sema.Formal i
  | None -> if List.mem x globals then Sema.Global else Sema.Local

(* Every name a procedure mentions, every formal and global, and a name
   nothing declares resolve alike under the scope and the list scan. *)
let scope_matches_classify seed =
  let p = Test_util.parse (shadow_source seed) in
  let scope = Sema.scope p in
  List.for_all
    (fun (q : Ast.proc) ->
      let formals = q.Ast.formals in
      List.for_all
        (fun x ->
          Sema.resolve scope ~formals x
          = classify ~globals:p.Ast.globals ~formals x)
        (("undeclared" :: Ast.mentioned_vars q) @ formals @ p.Ast.globals))
    p.Ast.procs

let prop_scope_matches_classify =
  Test_util.qcheck ~count:300 ~name:"scope resolver = list-scan classify"
    Test_util.seed_gen scope_matches_classify

let suite =
  [
    Alcotest.test_case "summary IMOD/IREF" `Quick test_summary_imod_iref;
    Alcotest.test_case "summary argument shapes" `Quick test_summary_arg_shapes;
    Alcotest.test_case "summary formal args" `Quick test_summary_formal_args;
    Alcotest.test_case "alias: same var twice" `Quick test_alias_same_var_twice;
    Alcotest.test_case "alias: global actual" `Quick test_alias_global_arg;
    Alcotest.test_case "alias: transitive" `Quick test_alias_transitive;
    Alcotest.test_case "alias: none for literals" `Quick
      test_alias_none_for_literals;
    Alcotest.test_case "MOD: direct" `Quick test_mod_direct;
    Alcotest.test_case "MOD: binding through args" `Quick
      test_mod_binding_through_args;
    Alcotest.test_case "MOD: locals invisible" `Quick
      test_mod_local_actual_invisible;
    Alcotest.test_case "MOD: alias closure" `Quick test_mod_alias_closure;
    Alcotest.test_case "REF: transitive closure" `Quick test_ref_closure;
    Alcotest.test_case "call-defs oracle" `Quick test_call_defs_oracle;
    Alcotest.test_case "MOD: recursion converges" `Quick test_recursive_mod;
    Alcotest.test_case "USE: flow-sensitive" `Quick test_use_flow_sensitive;
    Alcotest.test_case "USE vs REF" `Quick test_use_vs_ref;
    Alcotest.test_case "MOD: alias chain" `Quick test_mod_alias_chain;
    prop_modref_matches_reference;
    prop_use_matches_reference;
    prop_scope_matches_classify;
  ]
