(** Tests for SSA construction: structural invariants, phi placement, alias
    kills, exit names, and the [Ssa.validate] checker on generated
    programs. *)

open Fsicp_lang
open Fsicp_cfg
open Fsicp_ssa

let ssa_of ?effects src name =
  let p = Test_util.parse src in
  Ssa.of_proc ?effects p (Lower.lower_proc p (Ast.find_proc_exn p name))

let test_straight_line_versions () =
  let s = ssa_of "proc main() { x = 1; x = 2; print x; }" "main" in
  (* x has versions 0 (entry), 1, 2; the print uses version 2 *)
  let print_use = ref None in
  Array.iter
    (fun (b : Ssa.block) ->
      Array.iter
        (function
          | Ssa.Print (Ssa.Oname n) -> print_use := Some n
          | _ -> ())
        b.Ssa.instrs)
    s.Ssa.blocks;
  match !print_use with
  | Some n ->
      Alcotest.(check string) "prints x" "x" (Ir.Var.name n.Ssa.base);
      Alcotest.(check int) "uses latest version" 2 n.Ssa.ver
  | None -> Alcotest.fail "no print found"

let test_phi_at_join () =
  let s =
    ssa_of "proc main() { if (c) { x = 1; } else { x = 2; } print x; }" "main"
  in
  let phis = ref [] in
  Array.iteri
    (fun b (blk : Ssa.block) ->
      Array.iter
        (fun (ph : Ssa.phi) -> phis := (b, ph) :: !phis)
        blk.Ssa.phis)
    s.Ssa.blocks;
  let x_phis =
    List.filter (fun (_, ph) -> (Ir.Var.name ph.Ssa.p_name.Ssa.base) = "x") !phis
  in
  Alcotest.(check int) "exactly one phi for x" 1 (List.length x_phis);
  let _, ph = List.hd x_phis in
  Alcotest.(check int) "phi has two operands" 2 (Array.length ph.Ssa.p_args)

let test_no_phi_when_single_def () =
  let s = ssa_of "proc main() { x = 1; if (c) { y = 2; } print x; }" "main" in
  Array.iter
    (fun (blk : Ssa.block) ->
      Array.iter
        (fun (ph : Ssa.phi) ->
          if (Ir.Var.name ph.Ssa.p_name.Ssa.base) = "x" then
            Alcotest.fail "x has a single def; no phi expected")
        blk.Ssa.phis)
    s.Ssa.blocks

let test_loop_phi () =
  let s =
    ssa_of "proc main() { i = 0; while (i < 3) { i = i + 1; } print i; }"
      "main"
  in
  let i_phis = ref 0 in
  Array.iter
    (fun (blk : Ssa.block) ->
      Array.iter
        (fun (ph : Ssa.phi) ->
          if (Ir.Var.name ph.Ssa.p_name.Ssa.base) = "i" then incr i_phis)
        blk.Ssa.phis)
    s.Ssa.blocks;
  Alcotest.(check bool) "loop variable needs a phi" true (!i_phis >= 1)

let test_call_defines_byref () =
  let s =
    ssa_of
      {|proc main() { x = 1; call f(x); print x; }
        proc f(a) { a = 2; }|}
      "main"
  in
  (* The conservative oracle makes the call define x; the print must use the
     post-call version, not version 1. *)
  let call_def_ver = ref (-1) and print_ver = ref (-1) in
  Array.iter
    (fun (blk : Ssa.block) ->
      Array.iter
        (function
          | Ssa.Call c ->
              Array.iter
                (fun ((v : Ir.var), (n : Ssa.name)) ->
                  if (Ir.Var.name v) = "x" then call_def_ver := n.Ssa.ver)
                c.Ssa.c_defs
          | Ssa.Print (Ssa.Oname n) ->
              if (Ir.Var.name n.Ssa.base) = "x" then print_ver := n.Ssa.ver
          | _ -> ())
        blk.Ssa.instrs)
    s.Ssa.blocks;
  Alcotest.(check bool) "call defines x" true (!call_def_ver > 0);
  Alcotest.(check int) "print uses post-call version" !call_def_ver !print_ver

let test_alias_kill_emitted () =
  let p =
    Test_util.parse
      {|proc main() { x = 1; call f(x, x); }
        proc f(a, b) { a = 9; print b; }|}
  in
  let ctx = Fsicp_core.Context.create p in
  let s = Fsicp_core.Context.ssa ctx "f" in
  (* assigning a must kill b (they may alias) *)
  let kills = ref [] in
  Array.iter
    (fun (blk : Ssa.block) ->
      Array.iter
        (function
          | Ssa.Kill ks ->
              Array.iter (fun ((v : Ir.var), _) -> kills := (Ir.Var.name v) :: !kills) ks
          | _ -> ())
        blk.Ssa.instrs)
    s.Ssa.blocks;
  Alcotest.(check bool) "b killed by store to a" true (List.mem "b" !kills)

let test_global_uses_recorded () =
  let p =
    Test_util.parse
      {|global g;
        proc main() { g = 5; call f(); }
        proc f() { print g; }|}
  in
  let ctx = Fsicp_core.Context.create p in
  let s = Fsicp_core.Context.ssa ctx "main" in
  let recorded = ref [] in
  List.iter
    (fun (_, _, (c : Ssa.call)) ->
      Array.iter
        (fun ((v : Ir.var), _) -> recorded := (Ir.Var.name v) :: !recorded)
        c.Ssa.c_global_uses)
    (Ssa.call_sites s);
  Alcotest.(check bool) "g recorded at call to f" true (List.mem "g" !recorded)

let test_exit_names_present () =
  let s =
    ssa_of
      {|global g;
        proc main() { call f(1); }
        proc f(a) { a = 3; g = 4; }|}
      "f"
  in
  Alcotest.(check bool) "at least one return record" true
    (Array.length s.Ssa.exit_ids > 0);
  let _, ids = s.Ssa.exit_ids.(0) in
  (* The return must see the assignment's version, not the entry one. *)
  let check what v =
    let slot = Ssa.slot_of s v in
    if slot < 0 then Alcotest.failf "%s missing from the universe" what;
    let _, entry = s.Ssa.entry_names.(slot) in
    Alcotest.(check bool) (what ^ " recorded") true (ids.(slot) >= 0);
    Alcotest.(check bool)
      (what ^ "'s exit name is not its entry name")
      true
      (ids.(slot) <> entry.Ssa.id)
  in
  check "a" (Ir.formal "a" 0);
  check "g" (Ir.global "g")

let test_def_use_chains () =
  let s = ssa_of "proc main() { x = 1; y = x + x; print y; }" "main" in
  (* version 1 of x is used twice, both in the same instr *)
  Array.iter
    (fun (blk : Ssa.block) ->
      Array.iter
        (function
          | Ssa.Assign (n, _) when (Ir.Var.name n.Ssa.base) = "x" ->
              Alcotest.(check int) "x.1 has two uses (one site each)" 2
                (List.length (Ssa.uses_of s n.Ssa.id))
          | _ -> ())
        blk.Ssa.instrs)
    s.Ssa.blocks

(* Each branch reads [x] before assigning it, so the reads must see the
   entry version; [Ssa.validate] accepts that, and rejects the SSA once
   the else branch's last print is pointed at the then branch's [x]. *)
let test_validate_dominance () =
  let s =
    ssa_of
      "proc main() { if (c) { print x; x = 1; print x; } else { print x; x = \
       2; print x; } }"
      "main"
  in
  Alcotest.(check bool) "valid as built" true (Ssa.validate s = Ok ());
  let assigns = ref [] in
  Array.iteri
    (fun b (blk : Ssa.block) ->
      Array.iteri
        (fun i -> function
          | Ssa.Assign (n, _) when Ir.Var.name n.Ssa.base = "x" ->
              assigns := (b, i, n) :: !assigns
          | _ -> ())
        blk.Ssa.instrs)
    s.Ssa.blocks;
  match List.rev !assigns with
  | [ (_, _, x_then); (b, i, _) ] ->
      let blocks = Array.copy s.Ssa.blocks in
      let instrs = Array.copy blocks.(b).Ssa.instrs in
      instrs.(i + 1) <- Ssa.Print (Ssa.Oname x_then);
      blocks.(b) <- { (blocks.(b)) with Ssa.instrs };
      Alcotest.(check bool) "use in the sibling branch rejected" true
        (Result.is_error (Ssa.validate { s with Ssa.blocks }))
  | _ -> Alcotest.fail "expected one assignment of x per branch"

let validate_program seed =
  let p = Test_util.program_of_seed seed in
  let ctx = Fsicp_core.Context.create p in
  let pcg = ctx.Fsicp_core.Context.pcg in
  Array.iter
    (fun pid ->
      let s = Fsicp_core.Context.ssa_at ctx pid in
      match Ssa.validate s with
      | Ok () -> ()
      | Error msg ->
          Alcotest.failf "%s: %s"
            (Fsicp_callgraph.Callgraph.proc_name pcg pid)
            msg)
    pcg.Fsicp_callgraph.Callgraph.nodes

let prop_validate =
  Test_util.qcheck ~count:50 ~name:"SSA invariants on generated programs"
    Test_util.seed_gen
    (fun seed ->
      validate_program seed;
      true)

(* Every name id below [n_names] is defined exactly once (entry name, φ or
   instruction), and the CSR def-use arrays line up with [n_names]. *)
let prop_defs_total =
  Test_util.qcheck ~count:30 ~name:"every name has a def site"
    Test_util.seed_gen
    (fun seed ->
      let p = Test_util.program_of_seed seed in
      let ctx = Fsicp_core.Context.create p in
      Array.for_all
        (fun pid ->
          let s = Fsicp_core.Context.ssa_at ctx pid in
          let count = Array.make s.Ssa.n_names 0 in
          let def (n : Ssa.name) = count.(n.Ssa.id) <- count.(n.Ssa.id) + 1 in
          Array.iter (fun (_, n) -> def n) s.Ssa.entry_names;
          Array.iter
            (fun (blk : Ssa.block) ->
              Array.iter (fun (ph : Ssa.phi) -> def ph.Ssa.p_name) blk.Ssa.phis;
              Array.iter
                (function
                  | Ssa.Assign (n, _) -> def n
                  | Ssa.Kill ks -> Array.iter (fun (_, n) -> def n) ks
                  | Ssa.Call c -> Array.iter (fun (_, n) -> def n) c.Ssa.c_defs
                  | Ssa.Print _ -> ())
                blk.Ssa.instrs)
            s.Ssa.blocks;
          Array.for_all (( = ) 1) count
          && Array.length s.Ssa.use_offsets = s.Ssa.n_names + 1
          && Array.length s.Ssa.use_sites >= s.Ssa.use_offsets.(s.Ssa.n_names))
        ctx.Fsicp_core.Context.pcg.Fsicp_callgraph.Callgraph.nodes)

(* φ placement against references built on {!Dataflow_reference}
   liveness and {!Dominance.frontiers}, in both directions: every φ of
   pruned SSA (a variable's iterated dominance frontier, where the
   variable is live-in) is placed, and every placed φ lies in that
   frontier and has a non-local base (a formal, a global, or a variable
   some block reads before it defines it).  Returns the first violation. *)
let placement_error ctx pid : string option =
  let module Dataflow = Dataflow_reference in
  let module VS = Ir.VarSet in
  let p = Option.get (Fsicp_prog.Prog.Proc.Tbl.get ctx.Fsicp_core.Context.lowered pid) in
  let effects = Fsicp_core.Context.effects_for ctx pid in
  let s = Fsicp_core.Context.ssa_at ctx pid in
  let cfg = p.Ir.cfg in
  let nblocks = Array.length cfg.Ir.blocks in
  let uses ins =
    Dataflow.instr_uses
      ~call_uses:(fun callee -> effects.Ssa.globals_used_by ~callee)
      ins
  in
  let defs ins =
    match ins with
    | Ir.Assign (v, _) -> Dataflow.instr_defs ins @ effects.Ssa.assign_aliases v
    | Ir.Call { args; _ } ->
        Dataflow.instr_defs
          ~call_defs:(fun ~callee ~byrefs:_ ->
            effects.Ssa.defs_of_call ~callee ~byref_args:(Ssa.byref_array args))
          ins
    | Ir.Print _ -> []
  in
  let cond_use (blk : Ir.block) =
    match blk.Ir.term with
    | Ir.Cond (Ir.Var v, _, _) -> [ v ]
    | Ir.Cond (Ir.Const _, _, _) | Ir.Goto _ | Ir.Ret -> []
  in
  (* Returns read every formal and global. *)
  let exit_live =
    Array.fold_left
      (fun acc (v : Ir.var) ->
        match v.Ir.vkind with
        | Ir.Formal _ | Ir.Global -> VS.add v acc
        | Ir.Local | Ir.Temp -> acc)
      VS.empty s.Ssa.vars
  in
  let live_in =
    (Dataflow.VarSets.solve ~direction:Dataflow.Backward ~init:exit_live
       ~transfer:(fun b live_out ->
         let blk = cfg.Ir.blocks.(b) in
         let live = ref (List.fold_right VS.add (cond_use blk) live_out) in
         for i = Array.length blk.Ir.instrs - 1 downto 0 do
           let ins = blk.Ir.instrs.(i) in
           live := List.fold_right VS.remove (defs ins) !live;
           live := List.fold_right VS.add (uses ins) !live
         done;
         !live)
       cfg)
      .Dataflow.VarSets.block_in
  in
  let nonlocal = ref exit_live in
  let def_blocks = Hashtbl.create 16 in
  Array.iteri
    (fun b (blk : Ir.block) ->
      let defined = ref VS.empty in
      let read v = if not (VS.mem v !defined) then nonlocal := VS.add v !nonlocal in
      Array.iter
        (fun ins ->
          List.iter read (uses ins);
          List.iter
            (fun v ->
              defined := VS.add v !defined;
              Hashtbl.add def_blocks v b)
            (defs ins))
        blk.Ir.instrs;
      List.iter read (cond_use blk))
    cfg.Ir.blocks;
  let df = Dominance.frontiers cfg s.Ssa.dom in
  let idf v =
    let inside = Array.make nblocks false and seen = Array.make nblocks false in
    let rec go b =
      if not seen.(b) then begin
        seen.(b) <- true;
        List.iter
          (fun y ->
            inside.(y) <- true;
            go y)
          df.(b)
      end
    in
    go cfg.Ir.entry;
    List.iter go (Hashtbl.find_all def_blocks v);
    inside
  in
  let placed b v =
    Array.exists
      (fun (ph : Ssa.phi) -> Ir.Var.equal ph.Ssa.p_name.Ssa.base v)
      s.Ssa.blocks.(b).Ssa.phis
  in
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  Array.iter
    (fun v ->
      let f = idf v in
      for b = 0 to nblocks - 1 do
        let name = Ir.Var.name v in
        if f.(b) && VS.mem v live_in.(b) && not (placed b v) then
          fail "%s: pruned φ for %s at B%d missing" s.Ssa.name name b;
        if placed b v && not f.(b) then
          fail "%s: φ for %s at B%d outside its frontier" s.Ssa.name name b;
        if placed b v && not (VS.mem v !nonlocal) then
          fail "%s: φ for local %s at B%d" s.Ssa.name name b
      done)
    s.Ssa.vars;
  match List.rev !errors with [] -> None | e :: _ -> Some e

let check_placement prog =
  let ctx = Fsicp_core.Context.create ~jobs:1 prog in
  Array.iter
    (fun pid ->
      match placement_error ctx pid with
      | None -> ()
      | Some msg -> Alcotest.fail msg)
    ctx.Fsicp_core.Context.pcg.Fsicp_callgraph.Callgraph.nodes

(* The program with every branch condition first stored into one local,
   [bare_k], which loops also set again at the end of their body: blocks
   then read a local only as their branch condition.  Generated programs
   branch on comparisons alone, and those lower to a temporary defined in
   the branching block. *)
let bare_conditions (prog : Ast.program) : Ast.program =
  let set e = { Ast.sdesc = Ast.Assign ("bare_k", e); spos = Ast.no_pos } in
  let k = Ast.Var "bare_k" in
  let rec stmts l = List.concat_map stmt l
  and stmt (s : Ast.stmt) =
    match s.Ast.sdesc with
    | Ast.If (c, t, f) ->
        [ set c; { s with Ast.sdesc = Ast.If (k, stmts t, stmts f) } ]
    | Ast.While (c, body) ->
        [ set c; { s with Ast.sdesc = Ast.While (k, stmts body @ [ set c ]) } ]
    | Ast.Assign _ | Ast.Call _ | Ast.Return | Ast.Print _ -> [ s ]
  in
  {
    prog with
    Ast.procs =
      List.map (fun (p : Ast.proc) -> { p with Ast.body = stmts p.Ast.body })
        prog.Ast.procs;
  }

let check_both prog =
  check_placement prog;
  check_placement (bare_conditions prog)

let prop_placement =
  Test_util.qcheck ~count:300
    ~name:"φ placement on generated programs: pruned ⊆ placed ⊆ non-local"
    Test_util.seed_gen
    (fun seed ->
      check_both (Test_util.program_of_seed seed);
      true)

let test_placement_suite () =
  let module Spec = Fsicp_workloads.Spec in
  List.iter (fun b -> check_both (Spec.program b)) (Spec.suite @ Spec.addendum)

let suite =
  [
    Alcotest.test_case "straight-line versions" `Quick
      test_straight_line_versions;
    Alcotest.test_case "phi at join" `Quick test_phi_at_join;
    Alcotest.test_case "no phi for single def" `Quick test_no_phi_when_single_def;
    Alcotest.test_case "loop phi" `Quick test_loop_phi;
    Alcotest.test_case "call defines by-ref actuals" `Quick
      test_call_defines_byref;
    Alcotest.test_case "alias kill emitted" `Quick test_alias_kill_emitted;
    Alcotest.test_case "global uses recorded at calls" `Quick
      test_global_uses_recorded;
    Alcotest.test_case "exit names at returns" `Quick test_exit_names_present;
    Alcotest.test_case "def-use chains" `Quick test_def_use_chains;
    Alcotest.test_case "validate: definitions dominate uses" `Quick
      test_validate_dominance;
    prop_validate;
    prop_placement;
    Alcotest.test_case "φ placement on the suite: pruned ⊆ placed ⊆ non-local"
      `Quick
      test_placement_suite;
    prop_defs_total;
  ]
