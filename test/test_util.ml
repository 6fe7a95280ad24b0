(** Shared helpers for the test suites: program constructors, random program
    generation for property tests, and the interpreter-backed soundness
    oracle that every constant propagation method is checked against. *)

open Fsicp_lang
open Fsicp_core
open Fsicp_workloads

let parse src =
  let p = Parser.program_of_string src in
  Sema.check_exn p;
  p

(** The source tree's root.  dune runs the tests from the build mirror, so
    walk up from the working directory to the first directory holding
    [dune-project], [testdata/] and [test/golden/] together: a [testdata/]
    copied into the build mirror alone does not capture the search. *)
let source_root =
  let marks = [ "dune-project"; "testdata"; Filename.concat "test" "golden" ] in
  let rec find dir =
    if
      List.for_all (fun m -> Sys.file_exists (Filename.concat dir m)) marks
    then dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then failwith "source root not found" else find parent
  in
  find (Sys.getcwd ())

(** The shape-changing edit the serve benchmark sends: a [g = g;] store at
    the head of the first non-main procedure, for the first global outside
    its immediate MOD that no formal shadows. *)
let toggle_edit (prog : Ast.program) : Ast.proc =
  let store g = { Ast.sdesc = Ast.Assign (g, Ast.Var g); spos = Ast.no_pos } in
  let widen (p : Ast.proc) =
    let assigned = Ast.assigned_vars p in
    List.find_opt
      (fun g -> not (List.mem g assigned || List.mem g p.Ast.formals))
      prog.Ast.globals
  in
  List.find_map
    (fun (p : Ast.proc) ->
      match widen p with
      | Some g when p.Ast.pname <> "main" ->
          Some { p with Ast.body = store g :: p.Ast.body }
      | Some _ | None -> None)
    prog.Ast.procs
  |> Option.get

(** [p] with every integer literal one higher: same statements and calls,
    so the edit keeps the program's shape. *)
let bump_literals (p : Ast.proc) : Ast.proc =
  let rec expr = function
    | Ast.Const (Value.Int n) -> Ast.Const (Value.Int (n + 1))
    | (Ast.Const _ | Ast.Var _) as e -> e
    | Ast.Unary (o, e) -> Ast.Unary (o, expr e)
    | Ast.Binary (o, l, r) -> Ast.Binary (o, expr l, expr r)
  in
  let rec stmt (s : Ast.stmt) =
    let sdesc =
      match s.Ast.sdesc with
      | Ast.Assign (x, e) -> Ast.Assign (x, expr e)
      | Ast.If (c, t, f) -> Ast.If (expr c, List.map stmt t, List.map stmt f)
      | Ast.While (c, b) -> Ast.While (expr c, List.map stmt b)
      | Ast.Call (q, args) -> Ast.Call (q, List.map expr args)
      | Ast.Print e -> Ast.Print (expr e)
      | Ast.Return -> Ast.Return
    in
    { s with Ast.sdesc }
  in
  { p with Ast.body = List.map stmt p.Ast.body }

(** Random well-formed programs for property tests: a seed selects a
    generator profile with every mechanism enabled (including guarded
    recursion for one seed in three). *)
let program_of_seed seed : Ast.program =
  Generator.generate (Generator.small_profile seed)

let seed_gen = QCheck2.Gen.int_range 0 100_000

let qcheck ?(count = 50) ~name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* The soundness oracle                                                *)
(* ------------------------------------------------------------------ *)

(* The single shared definitions live in {!Fsicp_oracle.Oracle}; the test
   suites re-export them under their historical names. *)

let check_solution_sound (prog : Ast.program) (sol : Solution.t) :
    (unit, string) result =
  Fsicp_oracle.Oracle.check_solution_sound prog sol

let assert_sound name prog sol =
  match check_solution_sound prog sol with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: unsound: %s" name msg

(** Partial order on solutions, formals {e and} globals (in this lattice
    smaller means less precise — [Const ⊒ Bot]).  Used for the
    method-hierarchy properties. *)
let solution_le = Fsicp_oracle.Oracle.solution_le

let reachable_procs = Fsicp_oracle.Oracle.reachable_procs

(* Common Alcotest testables *)
let value_testable =
  Alcotest.testable Value.pp Value.equal

let lattice_testable =
  Alcotest.testable Fsicp_scc.Lattice.pp Fsicp_scc.Lattice.equal
