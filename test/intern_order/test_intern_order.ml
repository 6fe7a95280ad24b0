(** Regression: [Solution.digest] and [Oracle.ssa_digest] must not depend
    on the order in which the process interned variable names
    ([Prog.Var]).

    Interning is process-global and one-shot, so each order needs a fresh
    process.  The parent forks one child per order — nothing interned
    first, every name of the programs in reverse, and the same names in a
    seeded shuffle — before it does anything else (OCaml 5 refuses
    [Unix.fork] once a domain was spawned).  Each child solves every
    program with the FI, FS, CC and VC methods at [jobs] 1 and 4 and
    reports one MD5 per solution digest, and the SSA digest of the
    context, over a pipe; all three children must report the same
    digests.

    Programs: the calibrated suite, DISPATCH, and [testdata/*.mf]. *)

open Fsicp_lang
open Fsicp_core
module Spec = Fsicp_workloads.Spec
module Var = Fsicp_prog.Prog.Var

(* dune runs the test from the build directory mirror; walk up to the
   source tree, which holds [testdata/]. *)
let rec testdata dir =
  let d = Filename.concat dir "testdata" in
  if Sys.file_exists d then d
  else
    let parent = Filename.dirname dir in
    if parent = dir then failwith "testdata directory not found"
    else testdata parent

let programs dir =
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mf")
    |> List.sort String.compare
  in
  List.map
    (fun b -> (b.Spec.b_name, Spec.program b))
    (Spec.suite @ Spec.addendum)
  @ List.map
      (fun f ->
        let src =
          In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all
        in
        (f, Parser.program_of_string src))
      files

(* Every name lowering can intern, in first-occurrence order: globals,
   then per procedure its formals and body variables, then the
   temporaries [$t0 .. $tK] with [K] bounded by the largest body. *)
let names progs =
  let seen = Hashtbl.create 1024 and acc = ref [] in
  let note x =
    if not (Hashtbl.mem seen x) then begin
      Hashtbl.add seen x ();
      acc := x :: !acc
    end
  in
  let temps = ref 0 in
  List.iter
    (fun (_, (p : Ast.program)) ->
      List.iter note p.Ast.globals;
      List.iter
        (fun (proc : Ast.proc) ->
          List.iter note proc.Ast.formals;
          List.iter note (Ast.mentioned_vars proc);
          let size = ref 0 in
          Ast.iter_stmts (fun _ -> incr size) proc.Ast.body;
          Ast.iter_exprs
            (fun e ->
              let rec nodes = function
                | Ast.Const _ | Ast.Var _ -> 1
                | Ast.Unary (_, e) -> 1 + nodes e
                | Ast.Binary (_, l, r) -> 1 + nodes l + nodes r
              in
              size := !size + nodes e)
            proc.Ast.body;
          temps := max !temps !size)
        p.Ast.procs)
    progs;
  List.rev !acc @ List.init (!temps + 1) (Printf.sprintf "$t%d")

let shuffle seed l =
  let a = Array.of_list l in
  let st = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* One line per program and method, and one for its SSA: the MD5s of its
   digests at [jobs] 1 and 4. *)
let digests progs =
  let b = Buffer.create 4096 in
  let solve prog jobs =
    let ctx = Context.create ~jobs prog in
    let fi = Fi_icp.solve ctx in
    List.map
      (fun sol -> Digest.to_hex (Digest.string (Solution.digest sol)))
      [
        fi;
        Fs_icp.solve ~jobs ~fi ctx;
        Cc_icp.solve ~jobs ctx;
        Vc_icp.solve ~jobs ctx;
      ]
    @ [ Fsicp_oracle.Oracle.ssa_digest ctx ]
  in
  List.iter
    (fun (name, prog) ->
      List.iter2
        (fun m (d1, d4) -> Printf.bprintf b "%s %s %s %s\n" name m d1 d4)
        [ "fi"; "fs"; "cc"; "vc"; "ssa" ]
        (List.combine (solve prog 1) (solve prog 4)))
    progs;
  Buffer.contents b

(* Run [f] in a forked child; the string it returns comes back over a
   pipe. *)
let in_child f =
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let code =
        match f () with
        | s ->
            let oc = Unix.out_channel_of_descr wr in
            output_string oc s;
            flush oc;
            0
        | exception e ->
            prerr_endline (Printexc.to_string e);
            2
      in
      Unix._exit code
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let out = In_channel.input_all ic in
      close_in ic;
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ ->
          prerr_endline "intern-order child failed";
          exit 1);
      out

let () =
  let progs = programs (testdata (Sys.getcwd ())) in
  let all = names progs in
  let run label order =
    ( label,
      in_child (fun () ->
          List.iter (fun x -> ignore (Var.intern x : Var.id)) order;
          digests progs) )
  in
  let runs =
    [
      run "nothing interned first" [];
      run "reverse order" (List.rev all);
      run "seeded shuffle" (shuffle 20 all);
    ]
  in
  let _, base = List.hd runs in
  let lines s = List.filter (( <> ) "") (String.split_on_char '\n' s) in
  let failed = ref false in
  let fail fmt =
    failed := true;
    Printf.printf fmt
  in
  List.iter
    (fun (label, out) ->
      if List.length (lines out) <> List.length (lines base) then
        fail "%s: %d digest lines, expected %d\n" label
          (List.length (lines out)) (List.length (lines base))
      else
        List.iter2
          (fun want got ->
            if want <> got then fail "%s: %s\n  expected %s\n" label got want)
          (lines base) (lines out);
      List.iter
        (fun l ->
          match String.split_on_char ' ' l with
          | [ _; _; d1; d4 ] when d1 <> d4 ->
              fail "%s: jobs 1 and 4 differ: %s\n" label l
          | _ -> ())
        (lines out))
    runs;
  if !failed then exit 1;
  Printf.printf
    "%d programs x 4 methods and SSA: digests equal across three intern \
     orders and jobs 1/4: OK\n"
    (List.length (lines base) / 5)
