(** The result of an interprocedural constant propagation method.

    All methods (flow-insensitive, flow-sensitive, the jump-function
    baselines, the reference iterative solver) produce the same shape, which
    the metrics ({!Metrics}), the transformation ({!Transform}) and the
    tests consume uniformly:

    - per reachable procedure, the lattice value of every formal at entry
      (Table 2's "interprocedural propagated constants");
    - per reachable procedure, the lattice value at entry of the globals the
      procedure may reference;
    - per call site, the value of every argument and relevant global at the
      site as established by the method (Table 1's "call site constant
      candidates").

    Per-procedure state is dense: {!Prog.Proc.Tbl} arrays indexed by the
    program database's procedure ids, and a per-caller [cs_index]-indexed
    call-record index.  Names are recovered from the database only in the
    user-facing accessors ({!constant_formals}, {!pp}, ...). *)

open Fsicp_prog
open Fsicp_scc

type callsite_record = {
  cr_caller : Prog.Proc.id;
  cr_cs_index : int;  (** textual call-site index within the caller *)
  cr_callee : Prog.Proc.id;
  cr_executable : bool;
      (** could the method prove the site unreachable?  Flow-insensitive
          methods always say [true]; the flow-sensitive method marks sites
          in SCC-dead blocks [false], and such sites propagate nothing *)
  cr_args : Lattice.t array;  (** value of each argument at the site *)
  cr_globals : (Prog.Var.id * Lattice.t) list;
      (** value at the site of each global in the callee's REF closure,
          keyed by interned variable id *)
}

type proc_entry = {
  pe_formals : Lattice.t array;
  pe_globals : (Prog.Var.id * Lattice.t) list;
      (** entry value of each global the procedure may reference, keyed by
          interned variable id and sorted by it; globals not listed are
          unknown (bottom) *)
}

type t = {
  method_name : string;
  db : Prog.t;
  entries : proc_entry Prog.Proc.Tbl.t;  (** per reachable procedure *)
  records : callsite_record list Prog.Proc.Tbl.t;
      (** the call records of each caller, in the order the method
          recorded them; {!call_records} is their concatenation in caller
          id order *)
  call_index : callsite_record option array Prog.Proc.Tbl.t;
      (** the same records, by caller id and [cs_index], so
          {!find_call_record} is an array load *)
  scc_runs : int;
      (** number of flow-sensitive intraprocedural analyses performed — the
          paper's headline is that the FS method needs exactly one per
          procedure *)
  scc_results : Scc.result option Prog.Proc.Tbl.t;
      (** the per-procedure SCC runs, when the method performs them ([None]
          everywhere for flow-insensitive methods) *)
}

(** Assemble a solution from a caller-major record list (ascending caller
    id, as every method records them), splitting it by caller and indexing
    it by (caller, cs_index) in the same pass.  When duplicates exist the
    first record wins the index, matching the former linear scan. *)
let make ~method_name ~db ~entries ~call_records ~scc_runs ~scc_results : t =
  (* Row sizes: the maximum cs_index per caller among the records. *)
  let n = Prog.n_procs db in
  let width = Array.make n 0 in
  List.iter
    (fun cr ->
      let c = (cr.cr_caller :> int) in
      width.(c) <- max width.(c) (cr.cr_cs_index + 1))
    call_records;
  let call_index = Prog.tbl_init db (fun pid -> Array.make width.((pid :> int)) None) in
  let records = Prog.tbl db [] in
  List.iter
    (fun cr ->
      let row = Prog.Proc.Tbl.get call_index cr.cr_caller in
      if row.(cr.cr_cs_index) = None then row.(cr.cr_cs_index) <- Some cr;
      Prog.Proc.Tbl.set records cr.cr_caller
        (cr :: Prog.Proc.Tbl.get records cr.cr_caller))
    call_records;
  { method_name; db; entries; records = Prog.Proc.Tbl.map List.rev records;
    call_index; scc_runs; scc_results }

(** Assemble a solution whose per-caller records and call index the solver
    already built: row [p] of [call_index] must hold exactly [records]'
    records of caller [p] at their [cs_index] (rows may be wider than the
    largest index).  The FI and FS solvers fill the rows while they run,
    and their incremental updates share every unchanged row with the
    previous solution instead of re-indexing every record. *)
let of_index ~method_name ~db ~entries ~records ~call_index ~scc_runs
    ~scc_results : t =
  { method_name; db; entries; records; call_index; scc_runs; scc_results }

(** Every call record, callers in ascending id order. *)
let call_records t : callsite_record list =
  Prog.Proc.Tbl.fold (fun _ rs acc -> List.rev_append rs acc) t.records []
  |> List.rev

let empty_entry = { pe_formals = [||]; pe_globals = [] }
let proc_name t pid = Prog.proc_name t.db pid
let entry_at t pid = Prog.Proc.Tbl.get t.entries pid

let entry t proc =
  match Prog.proc_id t.db proc with
  | Some pid -> entry_at t pid
  | None -> empty_entry

let entry_opt t proc =
  Option.map (entry_at t) (Prog.proc_id t.db proc)

(** Entry lattice value of formal [i] of [proc]. *)
let formal_value t proc i : Lattice.t =
  let e = entry t proc in
  if i < Array.length e.pe_formals then e.pe_formals.(i) else Lattice.Bot

(** Entry lattice value of global [g] (a source spelling) in [proc]. *)
let global_value t proc g : Lattice.t =
  match List.assoc_opt (Prog.Var.intern g) (entry t proc).pe_globals with
  | Some v -> v
  | None -> Lattice.Bot

(** Constant formals, as [(proc, index, value)]. *)
let constant_formals t : (string * int * Fsicp_lang.Value.t) list =
  Prog.Proc.Tbl.fold
    (fun pid e acc ->
      let proc = proc_name t pid in
      let acc' = ref acc in
      Array.iteri
        (fun i v ->
          match v with
          | Lattice.Const value -> acc' := (proc, i, value) :: !acc'
          | Lattice.Top | Lattice.Bot -> ())
        e.pe_formals;
      !acc')
    t.entries []
  |> List.sort compare

(** Constant globals at procedure entries, as [(proc, global, value)]. *)
let constant_globals t : (string * string * Fsicp_lang.Value.t) list =
  Prog.Proc.Tbl.fold
    (fun pid e acc ->
      let proc = proc_name t pid in
      List.fold_left
        (fun acc (g, v) ->
          match v with
          | Lattice.Const value -> (proc, Prog.Var.name g, value) :: acc
          | Lattice.Top | Lattice.Bot -> acc)
        acc e.pe_globals)
    t.entries []
  |> List.sort compare

let find_call_record t ~caller ~cs_index =
  let row = Prog.Proc.Tbl.get t.call_index caller in
  if cs_index >= 0 && cs_index < Array.length row then row.(cs_index)
  else None

(** Canonical full print — every field down to the per-procedure SCC
    results — keyed by {e names}, never by the ids a particular context
    minted, so digests of independent solves of the same program are
    comparable.  Two solutions are byte-identical iff their digests are
    equal: the incremental engine's correctness oracle and the serve
    daemon's [digest] request are both this function. *)
let digest (s : t) : string =
  let b = Buffer.create 4096 in
  let db = s.db in
  Buffer.add_string b
    (Printf.sprintf "method %s scc_runs %d\n" s.method_name s.scc_runs);
  Array.iter
    (fun pid ->
      let e = entry_at s pid in
      Buffer.add_string b (Printf.sprintf "entry %s:" (Prog.proc_name db pid));
      Array.iter
        (fun v ->
          Buffer.add_string b (Printf.sprintf " %s" (Lattice.to_string v)))
        e.pe_formals;
      List.iter
        (fun (g, v) ->
          Buffer.add_string b
            (Printf.sprintf " %s=%s" (Prog.Var.name g) (Lattice.to_string v)))
        e.pe_globals;
      Buffer.add_char b '\n')
    (Prog.procs db);
  List.iter
    (fun cr ->
      Buffer.add_string b
        (Printf.sprintf "call %s#%d->%s exec=%b:"
           (Prog.proc_name db cr.cr_caller)
           cr.cr_cs_index
           (Prog.proc_name db cr.cr_callee)
           cr.cr_executable);
      Array.iter
        (fun v ->
          Buffer.add_string b (Printf.sprintf " %s" (Lattice.to_string v)))
        cr.cr_args;
      List.iter
        (fun (g, v) ->
          Buffer.add_string b
            (Printf.sprintf " %s=%s" (Prog.Var.name g) (Lattice.to_string v)))
        cr.cr_globals;
      Buffer.add_char b '\n')
    (call_records s);
  Array.iter
    (fun pid ->
      match Prog.Proc.Tbl.get s.scc_results pid with
      | None -> ()
      | Some (r : Scc.result) ->
          Buffer.add_string b
            (Printf.sprintf "scc %s values:" (Prog.proc_name db pid));
          Array.iter
            (fun w ->
              Buffer.add_string b
                (Printf.sprintf " %s" (Lattice.to_string (Lattice.P.to_t w))))
            r.Scc.values;
          Buffer.add_string b " blocks:";
          Array.iter
            (fun x -> Buffer.add_char b (if x then '1' else '0'))
            r.Scc.block_executable;
          Buffer.add_string b " edges:";
          Bytes.iter
            (fun c ->
              Buffer.add_string b (Printf.sprintf "%02x" (Char.code c)))
            r.Scc.edge_exec;
          Buffer.add_char b '\n')
    (Prog.procs db);
  Buffer.contents b

let pp ppf t =
  Fmt.pf ppf "method %s (%d SCC runs):@\n" t.method_name t.scc_runs;
  List.iter
    (fun (p, i, v) ->
      Fmt.pf ppf "  %s formal#%d = %a@\n" p i Fsicp_lang.Value.pp v)
    (constant_formals t);
  List.iter
    (fun (p, g, v) ->
      Fmt.pf ppf "  %s global %s = %a@\n" p g Fsicp_lang.Value.pp v)
    (constant_globals t)
