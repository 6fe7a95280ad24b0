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
    program database's procedure ids.  Each call record is stored once, in
    its caller's row at its [cs_index].  Names are recovered from the
    database only in the user-facing accessors ({!constant_formals},
    {!pp}, ...). *)

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
          interned variable id and sorted by name; globals not listed are
          unknown (bottom) *)
}

type t = {
  method_name : string;
  db : Prog.t;
  entries : proc_entry Prog.Proc.Tbl.t;  (** per reachable procedure *)
  call_index : callsite_record option array Prog.Proc.Tbl.t;
      (** the call records, by caller id and [cs_index]: slot [k] of row
          [p] holds caller [p]'s record of site [k], or [None] where the
          method recorded none.  The only store of call records, so
          {!find_call_record} is an array load and {!call_records} reads
          the rows in order *)
  scc_runs : int;
      (** number of flow-sensitive intraprocedural analyses performed — the
          paper's headline is that the FS method needs exactly one per
          procedure *)
}

(** Assemble a solution over rows the method filled: slot [k] of row
    [p] holds [None] or caller [p]'s record of site [k] (a row may be
    wider than its largest index).  The FI and FS solvers' incremental
    updates share every unchanged row with the previous solution. *)
let of_rows ~method_name ~db ~entries ~call_index ~scc_runs : t =
  { method_name; db; entries; call_index; scc_runs }

(** Assemble a solution from call records in any order, each stored at its
    (caller, cs_index) slot; a row is as wide as its caller's largest
    index.  Two records of one site are an error. *)
let make ~method_name ~db ~entries ~call_records ~scc_runs : t =
  let width = Array.make (Prog.n_procs db) 0 in
  List.iter
    (fun cr ->
      let c = (cr.cr_caller :> int) in
      width.(c) <- max width.(c) (cr.cr_cs_index + 1))
    call_records;
  let call_index =
    Prog.tbl_init db (fun pid -> Array.make width.((pid :> int)) None)
  in
  List.iter
    (fun cr ->
      let row = Prog.Proc.Tbl.get call_index cr.cr_caller in
      if Option.is_some row.(cr.cr_cs_index) then
        invalid_arg
          (Printf.sprintf "Solution.make: two records of call site %s#%d"
             (Prog.proc_name db cr.cr_caller)
             cr.cr_cs_index);
      row.(cr.cr_cs_index) <- Some cr)
    call_records;
  of_rows ~method_name ~db ~entries ~call_index ~scc_runs

(* Every record, callers in ascending id order, each caller's in
   ascending [cs_index] order. *)
let iter_call_records f t =
  Prog.Proc.Tbl.iteri (fun _ row -> Array.iter (Option.iter f) row) t.call_index

let call_records t : callsite_record list =
  let acc = ref [] in
  iter_call_records (fun cr -> acc := cr :: !acc) t;
  List.rev !acc

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

(** Same site values under the lattice's own equality ({!Lattice.equal},
    hence [Value.equal] on constants), not polymorphic [=]: two records are
    equal iff every consumer reads the same words from them. *)
let record_equal (a : callsite_record) (b : callsite_record) : bool =
  a == b
  || Bool.equal a.cr_executable b.cr_executable
     && Array.length a.cr_args = Array.length b.cr_args
     && Array.for_all2 Lattice.equal a.cr_args b.cr_args
     && List.equal
          (fun (g, v) (h, w) -> Prog.Var.equal g h && Lattice.equal v w)
          a.cr_globals b.cr_globals

let find_call_record t ~caller ~cs_index =
  let row = Prog.Proc.Tbl.get t.call_index caller in
  if cs_index >= 0 && cs_index < Array.length row then row.(cs_index)
  else None

(** Canonical full print — [scc_runs], every entry and every call record —
    keyed by {e names}, never by the ids a particular context minted, so
    digests of independent solves of the same program are comparable.
    Two solutions are byte-identical iff their digests are equal: the
    incremental engine's correctness oracle and the serve daemon's
    [digest] request are both {!digest}. *)
let print ~runs (s : t) : string =
  let b = Buffer.create 4096 in
  let db = s.db in
  Buffer.add_string b
    (if runs then
       Printf.sprintf "method %s scc_runs %d\n" s.method_name s.scc_runs
     else Printf.sprintf "method %s\n" s.method_name);
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
  iter_call_records
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
    s;
  Buffer.contents b

let digest = print ~runs:true

(** {!digest} without [scc_runs]: the method, every entry and every call
    record.  It compares a solution whose run count is not its method's
    own, such as {!Engine.cc_solution}'s on an acyclic PCG. *)
let values_digest = print ~runs:false

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
