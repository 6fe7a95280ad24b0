(** The Program Call Graph (PCG): procedures reachable from main, one edge
    per call site, DFS back-edge classification, and the traversal orders
    the paper's methods rely on.

    Nodes are dense {!Fsicp_prog.Prog.Proc.id}s minted by {!build} — the id
    of a procedure {e is} its reverse-postorder position, so the forward
    topological order is just [0 .. n-1] and per-procedure analysis state
    can live in plain arrays.  Names survive only for parsing ({!proc_id})
    and printing ({!proc_name}). *)

open Fsicp_lang
open Fsicp_prog

type edge = {
  caller : Prog.Proc.id;
  callee : Prog.Proc.id;
  cs_index : int;  (** textual call-site index within the caller *)
  back : bool;  (** classified as a PCG back edge by the build DFS *)
}

type t = {
  mutable prog : Ast.program;
      (** the analysed AST; replaced only by {!replace_proc} after a
          shape-preserving procedure edit *)
  asts : (string, Ast.proc) Hashtbl.t;
      (** name → AST index over [prog.procs], kept in sync by {!replace_proc};
          makes {!proc_ast} O(1) instead of a program-wide list scan *)
  scope : Sema.scope;
      (** [prog]'s name table, built once per program: lowering, the
          transforms and verification resolve names through it *)
  db : Prog.t;  (** name <-> id bijection for the reachable procedures *)
  nodes : Prog.Proc.id array;
      (** reachable procedures in reverse postorder from main;
          [nodes.(i)] has id [i] *)
  edges : edge list;  (** all call edges, in global discovery order *)
  out_adj : edge array array;
      (** per caller id: out edges in call-site order, indexed by
          [cs_index] (every call site of a reachable procedure targets a
          reachable procedure, so the rows are dense) *)
  in_adj : edge array array;  (** per callee id: in edges, global order *)
  cs_base : int array;
      (** caller-major call-site numbering: call site [(p, i)] is global
          site [cs_base.(p) + i]; length [n_procs + 1] *)
  back_bits : Prog.Bits.t;  (** back-edge flags over the global numbering *)
}

(** Build the PCG, restricted to procedures reachable from the entry.  An
    edge whose target is on the DFS stack at discovery time is a back edge
    (self-recursion included). *)
val build : Ast.program -> t

val n_procs : t -> int
val proc_id : t -> string -> Prog.Proc.id option
val proc_id_exn : t -> string -> Prog.Proc.id
val proc_name : t -> Prog.Proc.id -> string

val proc_ast : t -> Prog.Proc.id -> Ast.proc
(** The AST of a reachable procedure. *)

val is_reachable : t -> string -> bool

(** The AST of any procedure of the program by name, reachable or not
    (the first definition when a name is duplicated); O(1). *)
val find_ast : t -> string -> Ast.proc option
val is_back_edge : t -> edge -> bool

(** O(1) back-edge query by [(caller, cs_index)] against the back-edge
    bitset, without materialising an [edge]. *)
val is_back_edge_at : t -> caller:Prog.Proc.id -> cs_index:int -> bool

(** Callers before callees, up to back edges (DFS reverse postorder).
    Equal to [[| 0; ...; n-1 |]] by construction. *)
val forward_order : t -> Prog.Proc.id array

(** Callees before callers, up to back edges — the paper's backward walk. *)
val reverse_order : t -> Prog.Proc.id array

val in_edges : t -> Prog.Proc.id -> edge array
val out_edges : t -> Prog.Proc.id -> edge array

val n_call_sites : t -> Prog.Proc.id -> int
(** Number of call sites in a procedure = [Array.length (out_edges t p)]. *)

val edge_at : t -> caller:Prog.Proc.id -> cs_index:int -> edge

val has_cycles : t -> bool

(** Downstream cone: forward-edge closure of [seeds] (seeds
    included), ascending id — i.e. forward-traversal — order.  Back edges
    do not extend the cone: their entry-meet contribution comes from the
    flow-insensitive solution, which the incremental re-solve diffs
    separately.  Runs on the dense adjacency. *)
val cone : t -> seeds:Prog.Proc.id list -> Prog.Proc.id array

(** [replace_proc t prog p] swaps in [prog], whose only change is
    procedure [p]'s definition, updating the name index in place.  In
    contract only when the PCG shape is unchanged (same reachable
    procedures, same callee sequence per procedure); the incremental engine
    verifies this before calling. *)
val replace_proc : t -> Ast.program -> Ast.proc -> unit

(** [with_program t prog] is the PCG of [prog], in contract only when
    [prog] has [t]'s entry and procedure names and every procedure makes
    the calls it makes in [t]'s program: a new record that shares [t]'s
    nodes, edges, adjacency, call-site numbering and back-edge bits,
    with its own program and name index (and [t]'s scope
    when the globals list is physically [t]'s).  [t] is left untouched. *)
val with_program : t -> Ast.program -> t

(** |back edges| / |edges| — the paper's measure of how flow-insensitive
    the combined FS solution is (§3.2): 0 means pure flow-sensitive. *)
val back_edge_ratio : t -> float

(** Strongly connected components (Tarjan): the function receives each
    component's node ids, callees' components first (reverse topological
    order of the condensation).  Iterative, so call-chain depth is not
    bounded by the native stack. *)
val iter_sccs : t -> (int list -> unit) -> unit

(** {!iter_sccs} as lists of names, in the same order. *)
val sccs : t -> string list list

val pp : t Fmt.t
