(** The per-procedure entry vector shared by the flow-sensitive
    ({!Fs_icp}), copy-constant ({!Cc_icp}) and value-context ({!Vc_icp})
    methods, and the conversions around it.

    A procedure's entry vector is a packed-word array ({!Fsicp_scc.Lattice.P})
    over its {!shape}: slot [j < nf] is formal [j], slot [nf + k] is the
    [k]-th global of its REF closure in name order.  This module is
    the only one that knows that layout; {!Reference} deliberately keeps
    its own, so the solver it checks {!Fs_icp} against shares no code with
    it. *)

open Fsicp_prog
open Fsicp_cfg
open Fsicp_ssa
open Fsicp_callgraph
open Fsicp_scc

(** Formal count and sorted REF-closure global ids of one procedure. *)
type shape = private { nf : int; gids : Prog.Var.id array }

(** [shape ctx proc] reads [proc]'s formals from the summaries and its REF
    closure from MOD/REF ([Modref.call_global_refs]). *)
val shape : Context.t -> string -> shape

(** Number of slots: formals plus closure globals. *)
val size : shape -> int

(** [global_slot sh g] is the slot of global [g], or [-1] when [g] is
    outside the REF closure (its entry value is never read). *)
val global_slot : shape -> Prog.Var.id -> int

(** [top sh] is a fresh all-⊤ vector, the identity of {!meet_site}. *)
val top : shape -> int array

(** ⊤ becomes ⊥ in place: once every contribution has been met, a slot
    still at ⊤ means no executable call reaches it — unknown, not a
    dead-code constant. *)
val finalize : int array -> unit

(** [meet_site sh v ~word args globals] meets [word w] into the slot of
    every argument [j < nf] and of every closure global of a call site's
    words; words for anything outside the shape are dropped. *)
val meet_site :
  shape ->
  int array ->
  word:('a -> int) ->
  'a array ->
  (Prog.Var.id * 'a) list ->
  unit

(** The entry roots of a program: its PCG, block-data constants and
    [main]. *)
type roots

val roots : Context.t -> roots

(** [entry r sh pid contribute] is procedure [pid]'s finalized entry
    vector.  Starting from {!top}, [contribute e v] meets in-edge [e]'s
    contribution into [v] (typically with {!meet_site}), for every in-edge
    in canonical order; then [main]'s global slots take their block-data
    seeds (⊥ without one), since any call into [main] is a back edge; then
    {!finalize}. *)
val entry :
  roots ->
  shape ->
  Prog.Proc.id ->
  (Callgraph.edge -> int array -> unit) ->
  int array

(** [env r sh pid slot] is the SCC entry environment of procedure [pid]
    whose slot [s] reads [slot s].  A versioned global outside the REF
    closure reads its block-data seed in [main] and ⊥ elsewhere; locals,
    temporaries and out-of-range formals read ⊥. *)
val env : roots -> shape -> Prog.Proc.id -> (int -> int) -> Ir.var -> int

(** [of_entry r sh pid e] reads procedure [pid]'s boxed entry [e] as a
    vector over [sh].  A formal [e] does not list reads ⊥; a closure
    global it does not list reads its block-data seed in [main] and ⊥
    elsewhere, as {!env} reads a global outside the closure. *)
val of_entry :
  roots -> shape -> Prog.Proc.id -> Solution.proc_entry -> int array

(** [run ctx r sh pid ?call_def_value slot] is the one kernel step of
    every entry-seeded method: [pid]'s SCC run over {!Context.ssa_at}
    with entry environment [env r sh pid slot], and [pid]'s call sites.
    Each method passes its slot policy: FS its met vector, CC a constant
    or the slot's copy word, VC the context, and the passes over a
    finished solution {!of_entry}.  [call_def_value c v] is the packed
    value of [v] after call [c] (default ⊥); the kernel asks by callee
    name, so the answers for the calls to one callee meet. *)
val run :
  Context.t ->
  roots ->
  shape ->
  Prog.Proc.id ->
  ?call_def_value:(Ssa.call -> Ir.var -> int) ->
  (int -> int) ->
  Scc.result * (int * int * Ssa.call) list

(** [read_site ~word res c] reads call [c]'s argument words and REF-global
    words (in [c]'s own global order) off [res], each through [word]. *)
val read_site :
  word:(int -> 'a) ->
  Scc.result ->
  Ssa.call ->
  'a array * (Prog.Var.id * 'a) list

(** [split sh v] is [v] as argument words and (global id, word) pairs, the
    shape of a call into a procedure of shape [sh]. *)
val split : shape -> int array -> int array * (Prog.Var.id * int) list

(** Box a vector as the procedure's published entry. *)
val box_entry : shape -> int array -> Solution.proc_entry

(** Box a site's words, each through [word] first, as its call record;
    every value is [Top] on a non-executable site. *)
val box_site :
  caller:Prog.Proc.id ->
  cs_index:int ->
  callee:Prog.Proc.id ->
  exec:bool ->
  word:(int -> int) ->
  int array * (Prog.Var.id * int) list ->
  Solution.callsite_record

(** [publish pcg ~method_name ~scc_runs shapes vecs site] boxes a method's
    final entry vectors ([vecs.(i)] over [shapes.(i)], by procedure id)
    and call sites into a solution.  For every PCG out-edge, callers in id
    order and sites in [cs_index] order, [site e] is
    [Some (exec, word, words)] to publish the site through {!box_site}, or
    [None] to leave it out. *)
val publish :
  Callgraph.t ->
  method_name:string ->
  scc_runs:int ->
  shape array ->
  int array array ->
  (Callgraph.edge ->
  (bool * (int -> int) * (int array * (Prog.Var.id * int) list)) option) ->
  Solution.t
