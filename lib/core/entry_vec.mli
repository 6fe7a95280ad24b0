(** The per-procedure entry vector shared by the flow-sensitive
    ({!Fs_icp}), copy-constant ({!Cc_icp}) and value-context ({!Vc_icp})
    methods, and the conversions around it.

    A procedure's entry vector is a packed-word array ({!Fsicp_scc.Lattice.P})
    over its {!shape}: slot [j < nf] is formal [j], slot [nf + k] is the
    [k]-th global of its REF closure in ascending id order.  This module is
    the only one that knows that layout; {!Reference} deliberately keeps
    its own, so the solver it checks {!Fs_icp} against shares no code with
    it. *)

open Fsicp_prog
open Fsicp_cfg
open Fsicp_ssa
open Fsicp_scc

(** Formal count and sorted REF-closure global ids of one procedure. *)
type shape = private { nf : int; gids : Prog.Var.id array }

(** [shape ctx proc] reads [proc]'s formals from the summaries and its REF
    closure from MOD/REF ([Modref.call_global_refs]). *)
val shape : Context.t -> string -> shape

(** Number of slots: formals plus closure globals. *)
val size : shape -> int

(** [global_slot sh g] is the slot of the global with raw id [g], or [-1]
    when [g] is outside the REF closure (its entry value is never read). *)
val global_slot : shape -> int -> int

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

(** The entry roots of a program: block-data constants and [main]. *)
type roots

val roots : Context.t -> roots
val is_main : roots -> Prog.Proc.id -> bool

(** [set_main_globals r sh v] overwrites every global slot of [v] with its
    block-data seed (⊥ without one): [main]'s whole global story, since any
    call into [main] is a back edge. *)
val set_main_globals : roots -> shape -> int array -> unit

(** [main_vector r sh] is [main]'s root vector: formals ⊥, globals from
    block data. *)
val main_vector : roots -> shape -> int array

(** [env r sh pid slot] is the SCC entry environment of procedure [pid]
    whose slot [s] reads [slot s].  A versioned global outside the REF
    closure reads its block-data seed in [main] and ⊥ elsewhere; locals,
    temporaries and out-of-range formals read ⊥. *)
val env : roots -> shape -> Prog.Proc.id -> (int -> int) -> Ir.var -> int

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

