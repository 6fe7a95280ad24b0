(** Synthetic MiniFort program generator: deterministic (seeded), with the
    constant-argument classes and call-graph shape knobs that recreate the
    structural composition of the paper's benchmarks (see DESIGN.md). *)

open Fsicp_lang

type formal_class =
  | Fselector  (** receives literal 0 at every site *)
  | Fimm of Value.t  (** same literal everywhere *)
  | Fcollide  (** literal, different per site *)
  | Fpass  (** caller forwards an unmodified formal *)
  | Flocal_const of Value.t  (** caller computes a local constant *)
  | Flocal_collide  (** like [Flocal_const], per-site values *)
  | Fprune of Value.t
      (** constant only on the arm a flow-sensitively-known formal selects *)
  | Fout of Value.t
      (** out parameter: the callee stores this constant before returning *)
  | Fbot
  | Fglobal  (** a global passed by reference *)

type profile = {
  g_name : string;
  g_seed : int;
  g_procs : int;
  g_fanout : int;
  g_formals_min : int;
  g_formals_max : int;
  g_extra_calls : int * int;
  g_call_window : int;
  g_target_set : int;
  g_cluster_root_pool : bool;
  g_extra_to_leaves : bool;
  g_back_edge_prob : float;
  g_formal_uses : int;
  g_chain : int;
  g_w_imm : float;
  g_w_collide : float;
  g_w_pass : float;
  g_w_local_const : float;
  g_w_local_collide : float;
  g_w_prune : float;
  g_w_out : float;
  g_w_bot : float;
  g_w_global_arg : float;
  g_use_selector : bool;
  g_float_frac : float;
  g_float_local_frac : float;
  g_float_bd_frac : float;
  g_float_sc_frac : float;
  g_blockdata_pure : int;
  g_blockdata_mod : int;
  g_setconst_globals : int;
  g_noise_globals : int;
  g_global_read_prob : float;
  g_read_cluster : bool;
  g_common_block : int;
  g_const_leaf_only : bool;
  g_global_write_prob : float;
  g_loops : float;
  g_dispatch : int;
      (** number of mode-dispatch clusters appended after the calibrated
          body: a dispatcher called from [main] with two distinct constant
          modes branches on the mode and invokes a utility with a cluster
          constant on the arm every mode selects.  Flow-sensitively the
          modes meet to ⊥ so both arms look live and the utility's formal
          melts; per value context the dead arm is pruned and the formal
          is constant — the value-context method's precision signature.
          [0] (the whole paper suite) adds nothing and draws no random
          numbers, so calibrated programs are byte-identical *)
}

val default_profile : profile

(** Generate a {!Sema.check}-clean program; same profile, same program. *)
val generate : profile -> Ast.program

(** Modest profiles for property tests, every mechanism enabled; one seed
    in three has guarded recursion. *)
val small_profile : int -> profile
