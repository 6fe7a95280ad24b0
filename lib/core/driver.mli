(** The full compilation-model pipeline of paper Figure 2, with per-phase
    wall-clock timings backing the paper's cost claim. *)

open Fsicp_lang
open Fsicp_ipa

type timing = {
  t_phase : string;
  t_seconds : float;
  t_minor_words : float;  (** minor-heap words, summed over domains *)
  t_major_words : float;  (** words allocated directly in the major heap *)
}

type t = {
  ctx : Context.t;
  fi : Solution.t;
  fs : Solution.t;
  cc : Solution.t option;  (** copy-constant; [Some] iff run [~extended] *)
  vc : Solution.t option;  (** value-context; [Some] iff run [~extended] *)
  use : Use.t;
  timings : timing list;
}

(** Run steps 1–6, in sequence, on a {!Sema.check}-clean program.
    Per-procedure lowering and the FS solve's SSA pre-build run on up to
    [jobs] domains (default {!Fsicp_par.Par.default_jobs}) once the
    program is past {!Fsicp_par.Par.cutoff}; results are identical for every
    [jobs].  [extended] (default [false]) additionally runs the
    beyond-the-paper methods — copy-constant ({!Cc_icp}, phase
    ["5c:cc-icp"]) and value-context ({!Vc_icp}, phase ["5d:vc-icp"]) —
    after the paper's FI/FS pair; the default leaves the paper's Figure-2
    phase trace untouched. *)
val run : ?floats:bool -> ?jobs:int -> ?extended:bool -> Ast.program -> t

val pp : t Fmt.t
