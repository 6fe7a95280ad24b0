(** Flow-sensitive interprocedural USE (paper §3.2): formals and globals
    possibly referenced before defined, computed in one reverse topological
    traversal of the PCG with REF information substituted on back edges —
    the same one-pass discipline as the flow-sensitive ICP. *)

open Fsicp_cfg
open Fsicp_prog
open Summary

type t

(** [compute procs modref pcg]; [procs] maps every reachable procedure to
    its lowered body, densely indexed by the PCG's {!Prog.Proc.id}s. *)
val compute :
  Ir.proc Prog.Proc.Tbl.t -> Modref.t -> Fsicp_callgraph.Callgraph.t -> t

val get : t -> string -> VrefSet.t
val global_used : t -> string -> string -> bool
