(** Sparse multivariate polynomials over a procedure's formal parameters —
    the value domain of the polynomial jump function.  Coefficient
    arithmetic follows the language (mixed int/real promotion); sizes are
    capped, and a jump function that explodes gives up ([None]). *)

open Fsicp_lang

type monomial = (int * int) list
(** sorted [(formal index, exponent)] pairs; [[]] is the constant monomial *)

type t = (monomial * Value.t) list
(** normalised: no zero coefficients, monomials distinct and sorted *)

val zero : t
val const : Value.t -> t
val formal : int -> t
val is_const : t -> Value.t option
val equal : t -> t -> bool

val add : t -> t -> t option
val sub : t -> t -> t option
val neg : t -> t
val mul : t -> t -> t option

(** Evaluate under an assignment; [None] when a needed formal is missing. *)
val eval : t -> (int -> Value.t option) -> Value.t option

val formals_used : t -> int list
val pp : t Fmt.t
val to_string : t -> string
