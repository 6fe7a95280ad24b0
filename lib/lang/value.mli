(** Runtime and compile-time constant values of MiniFort.

    One value domain serves the interpreter and every analysis, so a
    "propagated constant" always denotes exactly what the interpreter would
    compute. *)

type t =
  | Int of int
  | Real of float

(** Structural equality: [Int 1] and [Real 1.0] differ (the lattice needs
    this); the language's [==] operator compares with int→real promotion
    instead. *)
val equal : t -> t -> bool

val compare : t -> t -> int
val is_real : t -> bool

(** Truthiness for conditions and logical operators: non-zero is true. *)
val truthy : t -> bool

val of_bool : bool -> t
val to_float : t -> float

(** Shortest decimal form that parses back to exactly the same float
    (always keeping a decimal point or exponent), with explicit [nan] /
    [inf] / [-inf] spellings. *)
val real_to_string : float -> string

(** Prints in a form the lexer reads back bit-exactly: [Real] uses
    {!real_to_string}. *)
val pp : t Fmt.t

val to_string : t -> string

(** [None] exactly when the operation is a runtime error (the evaluator
    raises, the constant propagator yields ⊥). *)
val eval_unop : Ops.unop -> t -> t option

(** Total except division/modulus by zero.  Mixed int/real promotes to
    real; comparisons and logical operators yield [Int 0]/[Int 1]. *)
val eval_binop : Ops.binop -> t -> t -> t option
