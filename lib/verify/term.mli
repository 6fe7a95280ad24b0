(** Symbolic terms for translation validation.

    A term is an expression over the MiniFort operators ({!Fsicp_lang.Ops})
    whose leaves are constants ({!Fsicp_lang.Value}) and symbolic variables.
    Symbols carry a generation: generation 0 symbols denote the unknown entry
    values of formals and globals; higher generations are minted when an
    opaque (uninterpreted) call havocs locations it may modify.  Both sides of
    a verification condition share one generation counter, so "the same fresh
    symbol on both sides" encodes the assumption that equivalent callees
    produce equal outputs from equal inputs. *)

type sym = { sname : string; sgen : int }

type t =
  | Cst of Fsicp_lang.Value.t
  | Sym of sym
  | Un of Fsicp_lang.Ops.unop * t
  | Bin of Fsicp_lang.Ops.binop * t * t

type ty = TInt | TReal | TUnknown

val equal : t -> t -> bool
val compare : t -> t -> int

(** Normalising constructors.  [un]/[bin] fold constant operands with
    {!Fsicp_lang.Value.eval_unop}/[eval_binop] (faulting combinations are
    left symbolic — fault detection is the engine's guard discipline, not the
    term algebra's), cancel double negations, and apply algebraic identities
    ([x+0], [x*1], [x*0], [x==x], constant [&&]/[||] operands) only where the
    involved terms are provably integer-typed, so IEEE [-0.0]/[nan]/[inf]
    corner cases can never be simplified away. *)
val un : Fsicp_lang.Ops.unop -> t -> t

val bin : Fsicp_lang.Ops.binop -> t -> t -> t

(** [truthiness t] is a term denoting [Int 1] iff [t] is truthy: constants
    decide immediately, operators that already yield 0/1 pass through, and
    anything else becomes [t != 0]. *)
val truthiness : t -> t

(** [decide t] is [Some b] iff the truth of [t] is statically known. *)
val decide : t -> bool option

(** All distinct symbols of a term, sorted by (name, generation). *)
val syms : t -> sym list

(** Symbols of many terms at once, deduplicated and sorted. *)
val syms_of_list : t list -> sym list

val pp : t Fmt.t
val to_string : t -> string
