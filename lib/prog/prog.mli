(** The program database: interned symbols and dense typed-ID storage.

    Every analysis layer used to key its state on raw [string] procedure and
    variable names — hundreds of string-keyed hashtables whose hot loops
    spend their time hashing and comparing strings.  This module gives each
    program a compact integer universe instead:

    - {!Proc.id} — the identity of a reachable procedure, minted once per
      program by {!of_names} (in practice: by [Callgraph.build], in reverse
      postorder, so the id {e is} the topological position).  Per-procedure
      analysis state lives in dense {!Proc.Tbl} arrays indexed by these ids.
    - {!Var.id} — a process-global interned variable name.  Interning is
      thread-safe (the lowering and SSA phases run on multiple domains) and
      ids are used for identity — [compare]/[equal]/[hash] on one machine
      word — never as dense array indices.

    Proc ids are {e per-program}: an id minted for one program's database is
    meaningless (and out of bounds) in another's.  They must never leak
    across [Context.t]s; see DESIGN.md, "Program database". *)

module Proc : sig
  type id = private int
  (** Index of a reachable procedure in its program's database: a dense
      [0 .. n_procs-1] range, in reverse postorder from [main]. *)

  val to_int : id -> int
  val equal : id -> id -> bool
  val compare : id -> id -> int
  val hash : id -> int
  val pp : id Fmt.t

  (** Dense per-procedure tables, sized by the program's procedure count —
      the replacement for [(string, 'a) Hashtbl.t] analysis state. *)
  module Tbl : sig
    type 'a t

    val make : int -> 'a -> 'a t
    (** [make n default] — a table for [n] procedures, all bound to
        [default]. *)

    val init : int -> (id -> 'a) -> 'a t
    val length : 'a t -> int
    val get : 'a t -> id -> 'a
    val set : 'a t -> id -> 'a -> unit
    val iteri : (id -> 'a -> unit) -> 'a t -> unit
    val fold : (id -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
    val map : ('a -> 'b) -> 'a t -> 'b t

    val copy : 'a t -> 'a t
    (** A fresh table with the same bindings (one array blit). *)
  end
end

module Var : sig
  type id = private int
  (** A process-globally interned variable name.  Equal names always intern
      to equal ids, so [equal]/[compare]/[hash] are single-word integer
      operations.  Ids are dense per process, not per program — use them for
      identity and ordering, never to size per-program arrays. *)

  val intern : string -> id
  (** Thread-safe; idempotent per name.  A name interned before takes no
      lock; only minting a new id does. *)

  val name : id -> string
  (** Total on every id returned by {!intern}, from any domain.  Takes no
      lock unless the id was minted so recently that this domain has not
      seen it published. *)

  val to_int : id -> int
  val equal : id -> id -> bool
  val compare : id -> id -> int
  val hash : id -> int
  val pp : id Fmt.t
end

(** A process-global interned side table for constant values that do not fit
    in a packed lattice word (reals and very large integers — see
    [Fsicp_scc.Lattice.P]).  Interning canonicalises the [Value.equal]
    equivalence classes with multiple machine representations (all nans map
    to one slot, [-0.0] and [0.0] to one slot), so equal pool indices hold
    [Value.equal] values and a packed-word integer comparison is a correct
    lattice-element equality. *)
module Valpool : sig
  val intern : Fsicp_lang.Value.t -> int
  (** Thread-safe; idempotent per [Value.equal]-class.  Locks only to mint
      a new index, as {!Var.intern}. *)

  val get : int -> Fsicp_lang.Value.t
  (** Total on every index returned by {!intern}; locks only as
      {!Var.name} does.  Returns the first value interned for the index's
      equivalence class. *)
end

(** Flat bitsets over a dense [0 .. n-1] universe (e.g. the call sites of a
    program, numbered caller-major). *)
module Bits : sig
  type t

  val create : int -> t
  (** All-zero bitset over [0 .. n-1]. *)

  val length : t -> int
  val set : t -> int -> unit
  val mem : t -> int -> bool
  val count : t -> int
end

type t
(** A program's procedure database: the bijection between reachable
    procedure names and their dense {!Proc.id}s. *)

val of_names : string array -> t
(** [of_names names] assigns [Proc.id] [i] to [names.(i)].  Raises
    [Invalid_argument] on duplicate names. *)

val n_procs : t -> int
val proc_id : t -> string -> Proc.id option
val proc_id_exn : t -> string -> Proc.id
val proc_name : t -> Proc.id -> string
val mem : t -> string -> bool

val procs : t -> Proc.id array
(** All ids, in index order [0 .. n_procs-1]. *)

val tbl : t -> 'a -> 'a Proc.Tbl.t
(** [tbl t default] — a fresh {!Proc.Tbl} sized for [t]. *)

val tbl_init : t -> (Proc.id -> 'a) -> 'a Proc.Tbl.t
