(** Domain-based parallel execution primitives: a work-stealing-free
    parallel loop over an atomic index, for embarrassingly parallel
    per-procedure work such as lowering and SSA construction.

    Every combinator takes an explicit [jobs] count.  [jobs <= 1] runs the
    work sequentially in the calling domain, in the canonical order — the
    deterministic reference path the parallel paths must reproduce.  All
    result-producing combinators are deterministic by construction: results
    land in slots keyed by input index, never by completion order.

    A parallel run with [k] domains runs domain 0 on the caller, spawns the
    other [k - 1] and joins them before it returns, so no domain outlives
    its run: every minor collection stops every domain, and an idle one
    would slow the rest of the process.  Runs are counted by the
    [par.pools] trace counter and spawns by [par.domains_spawned].  One run
    is in flight at a time: a call made while a run is in flight — nested
    inside a task, or from another domain — takes the sequential
    [jobs <= 1] path instead of waiting or spawning. *)

(** Strict job-count parsing (shared by [FSICP_JOBS] and the CLI's
    [--jobs]): the trimmed string must be an integer ≥ 1.  Anything else —
    zero, negatives, garbage — is an [Error] with a message naming the
    offending value; there is deliberately no silent fallback. *)
val parse_jobs : string -> (int, string) result

(** Number of workers to use by default: the [FSICP_JOBS] environment
    variable when set, otherwise [Domain.recommended_domain_count ()].
    @raise Invalid_argument when [FSICP_JOBS] is set but not a positive
    integer (see {!parse_jobs}) *)
val default_jobs : unit -> int

(** [parallel_init ~jobs n f] is [Array.init n f] computed by up to [jobs]
    domains.  [f] must be safe to call concurrently on distinct indices.
    The first exception raised by any [f i] is re-raised after all workers
    stop.  [label] wraps each [f i] in a detached
    {!Fsicp_trace.Trace} span named [label] carrying the index, on the
    sequential fast path too. *)
val parallel_init : ?label:string -> jobs:int -> int -> (int -> 'a) -> 'a array

(** [map_list ~jobs f l] is [List.map f l]; list order is preserved. *)
val map_list : jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** [cutoff] is the work-item count below which a {!parallel_init} call
    site runs on one domain (DESIGN.md, "Parallel execution model", has
    the break-even table it comes from). *)
val cutoff : int

(** [domains ~jobs n] is the domain count for [n] work items: 1 when
    [n < cutoff], otherwise [jobs] capped at [n], and at least 1. *)
val domains : jobs:int -> int -> int

(** [(minor, direct_major)] words allocated so far by the calling domain
    plus those every spawned domain allocated in its run, so a difference of
    two readings counts a phase on every domain it ran on. *)
val allocated_words : unit -> float * float

(** Per-domain epoch-stamped scratch arena for flat analysis kernels.

    One arena lives in each domain's local storage ({!Domain.DLS}), so a
    kernel running on any domain gets private scratch with no locking
    and near-zero allocation once the arena has grown to the largest
    procedure it has seen.  A spawned domain starts with a fresh arena,
    which grows within its run.  The arena hands out two
    kinds of scratch:

    - {b mark regions} — ranges of an int-stamp array used as bitsets.  A
      slot is "set" iff its stamp equals the arena's current epoch, so
      {!reset} clears every region of every size in O(1) by bumping the
      epoch instead of zeroing memory.
    - {b int stacks} — two growable LIFO worklists ([stack_a]/[stack_b])
      whose backing arrays persist across runs.

    Protocol: call [reset], then [reserve_marks] for every region the run
    needs {e before} marking anything (growth re-zeroes the stamp array but
    preserves marks already set this epoch), then run the kernel.  Arenas
    are single-kernel scratch: results that outlive the run must be copied
    out (or allocated normally). *)
module Arena : sig
  type t
  type stack

  val get : unit -> t
  (** The calling domain's arena. *)

  val reset : t -> unit
  (** O(1) wipe: bumps the epoch and releases all mark regions and stacks. *)

  val reserve_marks : t -> int -> int
  (** [reserve_marks t n] returns the base index of a fresh all-clear region
      of [n] mark slots; address slot [i] of the region as [base + i]. *)

  val mark : t -> int -> unit
  val unmark : t -> int -> unit
  val marked : t -> int -> bool

  val stack_a : t -> stack
  val stack_b : t -> stack
  (** Two independent reusable worklists, emptied by {!reset}. *)

  val push : stack -> int -> unit
  val is_empty : stack -> bool

  val pop : stack -> int
  (** Undefined on an empty stack; guard with {!is_empty}. *)
end
