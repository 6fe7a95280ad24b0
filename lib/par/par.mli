(** Domain-based parallel execution primitives: a work-stealing-free worker
    pool over an atomic index, and a dependency-wavefront scheduler for
    DAG-shaped work such as the PCG forward traversal.

    Every combinator takes an explicit [jobs] count.  [jobs <= 1] runs the
    work sequentially in the calling domain, in the canonical order — the
    deterministic reference path the parallel paths must reproduce.  All
    result-producing combinators are deterministic by construction: results
    land in slots keyed by input index, never by completion order.

    The parallel paths share one process-wide pool of worker domains.  The
    first call with [jobs = k] spawns the missing workers; between runs
    they sleep on a condition variable, so later calls reuse them and a
    domain's local state (its {!Arena}, its trace buffer) stays warm.  The
    pool parks at most [Domain.recommended_domain_count () - 1] workers
    (at least one), because every minor collection stops every domain; a
    wider run spawns transient workers for the extra indices and joins them
    before it returns.  Spawns are counted by the [par.domains_spawned]
    trace counter.  One run holds the pool at a time: a call made while a
    run is in flight — nested inside a task, or from another domain — takes
    the sequential [jobs <= 1] path instead of waiting or spawning. *)

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
    stop; the workers survive it.  [label] wraps each [f i] in a detached
    {!Fsicp_trace.Trace} span named [label] carrying the index, on the
    sequential fast path too. *)
val parallel_init : ?label:string -> jobs:int -> int -> (int -> 'a) -> 'a array

(** [map_list ~jobs f l] is [List.map f l]; list order is preserved. *)
val map_list : jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** [both ~jobs f g] runs the two thunks, concurrently when [jobs > 1]. *)
val both : jobs:int -> (unit -> 'a) -> (unit -> 'b) -> 'a * 'b

(** Per-domain epoch-stamped scratch arena for flat analysis kernels.

    One arena lives in each domain's local storage ({!Domain.DLS}), so a
    kernel running under {!wavefront} gets private scratch with no locking
    and near-zero allocation once the arena has grown to the largest
    procedure it has seen.  Pool workers persist across runs, so their
    arenas stay grown from one run to the next.  The arena hands out two
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

(** [wavefront ~jobs ~owners ~order ~deps ~dependents process] runs
    [process i] once for every node [i] of a dependency DAG, dispatching a
    node as soon as all of its [deps] have been processed.

    - [order] lists the nodes to run in a topological order of [deps];
      with [jobs <= 1] they are processed sequentially in exactly this
      order and [owners], [deps] and [dependents] are not read.
    - [deps.(i)] are the nodes that must complete before [i] starts;
      [dependents.(i)] is the inverse relation.  Both must mention each
      edge exactly once (no duplicates), and only nodes of [order].
    - Mutual exclusion: [process i] may freely read anything written by
      [process d] for [d] a (transitive) dependency — the scheduler's
      pending-count bookkeeping provides the happens-before edge — but
      nodes with no dependency relation run concurrently.

    The frontier is partitioned, built for 10⁴–10⁶-node DAGs where a single
    shared ready queue would serialise dispatch:

    - [owners.(i)] assigns node [i] to one of [jobs] domains (values in
      [0, jobs)).  The run uses all [jobs] domains however short [order]
      is, so a caller with few nodes lowers [jobs] and its owners
      together; an owner outside [0, jobs) for a node of [order] raises
      [Invalid_argument] before any node runs.  Each domain keeps the
      nodes it owns on a private LIFO stack — pushing and popping ready
      work takes no lock at all — so an owner that is also a node's only
      dependent runs caller and callee back-to-back with warm caches.  Callers pick owners from contiguous
      dense-id regions (see [Fs_icp.shard_regions]) so a shard is a
      structurally related slice of the graph, not a random sample.
    - A node completed by domain [d] whose dependent belongs to domain
      [o <> d] is handed off through [o]'s bounded inbox (a
      mutex-protected ring).  When the inbox is full the pusher drains its
      own inbox and retries, which makes cycles of mutually full inboxes
      impossible to sustain; handoff traffic is counted by the
      [par.shard.handoffs] trace counter.
    - Progress is observable while the run is in flight: completions are
      flushed in batches to [par.shard.solved], and the high-water mark of
      the ready frontier is recorded in [par.shard.frontier_peak] (all
      [~stable:false] — scheduling artefacts, excluded from the canonical
      trace).

    Any [owners] assignment yields the same set of [process] calls with the
    same happens-before edges, so a caller that assembles results
    canonically (by node index) is bit-identical across [jobs] and
    [owners].  The first exception raised by any [process i] aborts the
    wavefront and is re-raised after all workers stop.  A wavefront that
    finds the pool busy runs sequentially, after the same [owners]
    check. *)
val wavefront :
  jobs:int ->
  owners:int array ->
  order:int array ->
  deps:int list array ->
  dependents:int list array ->
  (int -> unit) ->
  unit
