(** Structured tracing and monotonic counters for the whole pipeline.

    The paper's cost claim (§4: the flow-sensitive method adds "less than
    1.5% of compile time") needs finer evidence than per-phase wall-clock
    rows once the pipeline is multi-domain and cache-heavy.  This module
    provides the two primitives every layer records into:

    - {b spans} — [span "5b:fs-icp" f] brackets the evaluation of [f] with
      begin/end events; spans nest per domain and may carry string
      key/value arguments (computed lazily, only when tracing is enabled);
    - {b counters} — process-wide monotonic integer counters ([incr],
      [add]), aggregated per domain without locks.

    {2 Recording model}

    Every domain owns a private lock-free buffer (reached through
    {!Domain.DLS}); recording is a plain store into it, so concurrent
    domains never contend.  Buffers outlive their domains: a registry keeps
    them for the flush, which must run at a quiescent point (after every
    [Domain.join] of interest — everywhere the pipeline flushes, the
    scheduler has already joined its workers).

    Span recording is {e disabled by default}: the [span] fast path is one
    atomic flag load, and the argument thunk is never forced.  Counters are
    always on — every increment in the pipeline funnels a local tally at a
    kernel boundary, never a hot-loop store — so acceptance checks like the
    SCC memo warm-path assertion can read them unconditionally.  The test
    suite bounds the words a fully traced flow-sensitive solve allocates at
    1.15× an untraced one ([test/test_alloc.ml]).

    {2 Determinism}

    Event {e identity} carries no wall clock: an event is identified by a
    logical epoch (advanced only from sequential orchestration points), its
    name and arguments, and its position in its domain's buffer.  Wall
    -clock timestamps are recorded alongside, for durations only.  The
    {!Logical} flush canonicalises: timing-only spans are dropped (children
    promoted), {e detached} spans — work items dispatched to arbitrary
    domains — are lifted to the root level, roots are stable-sorted by
    (epoch, name, args), and timestamps are replaced by a depth-first
    numbering.  The result is byte-identical across runs at a fixed [jobs]
    count, which is what the golden-trace fixture and the qcheck
    determinism properties pin.  The {!Wall} flush keeps real timestamps
    and per-domain tracks for profiling (inherently non-deterministic). *)

(** {1 Counters} *)

type counter

(** [counter name] returns the process-wide counter registered under
    [name], creating it on first use (subsequent calls with the same name
    return the same counter; the first [stable] wins).  [stable = false]
    marks a counter whose value is scheduling-dependent (e.g. domain spawns):
    unstable counters are excluded from the deterministic {!Logical} flush
    and from {!counters_table} unless [all] is set. *)
val counter : ?stable:bool -> string -> counter

val incr : counter -> unit
val add : counter -> int -> unit

(** Total over all domains, live and dead; 0 for unregistered names.
    Monotonic between {!reset}s. *)
val counter_total : string -> int

(** All counters with their totals, sorted by name.  [all] includes the
    unstable ones (default: stable only). *)
val counters : ?all:bool -> unit -> (string * int) list

(** The flat counters table as aligned text, one counter per line. *)
val counters_table : ?all:bool -> unit -> string

(** {1 Spans} *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(** Advance the logical epoch.  Must only be called from sequential
    orchestration points (phase starts, solver entries, fan-out entries) —
    never from inside concurrently-running work — so that every event's
    epoch is deterministic. *)
val next_epoch : unit -> unit

(** [span name f] evaluates [f ()] inside a [name] span on the calling
    domain; the end event is recorded even when [f] raises.  [args] is
    forced only when tracing is enabled.  [timing] marks a span that exists
    purely for wall-clock attribution (a parallel run's lifetime): the
    {!Logical} flush drops it and promotes its children.  [detach] marks a
    work item that may run on any domain: the {!Logical} flush lifts it out
    of whatever stack it was recorded under to the root level, making the
    trace shape independent of scheduling. *)
val span :
  ?args:(unit -> (string * string) list) ->
  ?timing:bool ->
  ?detach:bool ->
  string ->
  (unit -> 'a) ->
  'a

(** {1 Flushing} *)

type mode =
  | Logical  (** canonical order, depth-first logical timestamps *)
  | Wall  (** real µs timestamps, one track per domain buffer *)

(** Render everything recorded so far as Chrome [trace_event] JSON
    (loadable in Perfetto / chrome://tracing).  Spans become ["B"]/["E"]
    pairs; counters become trailing ["C"] events.  The {!Logical} flush
    emits only stable, nonzero counters — never-exercised counters are
    omitted so the document does not depend on which modules happen to be
    linked (registration runs at module init).  Must be called at a
    quiescent point. *)
val to_chrome_json : ?mode:mode -> unit -> string

val write_chrome_json : ?mode:mode -> string -> unit

(** Every span name recorded so far with its call count and inclusive
    wall-clock seconds, summed over all domains and sorted by name — the
    per-step split of a profiled run.  Must be called at a quiescent
    point. *)
val span_totals : unit -> (string * int * float) list

(** Clear all recorded events and zero every counter (epoch included).
    O(1): it bumps a logical generation and each buffer discards its stale
    contents on its next record.  Must be called at a quiescent point. *)
val reset : unit -> unit
