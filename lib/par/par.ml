(** Domain-based parallel execution primitives (see the interface for the
    determinism and safety contracts).

    Every combinator runs on one process-wide pool of worker domains,
    spawned on first use and grown to the largest [jobs] requested, up to
    one worker per spare core.  Between runs the workers sleep on their own
    condition variable, so an idle pool costs no CPU and a run pays a
    wake-up, not a [Domain.spawn].
    [parallel_init] hands out indices from one atomic counter, so there is
    no work queue to balance and no per-task allocation.  The wavefront
    scheduler keeps atomic pending counts and per-domain ready stacks,
    taking a lock only to hand a node to another domain's inbox — never
    inside [process] — so the hot path (the per-node analysis itself) runs
    lock-free. *)

module Trace = Fsicp_trace.Trace

(* [par.tasks] counts every work item handed to a combinator, sequential
   fast paths included, so its total is invariant in [jobs].  Pool runs,
   domain spawns and idle waits are scheduling artefacts: runs are
   deterministic at a fixed [jobs] but vary across counts, spawns depend on
   what ran earlier in the process, and idle waits are inherently racy,
   hence [~stable:false]. *)
let c_tasks = Trace.counter "par.tasks"
let c_pools = Trace.counter ~stable:false "par.pools"
let c_spawned = Trace.counter ~stable:false "par.domains_spawned"
let c_idle = Trace.counter ~stable:false "par.idle_waits"

(* Wavefront progress and traffic.  Both are scheduling artefacts (they
   depend on which domain reached which node first), hence
   [~stable:false]; [par.shard.solved] is flushed in batches during the
   run so a concurrent reader — the serve daemon's stats endpoint — sees
   live progress on a long corpus, not just the final total. *)
let c_shard_solved = Trace.counter ~stable:false "par.shard.solved"
let c_shard_handoffs = Trace.counter ~stable:false "par.shard.handoffs"

(* Strict job-count parsing, shared by the FSICP_JOBS environment variable
   and the CLI's --jobs flag.  A malformed count is an error, never a
   silent fallback: a benchmark or CI run that typos FSICP_JOBS=fuor must
   not quietly measure all-cores behaviour. *)
let parse_jobs (s : string) : (int, string) result =
  match int_of_string_opt (String.trim s) with
  | Some j when j >= 1 -> Ok j
  | Some j -> Error (Printf.sprintf "jobs must be a positive integer, got %d" j)
  | None ->
      Error (Printf.sprintf "jobs must be a positive integer, got %S" s)

let default_jobs () =
  match Sys.getenv_opt "FSICP_JOBS" with
  | Some s -> (
      match parse_jobs s with
      | Ok j -> j
      | Error msg -> invalid_arg (Printf.sprintf "FSICP_JOBS: %s" msg))
  | None -> Domain.recommended_domain_count ()

let record_error err e = ignore (Atomic.compare_and_set err None (Some e))

(* -- Size cutoffs ------------------------------------------------------- *)

type combinator = Init | Wavefront

(* Below these procedure counts two domains were not reliably faster in
   wall time than one on the 2-core VM, and always cost more CPU
   (DESIGN.md, "Parallel execution model"). *)
let cutoff = function Init -> 2_000 | Wavefront -> 16_000

let domains combinator ~jobs n =
  if n < cutoff combinator then 1 else max 1 (min jobs n)

(* -- Allocation across domains ------------------------------------------ *)

(* [Gc.minor_words] and [Gc.counters] count the calling domain only, so
   each pool worker adds what it allocated in a run to these totals before
   it reports the run finished.  Direct major words (major less promoted)
   are blocks too large for the minor heap. *)
let worker_minor = Atomic.make 0
let worker_major = Atomic.make 0

let own_words () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words (), major -. promoted)

let allocated_words () =
  let minor, major = own_words () in
  ( minor +. float_of_int (Atomic.get worker_minor),
    major +. float_of_int (Atomic.get worker_major) )

(* -- Worker pool ------------------------------------------------------- *)

(* One pool per process.  Worker [d] (1-based; the calling domain is
   domain 0 of every run) sleeps on [wakes.(d - 1)] until a run numbered
   past the last one it served includes it ([d < width]), runs [body d],
   and reports back through [active]/[finished].  The run fields are
   guarded by [mu]; [wakes] changes only under [busy], the run token.  A
   domain that cannot take the token — a call nested inside a task, or a
   second domain calling while a run is in flight — gets [false] from
   [acquire] and runs sequentially, so a run never waits on another run
   and the pool never spawns past the largest [jobs] requested. *)
type pool = {
  mu : Mutex.t;
  finished : Condition.t;
  mutable wakes : Condition.t array;
  mutable run : int;
  mutable width : int;
  mutable body : int -> unit;
  mutable active : int;
}

let pool =
  {
    mu = Mutex.create ();
    finished = Condition.create ();
    wakes = [||];
    run = 0;
    width = 0;
    body = ignore;
    active = 0;
  }

let busy = Atomic.make false
let acquire () = Atomic.compare_and_set busy false true

(* A parked worker serves runs until the process ends: parked, it costs
   no CPU, and the process exits without joining it.  A [~once] worker
   serves one run and returns. *)
let worker ?(once = false) d wake ~served =
  let served = ref served and live = ref true in
  Mutex.lock pool.mu;
  while !live do
    if pool.run <> !served && d < pool.width then begin
      served := pool.run;
      let body = pool.body in
      Mutex.unlock pool.mu;
      (* [body] never raises: [run_pool] wraps it. *)
      let minor0, major0 = own_words () in
      body d;
      let minor1, major1 = own_words () in
      Atomic.fetch_and_add worker_minor (int_of_float (minor1 -. minor0))
      |> ignore;
      Atomic.fetch_and_add worker_major (int_of_float (major1 -. major0))
      |> ignore;
      Mutex.lock pool.mu;
      pool.active <- pool.active - 1;
      if pool.active = 0 then Condition.signal pool.finished;
      live := not once
    end
    else Condition.wait wake pool.mu
  done;
  Mutex.unlock pool.mu

let spawn_worker ?once d =
  let wake = Condition.create () and served = pool.run in
  let dom = Domain.spawn (fun () -> worker ?once d wake ~served) in
  Trace.incr c_spawned;
  (dom, wake)

(* Parked workers are not free: every minor collection stops every
   domain, a parked one included.  On the 2-core VM one parked worker
   adds 0.01-0.03 ms to each collection and 13% to the CPU time of an
   allocation loop (DESIGN.md).  So the pool parks at most [nproc - 1]
   workers (and at least one); a wider run adds transient workers for its
   extra indices and joins them before it returns. *)
let max_parked = max 1 (Domain.recommended_domain_count () - 1)

(* Spawn parked workers until there are [n]; the caller holds the token. *)
let grow n =
  while Array.length pool.wakes < n do
    let _, wake = spawn_worker (Array.length pool.wakes + 1) in
    pool.wakes <- Array.append pool.wakes [| wake |]
  done

(* Run [body d] for every [d] in [0, k) — domain 0 is the caller — on a
   token the caller already holds, and give the token back.  The first
   exception any [body d] raised is recorded in [err] (the bodies poll it
   to stop early) and re-raised once every participant has finished; the
   workers themselves survive it. *)
let run_pool k (err : exn option Atomic.t) body =
  Trace.incr c_pools;
  let guarded d = try body d with e -> record_error err e in
  Fun.protect
    ~finally:(fun () -> Atomic.set busy false)
    (fun () ->
      let parked = min (k - 1) max_parked in
      grow parked;
      Trace.span ~timing:true "par:pool" (fun () ->
          (* Transient workers wait for the run like parked ones.  One
             that fails to spawn narrows the run and sets [err] before it
             starts, so every body stops at once instead of waiting on the
             missing domain's share. *)
          let rec spawn_transient d acc =
            if d >= k then List.rev acc
            else
              match spawn_worker ~once:true d with
              | w -> spawn_transient (d + 1) (w :: acc)
              | exception e ->
                  record_error err e;
                  List.rev acc
          in
          let transient = spawn_transient (parked + 1) [] in
          Mutex.lock pool.mu;
          pool.body <- guarded;
          pool.width <- parked + 1 + List.length transient;
          pool.active <- pool.width - 1;
          pool.run <- pool.run + 1;
          for d = 1 to parked do
            Condition.signal pool.wakes.(d - 1)
          done;
          List.iter (fun (_, wake) -> Condition.signal wake) transient;
          Mutex.unlock pool.mu;
          guarded 0;
          Mutex.lock pool.mu;
          while pool.active > 0 do
            Condition.wait pool.finished pool.mu
          done;
          (* Drop the run's closure: it may reach large per-run state. *)
          pool.body <- ignore;
          Mutex.unlock pool.mu;
          List.iter (fun (dom, _) -> Domain.join dom) transient));
  match Atomic.get err with Some e -> raise e | None -> ()

let parallel_init ?label ~jobs n f =
  let f =
    match label with
    | None -> f
    | Some name ->
        fun i ->
          Trace.span ~detach:true
            ~args:(fun () -> [ ("idx", string_of_int i) ])
            name
            (fun () -> f i)
  in
  Trace.add c_tasks n;
  if jobs <= 1 || n <= 1 || not (acquire ()) then Array.init n f
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let err = Atomic.make None in
    let worker _ =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n || Atomic.get err <> None then continue := false
        else
          match f i with
          | v -> results.(i) <- Some v
          | exception e -> record_error err e
      done
    in
    run_pool (min jobs n) err worker;
    Array.map (function Some v -> v | None -> assert false) results
  end

let map_list ~jobs f l =
  let a = Array.of_list l in
  Array.to_list (parallel_init ~jobs (Array.length a) (fun i -> f a.(i)))

module Arena = struct
  type stack = { mutable sbuf : int array; mutable slen : int }

  type t = {
    mutable epoch : int;
    mutable stamps : int array;
    mutable reserved : int;
    sa : stack;
    sb : stack;
  }

  let create () =
    {
      epoch = 0;
      stamps = Array.make 1024 0;
      reserved = 0;
      sa = { sbuf = Array.make 256 0; slen = 0 };
      sb = { sbuf = Array.make 256 0; slen = 0 };
    }

  let key = Domain.DLS.new_key create
  let get () = Domain.DLS.get key

  (* O(1): slots marked under earlier epochs become unmarked because their
     stamp no longer equals [epoch].  Stamps start at 0 and [epoch] starts
     at 1 after the first reset, so a fresh (or freshly grown) stamp array
     reads as all-clear. *)
  let reset t =
    t.epoch <- t.epoch + 1;
    t.reserved <- 0;
    t.sa.slen <- 0;
    t.sb.slen <- 0

  let reserve_marks t n =
    let base = t.reserved in
    t.reserved <- base + n;
    let cap = Array.length t.stamps in
    if t.reserved > cap then begin
      let stamps = Array.make (max t.reserved (2 * cap)) 0 in
      (* Preserve marks already set this epoch in earlier regions. *)
      Array.blit t.stamps 0 stamps 0 cap;
      t.stamps <- stamps
    end;
    base

  let[@inline] mark t i = t.stamps.(i) <- t.epoch
  let[@inline] unmark t i = t.stamps.(i) <- 0
  let[@inline] marked t i = t.stamps.(i) = t.epoch
  let stack_a t = t.sa
  let stack_b t = t.sb

  let[@inline] push s x =
    let cap = Array.length s.sbuf in
    if s.slen = cap then begin
      let buf = Array.make (2 * cap) 0 in
      Array.blit s.sbuf 0 buf 0 cap;
      s.sbuf <- buf
    end;
    s.sbuf.(s.slen) <- x;
    s.slen <- s.slen + 1

  let[@inline] is_empty s = s.slen = 0

  let[@inline] pop s =
    s.slen <- s.slen - 1;
    s.sbuf.(s.slen)
end

(* -- Wavefront ------------------------------------------------------------ *)

(* A bounded single-consumer inbox: the owning domain drains it, any
   domain pushes into it.  Fixed capacity keeps the cross-shard traffic
   memory-bounded on huge corpora; see [push_remote] for why a full inbox
   can never deadlock the system. *)
type inbox = {
  ibuf : int array;
  mutable ihead : int;  (* next slot to pop *)
  mutable ilen : int;
  imutex : Mutex.t;
  inonempty : Condition.t;
}

let inbox_capacity = 1024

(* Exactly [jobs] domains, never fewer: [owners] names domains in
   [0, jobs), and a node owned by a domain outside the run would never be
   seeded — the run would wait forever.  A caller with fewer nodes than
   domains lowers [jobs] (and its owners) itself. *)
let check_owners ~jobs (owners : int array) order =
  Array.iter
    (fun i ->
      let o = owners.(i) in
      if o < 0 || o >= jobs then
        invalid_arg
          (Printf.sprintf "Par.wavefront: node %d owned by domain %d of %d" i
             o jobs))
    order

let wavefront ~jobs ~(owners : int array) ~order ~deps ~dependents process =
  let n = Array.length order in
  Trace.add c_tasks n;
  (* Checked before the pool is tried, so a bad assignment fails the same
     way whether or not another run holds the pool. *)
  if jobs > 1 && n > 1 then check_owners ~jobs owners order;
  if jobs <= 1 || n <= 1 || not (acquire ()) then Array.iter process order
  else begin
    let pending =
      Array.map (fun ds -> Atomic.make (List.length ds)) deps
    in
    let remaining = Atomic.make n in
    let err = Atomic.make None in
    let inboxes =
      Array.init jobs (fun _ ->
          {
            ibuf = Array.make inbox_capacity 0;
            ihead = 0;
            ilen = 0;
            imutex = Mutex.create ();
            inonempty = Condition.create ();
          })
    in
    (* Private per-domain ready stacks; only the owning domain touches its
       stack, so the per-node hot path has no shared frontier lock at all. *)
    let stacks =
      Array.init jobs (fun _ -> { Arena.sbuf = Array.make 256 0; slen = 0 })
    in
    let handoffs = Atomic.make 0 in
    (* Wake every domain: run end (remaining = 0) and errors must unblock
       workers asleep on their own inbox. *)
    let wake_all () =
      Array.iter
        (fun q ->
          Mutex.lock q.imutex;
          Condition.broadcast q.inonempty;
          Mutex.unlock q.imutex)
        inboxes
    in
    (* Move everything queued in [d]'s inbox onto [d]'s private stack.
       Never blocks; returns whether anything arrived. *)
    let drain_inbox d =
      let q = inboxes.(d) in
      Mutex.lock q.imutex;
      let got = q.ilen > 0 in
      while q.ilen > 0 do
        Arena.push stacks.(d) q.ibuf.(q.ihead);
        q.ihead <- (q.ihead + 1) mod inbox_capacity;
        q.ilen <- q.ilen - 1
      done;
      Mutex.unlock q.imutex;
      got
    in
    (* Hand a ready node to its owner.  When the owner's inbox is full the
       pusher drains its *own* inbox and retries: in any cycle of domains
       blocked on mutually full inboxes, every participant's drain frees
       its counterpart's push, so the cycle always dissolves — the classic
       bounded-handoff deadlock is structurally impossible. *)
    let rec push_remote d o j =
      let q = inboxes.(o) in
      Mutex.lock q.imutex;
      if q.ilen < inbox_capacity then begin
        q.ibuf.((q.ihead + q.ilen) mod inbox_capacity) <- j;
        q.ilen <- q.ilen + 1;
        Condition.signal q.inonempty;
        Mutex.unlock q.imutex
      end
      else begin
        Mutex.unlock q.imutex;
        ignore (drain_inbox d);
        if Atomic.get err = None then push_remote d o j
      end
    in
    let enqueue d j =
      let o = owners.(j) in
      if o = d then Arena.push stacks.(d) j
      else begin
        Atomic.incr handoffs;
        push_remote d o j
      end
    in
    (* Seed: each domain claims its own roots, scanning [order] once so
       low-index roots sit on top of no one and dispatch first.  Roots are
       the *statically* dependency-free nodes: testing the mutable pending
       counter instead would race with completions already running on other
       domains (a node whose count just reached zero is enqueued by its
       last dependency's completer AND seen as zero by its owner's scan —
       a double enqueue that underflows [remaining]). *)
    let seed d =
      Array.iter
        (fun i ->
          if owners.(i) = d && deps.(i) = [] then Arena.push stacks.(d) i)
        order
    in
    let solved_flush = 256 in
    let domain_main d =
      seed d;
      let solved_batch = ref 0 in
      let continue = ref true in
      while !continue do
        (* Opportunistic drain: keeps this domain's inbox short even while
           its private stack stays busy, so remote pushers rarely stall.
           The unsynchronised length read is a heuristic only. *)
        if inboxes.(d).ilen > 0 then ignore (drain_inbox d);
        if Atomic.get err <> None then continue := false
        else if not (Arena.is_empty stacks.(d)) then begin
          let i = Arena.pop stacks.(d) in
          (* The whole unit — node body and completion bookkeeping — sits
             under one handler: an exception escaping the completion would
             otherwise kill this domain silently and leave the others
             asleep forever. *)
          try
            process i;
            incr solved_batch;
            if !solved_batch >= solved_flush then begin
              Trace.add c_shard_solved !solved_batch;
              solved_batch := 0
            end;
            List.iter
              (fun j ->
                if Atomic.fetch_and_add pending.(j) (-1) = 1 then enqueue d j)
              dependents.(i);
            if Atomic.fetch_and_add remaining (-1) = 1 then wake_all ()
          with e ->
            record_error err e;
            wake_all ();
            continue := false
        end
        else begin
          (* Private stack empty: sleep on the inbox until a handoff, the
             end of the run, or an error arrives. *)
          let q = inboxes.(d) in
          Mutex.lock q.imutex;
          if
            q.ilen = 0
            && Atomic.get remaining > 0
            && Atomic.get err = None
          then
            Trace.span ~timing:true "par:idle" (fun () ->
                while
                  q.ilen = 0
                  && Atomic.get remaining > 0
                  && Atomic.get err = None
                do
                  Trace.incr c_idle;
                  Condition.wait q.inonempty q.imutex
                done);
          Mutex.unlock q.imutex;
          if Atomic.get remaining = 0 || Atomic.get err <> None then
            continue := false
        end
      done;
      if !solved_batch > 0 then Trace.add c_shard_solved !solved_batch
    in
    (* Domain [d] of the run is pool worker [d]: each needs its identity
       for stack and inbox affinity. *)
    Fun.protect
      ~finally:(fun () -> Trace.add c_shard_handoffs (Atomic.get handoffs))
      (fun () -> run_pool jobs err domain_main)
  end
