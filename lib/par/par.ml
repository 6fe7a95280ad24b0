(** Domain-based parallel execution primitives (see the interface for the
    determinism and safety contracts).

    The pool is deliberately minimal: [k-1] spawned domains plus the calling
    domain all pull indices from one atomic counter, so there is no work
    queue to balance and no per-task allocation.  The wavefront scheduler
    keeps atomic pending counts and per-domain ready stacks, taking a lock
    only to hand a node to another domain's inbox — never inside [process]
    — so the hot path (the per-node analysis itself) runs lock-free. *)

module Trace = Fsicp_trace.Trace

(* [par.tasks] counts every work item handed to a combinator, sequential
   fast paths included, so its total is invariant in [jobs].  Pool spawns
   and idle waits are scheduling artefacts: pools are deterministic at a
   fixed [jobs] but vary across counts, and idle waits are inherently
   racy, hence [~stable:false]. *)
let c_tasks = Trace.counter "par.tasks"
let c_pools = Trace.counter ~stable:false "par.pools"
let c_idle = Trace.counter ~stable:false "par.idle_waits"

(* Wavefront progress and traffic.  All three are scheduling
   artefacts (they depend on which domain reached which node first), hence
   [~stable:false]; [par.shard.solved] is flushed in batches during the
   run so a concurrent reader — the serve daemon's stats endpoint — sees
   live progress on a long corpus, not just the final total. *)
let c_shard_solved = Trace.counter ~stable:false "par.shard.solved"
let c_shard_handoffs = Trace.counter ~stable:false "par.shard.handoffs"
let c_shard_frontier = Trace.counter ~stable:false "par.shard.frontier_peak"

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

(* Run [worker] on [k-1] fresh domains and the current one, join, and
   re-raise the first exception any worker recorded. *)
let run_pool k (err : exn option Atomic.t) worker =
  Trace.incr c_pools;
  Trace.span ~timing:true "par:pool" (fun () ->
      let doms = Array.init (k - 1) (fun _ -> Domain.spawn worker) in
      worker ();
      Array.iter Domain.join doms);
  match Atomic.get err with Some e -> raise e | None -> ()

let record_error err e = ignore (Atomic.compare_and_set err None (Some e))

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
  if n = 0 then [||]
  else if jobs <= 1 || n = 1 then Array.init n f
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let err = Atomic.make None in
    let worker () =
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
  match l with
  | [] -> []
  | [ x ] ->
      Trace.add c_tasks 1;
      [ f x ]
  | _ ->
      let a = Array.of_list l in
      Array.to_list (parallel_init ~jobs (Array.length a) (fun i -> f a.(i)))

let both ~jobs f g =
  Trace.add c_tasks 2;
  if jobs <= 1 then
    let a = f () in
    let b = g () in
    (a, b)
  else begin
    let d = Domain.spawn g in
    let a = match f () with v -> Ok v | exception e -> Error e in
    (* Join unconditionally so the domain never leaks; [Domain.join]
       re-raises [g]'s own exception if it failed. *)
    let b = match Domain.join d with v -> Ok v | exception e -> Error e in
    match (a, b) with
    | Ok a, Ok b -> (a, b)
    | Error e, _ | _, Error e -> raise e
  end

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

let wavefront ~jobs ~(owners : int array) ~order ~deps ~dependents process =
  let n = Array.length order in
  Trace.add c_tasks n;
  if n = 0 then ()
  else if jobs <= 1 || n = 1 then Array.iter process order
  else begin
    (* Exactly [jobs] domains, never fewer: [owners] names domains in
       [0, jobs), and a node owned by a domain that was not spawned would
       never be seeded — the run would wait forever.  A caller with fewer
       nodes than domains lowers [jobs] (and its owners) itself. *)
    Array.iter
      (fun i ->
        let o = owners.(i) in
        if o < 0 || o >= jobs then
          invalid_arg
            (Printf.sprintf "Par.wavefront: node %d owned by domain %d of %d"
               i o jobs))
      order;
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
    let frontier = Atomic.make 0 and frontier_peak = Atomic.make 0 in
    let handoffs = Atomic.make 0 in
    let note_enqueued () =
      let cur = 1 + Atomic.fetch_and_add frontier 1 in
      let rec bump () =
        let p = Atomic.get frontier_peak in
        if cur > p && not (Atomic.compare_and_set frontier_peak p cur) then
          bump ()
      in
      bump ()
    in
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
      note_enqueued ();
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
          if owners.(i) = d && deps.(i) = [] then begin
            note_enqueued ();
            Arena.push stacks.(d) i
          end)
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
          ignore (Atomic.fetch_and_add frontier (-1));
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
    (* Explicit per-index domains: each worker needs its identity [d] for
       stack and inbox affinity, which the anonymous [run_pool] counter
       cannot provide. *)
    Trace.incr c_pools;
    Trace.span ~timing:true "par:pool" (fun () ->
        let doms =
          Array.init (jobs - 1) (fun k -> Domain.spawn (fun () -> domain_main (k + 1)))
        in
        domain_main 0;
        Array.iter Domain.join doms);
    Trace.add c_shard_handoffs (Atomic.get handoffs);
    Trace.add c_shard_frontier (Atomic.get frontier_peak);
    match Atomic.get err with Some e -> raise e | None -> ()
  end
