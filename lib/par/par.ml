(** Domain-based parallel execution primitives (see the interface for the
    determinism and safety contracts).

    Every parallel run spawns its worker domains and joins them before it
    returns, so no domain outlives its run and an idle process has none to
    stop at each minor collection.
    [parallel_init] hands out indices from one atomic counter, so there is
    no work queue to balance and no per-task allocation.  The wavefront
    scheduler keeps atomic pending counts and per-domain ready stacks,
    taking a lock only to hand a node to another domain's inbox — never
    inside [process] — so the hot path (the per-node analysis itself) runs
    lock-free. *)

module Trace = Fsicp_trace.Trace

(* [par.tasks] counts every work item handed to a combinator, sequential
   fast paths included, so its total is invariant in [jobs].  Parallel
   runs, domain spawns and idle waits are scheduling artefacts: runs and
   spawns are deterministic at a fixed [jobs] but vary across counts (and
   whether a run found the token free), and idle waits are inherently
   racy, hence [~stable:false]. *)
let c_tasks = Trace.counter "par.tasks"
let c_pools = Trace.counter ~stable:false "par.pools"
let c_spawned = Trace.counter ~stable:false "par.domains_spawned"
let c_idle = Trace.counter ~stable:false "par.idle_waits"

(* Wavefront progress and traffic.  Both are scheduling artefacts (they
   depend on which domain reached which node first), hence
   [~stable:false]; each domain adds its share when the run ends. *)
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
   each spawned domain adds what it allocated in its run to these totals
   before it returns.  Direct major words (major less promoted)
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

(* -- Runs ---------------------------------------------------------------- *)

(* One run at a time.  A domain that cannot take the token — a call nested
   inside a task, or a second domain calling while a run is in flight —
   gets [false] from [acquire] and runs sequentially, so a run never waits
   on another run. *)
let busy = Atomic.make false
let acquire () = Atomic.compare_and_set busy false true

(* Run [body d] for every [d] in [0, k) on a token the caller already
   holds, and give the token back.  Domain 0 is the caller; the run spawns
   the other [k - 1] and joins them before it returns, so no domain
   outlives its run.  The spawned domains wait on [start], which the
   caller holds while it spawns: a spawn that fails sets [err] before any
   body starts, so every body stops at once instead of waiting on the
   missing domain's share.  The first exception any [body d] raised is
   recorded in [err] (the bodies poll it to stop early) and re-raised once
   every domain has finished. *)
let run_pool k (err : exn option Atomic.t) body =
  Trace.incr c_pools;
  let guarded d = try body d with e -> record_error err e in
  let start = Mutex.create () in
  let worker d () =
    Mutex.lock start;
    Mutex.unlock start;
    let minor0, major0 = own_words () in
    guarded d;
    let minor1, major1 = own_words () in
    Atomic.fetch_and_add worker_minor (int_of_float (minor1 -. minor0))
    |> ignore;
    Atomic.fetch_and_add worker_major (int_of_float (major1 -. major0))
    |> ignore
  in
  Fun.protect
    ~finally:(fun () -> Atomic.set busy false)
    (fun () ->
      Trace.span ~timing:true "par:pool" (fun () ->
          Mutex.lock start;
          let rec spawn d acc =
            if d >= k then acc
            else
              match Domain.spawn (worker d) with
              | dom ->
                  Trace.incr c_spawned;
                  spawn (d + 1) (dom :: acc)
              | exception e ->
                  record_error err e;
                  acc
          in
          let doms = spawn 1 [] in
          Mutex.unlock start;
          guarded 0;
          List.iter Domain.join doms));
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

  let new_stack () = { sbuf = Array.make 256 0; slen = 0 }

  let create () =
    {
      epoch = 0;
      stamps = Array.make 1024 0;
      reserved = 0;
      sa = new_stack ();
      sb = new_stack ();
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

(* A single-consumer inbox: the owning domain drains it, any domain pushes
   into it, both under [imutex].  Each node is handed over at most once, so
   an inbox never holds more than the nodes its owner owns. *)
type inbox = { items : Arena.stack; imutex : Mutex.t; inonempty : Condition.t }

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
  (* Checked before the token is tried, so a bad assignment fails the same
     way whether or not another run holds it. *)
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
            items = Arena.new_stack ();
            imutex = Mutex.create ();
            inonempty = Condition.create ();
          })
    in
    (* Private per-domain ready stacks; only the owning domain touches its
       stack, so the per-node hot path has no shared frontier lock at all. *)
    let stacks = Array.init jobs (fun _ -> Arena.new_stack ()) in
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
    (* Hand a ready node to its owner. *)
    let enqueue d j =
      let o = owners.(j) in
      if o = d then Arena.push stacks.(d) j
      else begin
        Atomic.incr handoffs;
        let q = inboxes.(o) in
        Mutex.lock q.imutex;
        Arena.push q.items j;
        Condition.signal q.inonempty;
        Mutex.unlock q.imutex
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
    let domain_main d =
      seed d;
      let solved = ref 0 in
      let continue = ref true in
      while !continue do
        (* Move handed-over nodes onto the private stack, in arrival order,
           as soon as they arrive, not only once the stack runs dry: they go
           on top and run next, since the domain that handed one over may
           be waiting on their dependents.  The unsynchronised emptiness
           read is a heuristic only. *)
        let q = inboxes.(d) in
        if not (Arena.is_empty q.items) then begin
          Mutex.lock q.imutex;
          for k = 0 to q.items.Arena.slen - 1 do
            Arena.push stacks.(d) q.items.Arena.sbuf.(k)
          done;
          q.items.Arena.slen <- 0;
          Mutex.unlock q.imutex
        end;
        if Atomic.get err <> None then continue := false
        else if not (Arena.is_empty stacks.(d)) then begin
          let i = Arena.pop stacks.(d) in
          (* The whole unit — node body and completion bookkeeping — sits
             under one handler: an exception escaping the completion would
             otherwise kill this domain silently and leave the others
             asleep forever. *)
          try
            process i;
            incr solved;
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
          let idle () =
            Arena.is_empty q.items
            && Atomic.get remaining > 0
            && Atomic.get err = None
          in
          Mutex.lock q.imutex;
          if idle () then
            Trace.span ~timing:true "par:idle" (fun () ->
                while idle () do
                  Trace.incr c_idle;
                  Condition.wait q.inonempty q.imutex
                done);
          Mutex.unlock q.imutex;
          if Atomic.get remaining = 0 || Atomic.get err <> None then
            continue := false
        end
      done;
      Trace.add c_shard_solved !solved
    in
    (* Domain [d] of the run owns stack and inbox [d]. *)
    Fun.protect
      ~finally:(fun () -> Trace.add c_shard_handoffs (Atomic.get handoffs))
      (fun () -> run_pool jobs err domain_main)
  end
