(** Domain-based parallel execution primitives (see the interface for the
    determinism and safety contracts).

    Every parallel run spawns its worker domains and joins them before it
    returns, so no domain outlives its run and an idle process has none to
    stop at each minor collection.
    [parallel_init] hands out indices from one atomic counter, so there is
    no work queue to balance and no per-task allocation. *)

module Trace = Fsicp_trace.Trace

(* [par.tasks] counts every work item handed to [parallel_init],
   sequential fast path included, so its total is invariant in [jobs].
   Parallel runs and domain spawns are scheduling artefacts: deterministic
   at a fixed [jobs] but varying across counts (and with whether a run
   found the token free), hence [~stable:false]. *)
let c_tasks = Trace.counter "par.tasks"
let c_pools = Trace.counter ~stable:false "par.pools"
let c_spawned = Trace.counter ~stable:false "par.domains_spawned"

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

(* -- Size cutoff -------------------------------------------------------- *)

(* Below this procedure count two domains were not reliably faster in
   wall time than one on the 2-core VM, and always cost more CPU
   (DESIGN.md, "Parallel execution model"). *)
let cutoff = 2_000

let domains ~jobs n = if n < cutoff then 1 else max 1 (min jobs n)

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
