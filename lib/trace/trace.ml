(* See the interface for the event model and determinism rules.  The
   implementation splits into three independent parts: a process-wide counter
   registry, per-domain event/counter buffers, and the flush (which parses
   each buffer's flat event log back into span trees, canonicalises them,
   and prints Chrome trace_event JSON). *)

(* ------------------------------------------------------------------ *)
(* Counter registry: names and stability flags are process-global and
   registered under a mutex (registration is rare — once per counter per
   program); the id is an index into every buffer's counts array. *)

type counter = int

let reg_mu = Mutex.create ()
let reg_tbl : (string, int) Hashtbl.t = Hashtbl.create 32
let reg_names : string array ref = ref (Array.make 16 "")
let reg_stable : bool array ref = ref (Array.make 16 true)
let reg_len = ref 0

let counter ?(stable = true) name =
  Mutex.lock reg_mu;
  let id =
    match Hashtbl.find_opt reg_tbl name with
    | Some id -> id
    | None ->
        let id = !reg_len in
        let cap = Array.length !reg_names in
        if id = cap then begin
          let names = Array.make (2 * cap) "" in
          let stab = Array.make (2 * cap) true in
          Array.blit !reg_names 0 names 0 cap;
          Array.blit !reg_stable 0 stab 0 cap;
          reg_names := names;
          reg_stable := stab
        end;
        !reg_names.(id) <- name;
        !reg_stable.(id) <- stable;
        incr reg_len;
        Hashtbl.add reg_tbl name id;
        id
  in
  Mutex.unlock reg_mu;
  id

(* ------------------------------------------------------------------ *)
(* Per-domain buffers.  Each domain records into its own buffer with plain
   (unsynchronised) stores; buffers are registered once into a global list
   via CAS and are never removed, so events and counts survive the death of
   the domain that wrote them.  A domain that exits hands its buffer to the
   next domain to start recording (see [buf_key]).  Reads of foreign
   buffers only happen at quiescent points (flush/reset), after the writing
   domains were joined. *)

type ev =
  | Begin of {
      epoch : int;
      name : string;
      args : (string * string) list;
      timing : bool;
      detach : bool;
      t : float;
    }
  | End of { t : float }

type buf = {
  mutable evs : ev array;
  mutable elen : int;
  mutable counts : int array;
  mutable gen : int;
}

let dummy_ev = End { t = 0.0 }
let all_bufs : buf list Atomic.t = Atomic.make []

(* Buffers of exited domains, waiting for a new owner. *)
let free_bufs : buf list Atomic.t = Atomic.make []

(* Reset is lazy: bumping [generation] logically clears every buffer at
   once, and each buffer physically clears itself on its next record.
   This keeps [reset] O(1) — walking the registry (or letting events pile
   up) is exactly the overhead a traced solve would otherwise pay. *)
let generation = Atomic.make 0
let live b = b.gen = Atomic.get generation

let rec push_buf l b =
  let old = Atomic.get l in
  if not (Atomic.compare_and_set l old (b :: old)) then push_buf l b

(* Each push allocates a fresh cons cell, so a CAS on the list head cannot
   succeed against a head that was popped and pushed back meanwhile. *)
let rec pop_buf l =
  match Atomic.get l with
  | [] -> None
  | b :: rest as old ->
      if Atomic.compare_and_set l old rest then Some b else pop_buf l

(* A domain's first record takes the buffer of a domain that has exited,
   and registers a new one only when none is free; its own exit frees it
   again.  The registry then holds one buffer per domain alive at once, not
   one per domain ever spawned, however many runs spawn and join their
   workers.  A recycled log stays well-bracketed: its previous owner closed
   every span before it exited.  The event array starts empty: a buffer
   that only ever records counters (the common case — spans are off by
   default) costs a couple hundred bytes. *)
let buf_key =
  Domain.DLS.new_key (fun () ->
      let b =
        match pop_buf free_bufs with
        | Some b -> b
        | None ->
            let b =
              {
                evs = [||];
                elen = 0;
                counts = Array.make 16 0;
                gen = Atomic.get generation;
              }
            in
            push_buf all_bufs b;
            b
      in
      Domain.at_exit (fun () -> push_buf free_bufs b);
      b)

let my_buf () =
  let b = Domain.DLS.get buf_key in
  let g = Atomic.get generation in
  if b.gen <> g then begin
    (* First record since the last reset: clear the stale contents.  Keep
       a modest event array for reuse; drop oversized ones so a buffer
       that once recorded a huge trace does not pin it forever. *)
    if Array.length b.evs > 1024 then b.evs <- [||];
    b.elen <- 0;
    Array.fill b.counts 0 (Array.length b.counts) 0;
    b.gen <- g
  end;
  b

let push_ev b e =
  let cap = Array.length b.evs in
  if b.elen = cap then begin
    let evs = Array.make (max 256 (2 * cap)) dummy_ev in
    Array.blit b.evs 0 evs 0 cap;
    b.evs <- evs
  end;
  b.evs.(b.elen) <- e;
  b.elen <- b.elen + 1

let add c n =
  let b = my_buf () in
  let cap = Array.length b.counts in
  if c >= cap then begin
    let counts = Array.make (max (c + 1) (2 * cap)) 0 in
    Array.blit b.counts 0 counts 0 cap;
    b.counts <- counts
  end;
  b.counts.(c) <- b.counts.(c) + n

let incr c = add c 1

let total_of_id id =
  List.fold_left
    (fun acc b ->
      if live b && id < Array.length b.counts then acc + b.counts.(id) else acc)
    0 (Atomic.get all_bufs)

let counter_total name =
  match Hashtbl.find_opt reg_tbl name with
  | None -> 0
  | Some id -> total_of_id id

let counters ?(all = false) () =
  let n = !reg_len in
  let out = ref [] in
  for id = n - 1 downto 0 do
    if all || !reg_stable.(id) then
      out := (!reg_names.(id), total_of_id id) :: !out
  done;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !out

let counters_table ?all () =
  let cs = counters ?all () in
  let w =
    List.fold_left (fun acc (name, _) -> max acc (String.length name)) 0 cs
  in
  let b = Buffer.create 256 in
  List.iter
    (fun (name, v) -> Buffer.add_string b (Printf.sprintf "%-*s %d\n" w name v))
    cs;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Spans. *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled v = Atomic.set enabled_flag v
let epoch = Atomic.make 0
let next_epoch () = Atomic.incr epoch

let span ?args ?(timing = false) ?(detach = false) name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let b = my_buf () in
    let a = match args with None -> [] | Some th -> th () in
    push_ev b
      (Begin
         {
           epoch = Atomic.get epoch;
           name;
           args = a;
           timing;
           detach;
           t = Unix.gettimeofday ();
         });
    Fun.protect ~finally:(fun () -> push_ev b (End { t = Unix.gettimeofday () })) f
  end

let reset () =
  Atomic.incr generation;
  Atomic.set epoch 0

(* ------------------------------------------------------------------ *)
(* Flush: parse each buffer's flat log into span trees, then print. *)

type node = {
  n_epoch : int;
  n_name : string;
  n_args : (string * string) list;
  n_timing : bool;
  n_detach : bool;
  n_t0 : float;
  mutable n_t1 : float;
  mutable n_children : node list;
}

(* Rebuild the span forest of one buffer.  The log is well-bracketed per
   domain by construction ([span] closes on exceptions too); any span still
   open at a flush — only possible if the flush point was not quiescent —
   is closed with zero duration rather than dropped. *)
let parse_buf b =
  let roots = ref [] in
  let stack = ref [] in
  let close n t rest =
    n.n_t1 <- t;
    n.n_children <- List.rev n.n_children;
    (match rest with
    | p :: _ -> p.n_children <- n :: p.n_children
    | [] -> roots := n :: !roots);
    stack := rest
  in
  for i = 0 to b.elen - 1 do
    match b.evs.(i) with
    | Begin { epoch; name; args; timing; detach; t } ->
        stack :=
          {
            n_epoch = epoch;
            n_name = name;
            n_args = args;
            n_timing = timing;
            n_detach = detach;
            n_t0 = t;
            n_t1 = t;
            n_children = [];
          }
          :: !stack
    | End { t } -> (
        match !stack with n :: rest -> close n t rest | [] -> ())
  done;
  while !stack <> [] do
    match !stack with
    | n :: rest -> close n n.n_t0 rest
    | [] -> assert false
  done;
  List.rev !roots

(* Move every detached descendant (a work item that happened to run on this
   domain) out of its enclosing stack, preserving recording order. *)
let rec strip_detach lifted node =
  node.n_children <-
    List.filter
      (fun c ->
        strip_detach lifted c;
        if c.n_detach then begin
          lifted := c :: !lifted;
          false
        end
        else true)
      node.n_children

(* Replace timing-only spans by their children, recursively. *)
let rec expand_timing node =
  let kids = List.concat_map expand_timing node.n_children in
  if node.n_timing then kids
  else begin
    node.n_children <- kids;
    [ node ]
  end

let args_key args =
  String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) args)

let root_compare a b =
  let c = compare a.n_epoch b.n_epoch in
  if c <> 0 then c
  else
    let c = String.compare a.n_name b.n_name in
    if c <> 0 then c else String.compare (args_key a.n_args) (args_key b.n_args)

(* Inclusive wall time and call count per span name, over every live
   buffer, sorted by name. *)
let span_totals () : (string * int * float) list =
  let tbl = Hashtbl.create 32 in
  let rec add n =
    let calls, secs =
      Option.value (Hashtbl.find_opt tbl n.n_name) ~default:(0, 0.0)
    in
    Hashtbl.replace tbl n.n_name (calls + 1, secs +. (n.n_t1 -. n.n_t0));
    List.iter add n.n_children
  in
  List.iter
    (fun b -> if live b then List.iter add (parse_buf b))
    (Atomic.get all_bufs);
  Hashtbl.fold (fun name (calls, secs) acc -> (name, calls, secs) :: acc) tbl []
  |> List.sort compare

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

type mode = Logical | Wall

let emit_event out ~first ~name ~ph ~pid ~tid ~ts ~args =
  if !first then first := false else Buffer.add_string out ",\n";
  Buffer.add_string out
    (Printf.sprintf {|{"name":"%s","ph":"%s","pid":%d,"tid":%d,"ts":%d|}
       (json_escape name) ph pid tid ts);
  (match args with
  | [] -> ()
  | args ->
      Buffer.add_string out {|,"args":{|};
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char out ',';
          Buffer.add_string out
            (Printf.sprintf {|"%s":%s|} (json_escape k) v))
        args;
      Buffer.add_char out '}');
  Buffer.add_char out '}'

let str v = Printf.sprintf {|"%s"|} (json_escape v)

(* [skip_zero] drops never-exercised counters, which makes the logical
   document independent of the set of linked modules (registration happens
   at module init, so two binaries tracing the same work can differ in
   which zero counters merely exist). *)
let emit_counters out ~first ~all ~skip_zero ~ts =
  List.iter
    (fun (name, v) ->
      if not (skip_zero && v = 0) then
        emit_event out ~first ~name ~ph:"C" ~pid:0 ~tid:0 ~ts
          ~args:[ ("value", string_of_int v) ])
    (counters ~all ())

let to_chrome_json ?(mode = Logical) () =
  (* Buffers are CAS-pushed, so the registry list is in reverse
     registration order; undo that so wall tids are first-come.  Stale
     buffers (no record since the last reset) are logically empty. *)
  let bufs = List.rev (List.filter live (Atomic.get all_bufs)) in
  let out = Buffer.create 4096 in
  let first = ref true in
  Buffer.add_string out "{\"traceEvents\":[\n";
  (match mode with
  | Logical ->
      let lifted = ref [] in
      let roots =
        List.concat_map
          (fun b ->
            let rs = parse_buf b in
            List.iter (strip_detach lifted) rs;
            rs)
          bufs
      in
      let roots = roots @ List.rev !lifted in
      let roots = List.concat_map expand_timing roots in
      let roots = List.stable_sort root_compare roots in
      let ts = ref 0 in
      let rec emit node =
        let args =
          ("epoch", string_of_int node.n_epoch)
          :: List.map (fun (k, v) -> (k, str v)) node.n_args
        in
        emit_event out ~first ~name:node.n_name ~ph:"B" ~pid:0 ~tid:0 ~ts:!ts
          ~args;
        Stdlib.incr ts;
        List.iter emit node.n_children;
        emit_event out ~first ~name:node.n_name ~ph:"E" ~pid:0 ~tid:0 ~ts:!ts
          ~args:[];
        Stdlib.incr ts
      in
      List.iter emit roots;
      emit_counters out ~first ~all:false ~skip_zero:true ~ts:!ts
  | Wall ->
      let t0 =
        List.fold_left
          (fun acc b ->
            let acc = ref acc in
            for i = 0 to b.elen - 1 do
              match b.evs.(i) with
              | Begin { t; _ } | End { t } -> if t < !acc then acc := t
            done;
            !acc)
          infinity bufs
      in
      let t0 = if t0 = infinity then 0.0 else t0 in
      let us t = int_of_float ((t -. t0) *. 1e6) in
      let tmax = ref 0 in
      List.iteri
        (fun tid b ->
          let rec emit node =
            let args =
              ("epoch", string_of_int node.n_epoch)
              :: List.map (fun (k, v) -> (k, str v)) node.n_args
            in
            emit_event out ~first ~name:node.n_name ~ph:"B" ~pid:0 ~tid
              ~ts:(us node.n_t0) ~args;
            List.iter emit node.n_children;
            let te = us node.n_t1 in
            if te > !tmax then tmax := te;
            emit_event out ~first ~name:node.n_name ~ph:"E" ~pid:0 ~tid ~ts:te
              ~args:[]
          in
          List.iter emit (parse_buf b))
        bufs;
      emit_counters out ~first ~all:true ~skip_zero:false ~ts:!tmax);
  Buffer.add_string out "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents out

let write_chrome_json ?mode path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_chrome_json ?mode ()))

(* FSICP_TRACE=path enables tracing for the whole process lifetime and
   flushes a wall-clock trace on exit — the zero-integration profiling
   path for any entry point. *)
let () =
  match Sys.getenv_opt "FSICP_TRACE" with
  | Some path when String.trim path <> "" ->
      set_enabled true;
      at_exit (fun () -> write_chrome_json ~mode:Wall path)
  | _ -> ()
