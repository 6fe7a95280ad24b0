(** The Program Call Graph (PCG) and its traversal orders.

    Nodes are procedures; there is one edge per call {e site} (the paper's
    methods are call-site-sensitive: each call site carries its own constant
    list).  The flow-sensitive ICP needs:

    - a forward traversal order in which a procedure is visited after as many
      of its callers as possible (reverse postorder of a DFS from [main]);
    - a classification of call edges into {e forward} edges (caller visited
      before callee in that order) and {e back} edges — the back edges are
      the ones for which the flow-insensitive solution is substituted
      (paper §3.2);
    - the back-edge / total-edge ratio, the paper's measure of how
      flow-insensitive the combined solution is;
    - Tarjan's strongly-connected components, used to detect recursion and
      by the tests.

    Only procedures reachable from [main] participate, matching the paper's
    measurements ("we only include measurements for procedures that are
    reachable from the main procedure").

    The build mints the program database ({!Fsicp_prog.Prog}): each
    reachable procedure's {!Prog.Proc.id} is its reverse-postorder index,
    adjacency is dense arrays indexed by id, and the back-edge set is a flat
    bitset over the caller-major call-site numbering — no string hashing on
    any analysis path. *)

open Fsicp_lang
open Fsicp_prog

type edge = {
  caller : Prog.Proc.id;
  callee : Prog.Proc.id;
  cs_index : int;
      (** call-site index within the caller, in textual order; matches the
          [cs_id] assigned by {!Fsicp_cfg.Lower} *)
  back : bool;
}

type t = {
  mutable prog : Ast.program;  (** see {!replace_proc} *)
  asts : (string, Ast.proc) Hashtbl.t;
      (** name → AST index over [prog.procs]; kept by {!replace_proc}.  The
          list scan it replaces made every per-procedure [proc_ast] O(n) —
          quadratic across lowering on the 10⁴–10⁶-procedure corpora. *)
  scope : Sema.scope;  (** [prog]'s name table, shared by every procedure *)
  db : Prog.t;
  nodes : Prog.Proc.id array;
  edges : edge list;
  out_adj : edge array array;
  in_adj : edge array array;
  cs_base : int array;
  back_bits : Prog.Bits.t;
  acyclic : bool;
}

let index_asts (prog : Ast.program) : (string, Ast.proc) Hashtbl.t =
  let asts = Hashtbl.create (2 * List.length prog.Ast.procs) in
  (* First definition wins, matching [Ast.find_proc_exn]'s front-to-back
     scan (duplicate procedures are a [Sema.check] error anyway). *)
  List.iter
    (fun (p : Ast.proc) ->
      if not (Hashtbl.mem asts p.Ast.pname) then
        Hashtbl.add asts p.Ast.pname p)
    prog.Ast.procs;
  asts

let n_procs t = Prog.n_procs t.db
let proc_id t name = Prog.proc_id t.db name
let proc_id_exn t name = Prog.proc_id_exn t.db name
let proc_name t id = Prog.proc_name t.db id

let proc_ast t id =
  let name = proc_name t id in
  match Hashtbl.find_opt t.asts name with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Ast.find_proc_exn: %s" name)

let is_reachable t name = Prog.mem t.db name
let find_ast t name = Hashtbl.find_opt t.asts name

(** Build the PCG of [prog], restricted to procedures reachable from the
    entry.  Back edges are classified by the DFS that discovers the graph:
    an edge to a procedure currently on the DFS stack is a back edge (this
    includes self-recursion).  Cross and forward DFS edges are "forward" for
    the topological traversal, since their target is finished before the
    source in reverse postorder. *)
let build (prog : Ast.program) : t =
  let asts = index_asts prog in
  let find_ast name =
    match Hashtbl.find_opt asts name with
    | Some p -> p
    | None -> invalid_arg (Printf.sprintf "Ast.find_proc_exn: %s" name)
  in
  (* Discovery pass over names; ids exist only once the RPO is known.  The
     DFS uses an explicit frame stack — a 10⁵-deep generated call chain
     would overflow the OS stack with native recursion — but visits edges
     in exactly the order the recursive formulation did: record the edge,
     descend immediately into a fresh non-back callee, resume the caller's
     remaining call sites afterwards. *)
  let on_stack = Hashtbl.create 16 in
  let finished = Hashtbl.create 16 in
  let order = ref [] in
  let raw_edges = ref [] in
  let frames = ref [] in
  let push name =
    Hashtbl.replace on_stack name ();
    let p = find_ast name in
    frames := (name, Array.of_list (Ast.call_sites p), ref 0) :: !frames
  in
  push prog.Ast.main;
  let running = ref true in
  while !running do
    match !frames with
    | [] -> running := false
    | (name, sites, next) :: rest ->
        if !next < Array.length sites then begin
          let cs_index = !next in
          let callee, _args, _pos = sites.(cs_index) in
          incr next;
          let back = Hashtbl.mem on_stack callee in
          raw_edges := (name, callee, cs_index, back) :: !raw_edges;
          if (not back) && not (Hashtbl.mem finished callee) then push callee
        end
        else begin
          frames := rest;
          Hashtbl.remove on_stack name;
          Hashtbl.replace finished name ();
          order := name :: !order
        end
  done;
  let db = Prog.of_names (Array.of_list !order) in
  let n = Prog.n_procs db in
  let nodes = Prog.procs db in
  let edges =
    List.rev_map
      (fun (caller, callee, cs_index, back) ->
        {
          caller = Prog.proc_id_exn db caller;
          callee = Prog.proc_id_exn db callee;
          cs_index;
          back;
        })
      !raw_edges
  in
  (* Dense adjacency.  Every call site of a reachable procedure targets a
     reachable procedure, so each caller's out-row is exactly its call
     sites: row length = call-site count, row index = cs_index. *)
  let out_deg = Array.make n 0 and in_deg = Array.make n 0 in
  List.iter
    (fun e ->
      out_deg.((e.caller :> int)) <- out_deg.((e.caller :> int)) + 1;
      in_deg.((e.callee :> int)) <- in_deg.((e.callee :> int)) + 1)
    edges;
  let dummy =
    match edges with [] -> None | e :: _ -> Some e
  in
  let mk deg =
    Array.init n (fun i ->
        match dummy with
        | None -> [||]
        | Some d -> Array.make deg.(i) d)
  in
  let out_adj = mk out_deg and in_adj = mk in_deg in
  let in_fill = Array.make n 0 in
  List.iter
    (fun e ->
      let c = (e.caller :> int) and k = (e.callee :> int) in
      out_adj.(c).(e.cs_index) <- e;
      in_adj.(k).(in_fill.(k)) <- e;
      in_fill.(k) <- in_fill.(k) + 1)
    edges;
  (* Caller-major global call-site numbering and the back-edge bitset. *)
  let cs_base = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    cs_base.(i + 1) <- cs_base.(i) + out_deg.(i)
  done;
  let back_bits = Prog.Bits.create cs_base.(n) in
  List.iter
    (fun e ->
      if e.back then
        Prog.Bits.set back_bits (cs_base.((e.caller :> int)) + e.cs_index))
    edges;
  { prog; asts; scope = Sema.scope prog; db; nodes; edges; out_adj; in_adj;
    cs_base; back_bits; acyclic = Prog.Bits.count back_bits = 0 }

let is_back_edge _t (e : edge) = e.back

(** O(1) back-edge query by call site, without materialising the edge. *)
let is_back_edge_at t ~(caller : Prog.Proc.id) ~cs_index =
  Prog.Bits.mem t.back_bits (t.cs_base.((caller :> int)) + cs_index)

(** Forward topological traversal order (callers before callees, up to back
    edges): the DFS reverse postorder computed by {!build}. *)
let forward_order t = Array.copy t.nodes

(** Reverse topological order (callees before callers, up to back edges);
    the order of the paper's "backward walk" and of the USE computation. *)
let reverse_order t =
  let n = Array.length t.nodes in
  Array.init n (fun i -> t.nodes.(n - 1 - i))

(** Call edges into [callee], in global edge order. *)
let in_edges t (callee : Prog.Proc.id) = t.in_adj.((callee :> int))

(** Call edges out of [caller], in call-site order ([cs_index]-indexed). *)
let out_edges t (caller : Prog.Proc.id) = t.out_adj.((caller :> int))

let n_call_sites t (p : Prog.Proc.id) = Array.length t.out_adj.((p :> int))
let edge_at t ~caller ~cs_index = (out_edges t caller).(cs_index)
let has_cycles t = not t.acyclic

(** Downstream cone: the forward-edge closure of [seeds] —
    every procedure whose flow-sensitive entry environment can be reached
    by a chain of {e forward} call edges from a seed, seeds included.
    Back edges are excluded: their contribution to an entry meet comes
    from the flow-insensitive seed solution, not from the caller's
    flow-sensitive call records, so an edit's effects never propagate
    along them (the incremental re-solve accounts for them separately, by
    diffing the flow-insensitive call records).

    Runs on the dense out-adjacency with a flat byte mark per procedure
    and touches only the cone's edges; the result is in ascending id
    order, which is the reverse-postorder forward traversal order —
    exactly the sub-sweep the incremental re-solve drives. *)
let cone t ~(seeds : Prog.Proc.id list) : Prog.Proc.id array =
  let marked = Bytes.make (n_procs t) '\000' in
  let members = ref [] and stack = ref [] in
  let visit i =
    if Bytes.get marked i = '\000' then begin
      Bytes.set marked i '\001';
      members := i :: !members;
      stack := i :: !stack
    end
  in
  List.iter (fun (pid : Prog.Proc.id) -> visit (pid :> int)) seeds;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | i :: tl ->
        stack := tl;
        Array.iter
          (fun e -> if not e.back then visit (e.callee :> int))
          t.out_adj.(i)
  done;
  let out = Array.of_list !members in
  Array.sort Int.compare out;
  Array.map (fun i -> t.nodes.(i)) out

(** Swap in the program after procedure [p]'s body was edited: [p]
    replaces the AST of its name in the index, in place.  In contract only
    when the PCG shape is unchanged: same reachable procedures, same callee
    sequence per procedure (the incremental engine checks this before
    calling). *)
let replace_proc t (prog : Ast.program) (p : Ast.proc) =
  t.prog <- prog;
  Hashtbl.replace t.asts p.Ast.pname p

(** The PCG of [prog], which calls exactly what [t]'s program calls: a new
    record sharing [t]'s nodes, edges, adjacency, call-site numbering,
    back-edge bits and acyclicity, with its own program and its own name index.  [t]'s
    index is never touched, so [t] keeps answering {!proc_ast} with its
    own program's procedures.  The scope carries over when the globals
    list is physically [t]'s. *)
let with_program t (prog : Ast.program) : t =
  let scope =
    if prog.Ast.globals == t.prog.Ast.globals then t.scope
    else Sema.scope prog
  in
  { t with prog; asts = index_asts prog; scope }

(** Back-edge ratio |back| / |edges| — the paper's measure of how much
    flow-insensitive information the combined FS solution uses (§3.2).
    0 when the PCG is acyclic (pure flow-sensitive); approaches 1 as the
    solution degenerates to the flow-insensitive one. *)
let back_edge_ratio t =
  let total = Prog.Bits.length t.back_bits in
  if total = 0 then 0.0
  else float_of_int (Prog.Bits.count t.back_bits) /. float_of_int total

(** Strongly connected components (Tarjan) over the call edges: [f]
    receives each component's node ids, callees' components first (reverse
    topological order of the condensation).  An explicit frame stack, since
    generated call chains run 10⁵ deep. *)
let iter_sccs (t : t) (f : int list -> unit) =
  let n = n_procs t in
  let index = Array.make n (-1) and low = Array.make n 0 in
  let on_stack = Bytes.make n '\000' in
  let frame_v = Array.make n 0 and frame_k = Array.make n 0 in
  let depth = ref 0 and counter = ref 0 and stack = ref [] in
  let push v =
    index.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    Bytes.set on_stack v '\001';
    frame_v.(!depth) <- v;
    frame_k.(!depth) <- 0;
    incr depth
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      push root;
      while !depth > 0 do
        let d = !depth - 1 in
        let v = frame_v.(d) and k = frame_k.(d) in
        let out = t.out_adj.(v) in
        if k < Array.length out then begin
          frame_k.(d) <- k + 1;
          let w = (out.(k).callee :> int) in
          if index.(w) < 0 then push w
          else if Bytes.get on_stack w = '\001' then
            low.(v) <- min low.(v) index.(w)
        end
        else begin
          depth := d;
          if d > 0 then begin
            let u = frame_v.(d - 1) in
            low.(u) <- min low.(u) low.(v)
          end;
          if low.(v) = index.(v) then begin
            let rec pop acc =
              match !stack with
              | [] -> acc
              | w :: tl ->
                  stack := tl;
                  Bytes.set on_stack w '\000';
                  if w = v then w :: acc else pop (w :: acc)
            in
            f (pop [])
          end
        end
      done
    end
  done

(** {!iter_sccs} as lists of names. *)
let sccs (t : t) : string list list =
  let comps = ref [] in
  iter_sccs t (fun c ->
      comps := List.map (fun v -> Prog.proc_name t.db t.nodes.(v)) c :: !comps);
  List.rev !comps

let pp ppf t =
  Fmt.pf ppf "PCG: %d node(s), %d edge(s), %d back edge(s)@\n"
    (Array.length t.nodes) (List.length t.edges)
    (Prog.Bits.count t.back_bits);
  List.iter
    (fun e ->
      Fmt.pf ppf "  %s --[cs%d]--> %s%s@\n" (proc_name t e.caller) e.cs_index
        (proc_name t e.callee)
        (if e.back then " (back)" else ""))
    t.edges
