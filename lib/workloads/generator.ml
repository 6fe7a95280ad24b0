(** Synthetic MiniFort program generator.

    The SPECfp92 Fortran sources the paper measured are not available, so
    the suite is reproduced structurally: each benchmark becomes a
    deterministic generator instance whose {e mechanism mix} — immediate
    constants, colliding constants, pass-through chains, locally-computed
    constants, branch-pruned constants, block-data globals, flow-sensitive
    global constants, invisible globals — is tuned so that the paper's
    metrics land in the right regime (see DESIGN.md for the substitution
    argument and EXPERIMENTS.md for paper-vs-measured).

    The constant-argument {e classes} map one-to-one onto the phenomena the
    paper's methods are distinguished by:

    - [Fimm]: the same literal at every call site → found by every method
      (the IMM column), and the formal is a propagated constant.
    - [Fcollide]: a literal, but a {e different} one per site → counts as a
      call-site candidate, yet the formal meets to ⊥ (this is why SPICE has
      384 constant arguments but only 4 constant formals).
    - [Fpass]: the caller forwards its own unmodified formal → the
      pass-through effect (FI's [fp_bind]; pass-through/polynomial jump
      functions).
    - [Flocal_const]: the caller computes a local constant (straight-line
      or as the same constant on both branch arms) → any flow-sensitive
      intraprocedural analysis sees it; the flow-insensitive method cannot.
    - [Flocal_collide]: like [Flocal_const] but with per-site values → a
      flow-sensitive call-site candidate that doesn't make the formal
      constant.
    - [Fprune]: the constant only holds because the branch guarded by the
      {e selector} formal (always called with literal 0) is dead — visible
      to the full flow-sensitive interprocedural method only (paper
      Figure 1's [f2]).
    - [Fbot]: genuinely unknown.
    - [Fglobal]: a global passed by reference (feeds the alias analysis).

    Call-graph shape: a chain [main → p1 → … → pN] guarantees every
    procedure is reachable; extra forward calls fatten the DAG; optional
    guarded back-calls to chain ancestors create genuine PCG back edges
    whose density is the BACKEDGE experiment's knob.  Back-calls sit under
    an [if] on an uninitialised local (always 0 at run time), so generated
    programs terminate under the interpreter while the analyses still see
    a recursive PCG. *)

open Fsicp_lang

type formal_class =
  | Fselector
  | Fimm of Value.t
  | Fcollide
  | Fpass
  | Flocal_const of Value.t
  | Flocal_collide
  | Fprune of Value.t
  | Fout of Value.t
      (** an {e out parameter}: the callee assigns it this constant before
          returning; callers pass a fresh local by reference and read it
          after the call — the pattern the return-constants extension
          (paper §3.2) recovers *)
  | Fbot
  | Fglobal

type profile = {
  g_name : string;
  g_seed : int;
  g_procs : int;  (** procedures in addition to [main] *)
  g_fanout : int;
      (** arity of the call tree skeleton: procedure [i]'s guaranteed caller
          is [(i-1)/fanout], so depth is logarithmic — Fortran programs are
          shallow and wide, and deep chains would blow up the REF closures
          that the global call-site metric counts *)
  g_formals_min : int;
  g_formals_max : int;
  g_extra_calls : int * int;  (** extra forward calls per procedure (min, max) *)
  g_call_window : int;
      (** extra calls target procedures within [i+1, i+window] — locality
          keeps interprocedural REF closures realistic (0 = whole program) *)
  g_target_set : int;
      (** when > 0, each procedure's extra calls are spread over at most
          this many distinct callees — real callers invoke the same utility
          repeatedly, which is what makes most of Table 1's global constants
          {e visible} in the calling procedure *)
  g_cluster_root_pool : bool;
      (** sample read-cluster roots from the utility pool (high in-degree,
          many counting sites — SPICE-like) or uniformly (low in-degree,
          few counting sites — DODUC-like) *)
  g_extra_to_leaves : bool;
      (** when true, extra calls target {e leaf} procedures of the call
          tree — the "utility routine called from everywhere" shape of real
          Fortran programs.  Leaves call nothing, so their REF closure is
          just their own reads, which keeps the per-call-site global
          constant counts of Table 1 in the paper's regime instead of
          exploding with graph reachability *)
  g_back_edge_prob : float;  (** probability of a guarded back-call per proc *)
  g_formal_uses : int;
      (** per procedure: statements that use every formal once (substitution
          fodder — each use of an interprocedurally-constant formal counts) *)
  g_chain : int;
      (** per procedure: length of a local constant-computation chain, the
          intraprocedural substitutions every method (POLY/FI/FS) folds *)
  (* Argument class weights (per callee formal). *)
  g_w_imm : float;
  g_w_collide : float;
  g_w_pass : float;
  g_w_local_const : float;
  g_w_local_collide : float;
  g_w_prune : float;
  g_w_out : float;
  g_w_bot : float;
  g_w_global_arg : float;
  g_use_selector : bool;
  g_float_frac : float;  (** fraction of immediate literals that are reals *)
  g_float_local_frac : float;
      (** fraction of locally-computed constants (local-const/collide/prune)
          that are reals — these are the "constant floating point arguments"
          the paper's float ablation removes *)
  g_float_bd_frac : float;  (** fraction of block-data initials that are reals *)
  g_float_sc_frac : float;  (** fraction of set-constant globals that are reals *)
  (* Globals. *)
  g_blockdata_pure : int;  (** block-data globals never modified *)
  g_blockdata_mod : int;  (** block-data globals modified somewhere *)
  g_setconst_globals : int;
      (** globals assigned a constant in [main] before any call —
          flow-sensitively constant, invisible to the FI method *)
  g_noise_globals : int;  (** globals modified with unknown values *)
  g_global_read_prob : float;  (** per proc, per global: emit a direct read *)
  g_read_cluster : bool;
      (** when true, each readable global is assigned to the call
          neighbourhood of one procedure (the procedure plus its direct
          callees) and read only there, with density [g_global_read_prob] —
          models Fortran COMMON usage, where the procedures sharing a
          common block are a caller and the routines it invokes.  This is
          what keeps the visible/invisible global ratio of Table 1
          realistic: within the neighbourhood the calling procedure also
          references the global (visible); edges reaching a shared callee
          from outside pass the constant invisibly *)
  g_common_block : int;
      (** number of globals sharing one read cluster — a Fortran COMMON
          block: WAVE5's 74 block-data globals live in a handful of commons
          each referenced by one group of procedures, not 74 independent
          sharing patterns *)
  g_const_leaf_only : bool;
      (** restrict immediate/colliding constant argument classes to leaf
          callees: interior procedures of the tree skeleton have a single
          caller, so a per-site-varying literal would degenerate into a
          constant formal there, inflating the FI column beyond anything
          the paper's benchmarks show *)
  g_global_write_prob : float;  (** per proc: modify some modifiable global *)
  g_loops : float;  (** probability of a bulk loop per procedure *)
  g_dispatch : int;
      (** mode-dispatch clusters appended after the calibrated body (0 =
          none, no RNG draws — calibrated programs stay byte-identical);
          see {!Generator.profile} in the interface for the mechanism *)
}

let default_profile =
  {
    g_name = "default";
    g_seed = 42;
    g_procs = 10;
    g_fanout = 3;
    g_formals_min = 1;
    g_formals_max = 4;
    g_extra_calls = (0, 2);
    g_call_window = 0;
    g_target_set = 0;
    g_cluster_root_pool = true;
    g_extra_to_leaves = true;
    g_back_edge_prob = 0.0;
    g_formal_uses = 1;
    g_chain = 2;
    g_w_imm = 3.0;
    g_w_collide = 2.0;
    g_w_pass = 0.5;
    g_w_local_const = 1.0;
    g_w_local_collide = 0.5;
    g_w_prune = 0.5;
    g_w_out = 0.0;
    g_w_bot = 2.5;
    g_w_global_arg = 0.3;
    g_use_selector = true;
    g_float_frac = 0.2;
    g_float_local_frac = 0.2;
    g_float_bd_frac = 0.5;
    g_float_sc_frac = 0.3;
    g_blockdata_pure = 2;
    g_blockdata_mod = 1;
    g_setconst_globals = 2;
    g_noise_globals = 2;
    g_global_read_prob = 0.25;
    g_read_cluster = false;
    g_common_block = 1;
    g_const_leaf_only = false;
    g_global_write_prob = 0.3;
    g_loops = 0.3;
    g_dispatch = 0;
  }

(* ------------------------------------------------------------------ *)

type gctx = {
  rng : Prng.t;
  profile : profile;
  proc_names : string array;  (** index 0 = main *)
  formals_of : string list array;  (** per proc *)
  classes_of : formal_class array array;  (** per proc, per formal *)
  mutable collide_counter : int;
  bd_pure : (string * Value.t) list;
  bd_mod : (string * Value.t) list;
  setconst : (string * Value.t) list;
  noise : string list;
}

let fresh_value rng ~float_frac =
  if Prng.bool rng float_frac then
    Value.Real (float_of_int (Prng.range rng 1 50) /. 2.0)
  else Value.Int (Prng.range rng 1 100)

let pick_class g : formal_class =
  let p = g.profile in
  Prng.weighted g.rng
    [
      (p.g_w_imm, `Imm);
      (p.g_w_collide, `Collide);
      (p.g_w_pass, `Pass);
      (p.g_w_local_const, `Local_const);
      (p.g_w_local_collide, `Local_collide);
      (p.g_w_prune, `Prune);
      (p.g_w_out, `Out);
      (p.g_w_bot, `Bot);
      (p.g_w_global_arg, `Global);
    ]
  |> function
  | `Imm -> Fimm (fresh_value g.rng ~float_frac:p.g_float_frac)
  | `Collide -> Fcollide
  | `Pass -> Fpass
  | `Local_const ->
      Flocal_const (fresh_value g.rng ~float_frac:p.g_float_local_frac)
  | `Local_collide -> Flocal_collide
  | `Prune -> Fprune (fresh_value g.rng ~float_frac:p.g_float_local_frac)
  | `Out -> Fout (fresh_value g.rng ~float_frac:p.g_float_local_frac)
  | `Bot -> Fbot
  | `Global -> Fglobal

(* Build the argument expression for one call-site position, emitting any
   prelude statements the class needs.  [undef] is this procedure's
   never-assigned local (0 at run time, ⊥ to the analyses). *)
let build_arg g ~caller_idx ~site_tag ~argpos (cls : formal_class)
    (prelude : Ast.stmt list ref) (postlude : Ast.stmt list ref)
    ~(ret_locals : string list ref) ~(site_outs : string list ref) :
    Ast.expr =
  let caller_formals = g.formals_of.(caller_idx) in
  let undef = "undef" in
  let fresh_local tag = Printf.sprintf "%s_%d_%d" tag site_tag argpos in
  let next_collide ~float_frac () =
    g.collide_counter <- g.collide_counter + 1;
    if Prng.bool g.rng float_frac then
      Value.Real (float_of_int (1000 + g.collide_counter) +. 0.5)
    else Value.Int (1000 + g.collide_counter)
  in
  match cls with
  | Fselector -> Ast.int 0
  | Fimm v -> Ast.Const v
  | Fcollide -> Ast.Const (next_collide ~float_frac:g.profile.g_float_frac ())
  | Fpass -> (
      (* Forward one of the caller's non-selector formals; fall back to a
         literal if the caller has none. *)
      match
        List.filteri
          (fun i _ -> (not g.profile.g_use_selector) || i > 0)
          caller_formals
      with
      | [] -> Ast.Const (Value.Int 7)
      | candidates -> Ast.var (Prng.choose g.rng candidates))
  | Flocal_const v ->
      let x = fresh_local "lc" in
      (if Prng.bool g.rng 0.5 then
         (* join form: same constant on both arms *)
         prelude :=
           !prelude
           @ [
               Ast.if_
                 (Ast.binary Ops.Ne (Ast.var undef) (Ast.int 0))
                 [ Ast.assign x (Ast.Const v) ]
                 [ Ast.assign x (Ast.Const v) ];
             ]
       else prelude := !prelude @ [ Ast.assign x (Ast.Const v) ]);
      Ast.var x
  | Flocal_collide ->
      let x = fresh_local "lk" in
      prelude :=
        !prelude
        @ [
            Ast.assign x
              (Ast.Const
                 (next_collide ~float_frac:g.profile.g_float_local_frac ()));
          ];
      Ast.var x
  | Fprune v ->
      (* The constant only holds on the arm that a {e flow-sensitively
         known} formal of the caller selects: guard on a formal whose own
         class makes it an interprocedural constant that the weaker methods
         cannot all see.  Preference order: a prune-class formal (invisible
         to FI, intra, pass-through AND polynomial — this is what opens the
         Table 5 gap between FS and POLYNOMIAL), then a locally-computed
         constant formal, then an immediate one, then the selector. *)
      let x = fresh_local "pr" in
      let caller_classes = g.classes_of.(caller_idx) in
      let guard =
        let candidates =
          List.mapi (fun j f -> (j, f)) caller_formals
          |> List.filter_map (fun (j, f) ->
                 if j < Array.length caller_classes then
                   match caller_classes.(j) with
                   | Fprune w -> Some (0, f, w)
                   | Flocal_const w -> Some (1, f, w)
                   | Fimm w -> Some (2, f, w)
                   | Fselector -> Some (3, f, Value.Int 0)
                   | Fcollide | Fpass | Flocal_collide | Fout _ | Fbot
                   | Fglobal ->
                       None
                 else None)
        in
        match List.sort compare candidates with
        | (_, f, w) :: _ -> Some (f, w)
        | [] -> None
      in
      (match guard with
      | Some (f, w) ->
          prelude :=
            !prelude
            @ [
                Ast.if_
                  (Ast.binary Ops.Ne (Ast.var f) (Ast.Const w))
                  [
                    Ast.assign x
                      (Ast.binary Ops.Add (Ast.var undef) (Ast.int 1));
                  ]
                  [ Ast.assign x (Ast.Const v) ];
              ]
      | None ->
          (* no usable guard (e.g. main): the constant is unconditional *)
          prelude := !prelude @ [ Ast.assign x (Ast.Const v) ]);
      Ast.var x
  | Fout _ ->
      (* The callee will store a constant through this reference; read the
         result after the call so the return-constants extension has a use
         to improve, and register it so a later call may forward it. *)
      let x = fresh_local "rv" in
      prelude := !prelude @ [ Ast.assign x (Ast.int 0) ];
      postlude :=
        !postlude
        @ [
            Ast.assign (fresh_local "ru")
              (Ast.binary Ops.Add (Ast.var x) (Ast.int 1));
            Ast.print (Ast.var (fresh_local "ru"));
          ];
      site_outs := x :: !site_outs;
      Ast.var x
  | Fbot when !ret_locals <> [] && Prng.bool g.rng 0.4 ->
      (* Forward a previous call's out-value: constant only once the
         return-constants extension is on. *)
      Ast.var (Prng.choose g.rng !ret_locals)
  | Fbot ->
      if Prng.bool g.rng 0.5 then begin
        let x = fresh_local "bt" in
        prelude :=
          !prelude
          @ [
              Ast.assign x
                (Ast.binary Ops.Add (Ast.var undef)
                   (Ast.int (Prng.range g.rng 1 9)));
            ];
        Ast.var x
      end
      else
        (* compound expression argument *)
        Ast.binary Ops.Mul (Ast.var undef) (Ast.int (Prng.range g.rng 2 5))
  | Fglobal ->
      let pool =
        List.map fst g.bd_pure @ List.map fst g.bd_mod
        @ List.map fst g.setconst @ g.noise
      in
      if pool = [] then Ast.Const (Value.Int 3) else Ast.var (Prng.choose g.rng pool)

let generate (p : profile) : Ast.program =
  let rng = Prng.create p.g_seed in
  let n = p.g_procs in
  let proc_names =
    Array.init (n + 1) (fun i ->
        if i = 0 then "main" else Printf.sprintf "p%d" i)
  in
  let formals_of =
    Array.init (n + 1) (fun i ->
        if i = 0 then []
        else
          let k = Prng.range rng p.g_formals_min p.g_formals_max in
          List.init k (fun j -> Printf.sprintf "f%d_%d" i j))
  in
  let bd name_prefix count =
    List.init count (fun i ->
        ( Printf.sprintf "%s%d" name_prefix i,
          if Prng.bool rng p.g_float_bd_frac then
            Value.Real (float_of_int (Prng.range rng 1 40) /. 4.0)
          else Value.Int (Prng.range rng 1 100) ))
  in
  let g =
    {
      rng;
      profile = p;
      proc_names;
      formals_of;
      classes_of = [||];
      collide_counter = 0;
      bd_pure = bd "bp" p.g_blockdata_pure;
      bd_mod = bd "bm" p.g_blockdata_mod;
      setconst =
        List.init p.g_setconst_globals (fun i ->
            ( Printf.sprintf "sc%d" i,
              if Prng.bool rng p.g_float_sc_frac then
                Value.Real (float_of_int (Prng.range rng 1 60) /. 2.0)
              else Value.Int (Prng.range rng 1 100) ));
      noise = List.init p.g_noise_globals (fun i -> Printf.sprintf "nz%d" i);
    }
  in
  let fanout = max 1 p.g_fanout in
  let parent i = if i <= fanout then 0 else ((i - 1) / fanout) in
  (* First index with no tree children. *)
  let leaf_lo = if n = 0 then 1 else ((n - 1) / fanout) + 1 in
  (* Assign a class to every formal of every procedure. *)
  let classes_of =
    Array.init (n + 1) (fun i ->
        let formals = formals_of.(i) in
        let interior = i < leaf_lo in
        Array.of_list
          (List.mapi
             (fun j _ ->
               if j = 0 && p.g_use_selector then Fselector
               else
                 match pick_class g with
                 | Fimm _ | Fcollide | Flocal_collide
                   when p.g_const_leaf_only && interior ->
                     Fbot
                 | c -> c)
             formals))
  in
  let g = { g with classes_of } in

  (* Call targets per procedure: the k-ary-tree children (guaranteeing
     reachability at logarithmic depth) plus extra forward calls plus
     optionally one guarded back call to a tree ancestor. *)
  let callees_of =
    Array.init (n + 1) (fun i ->
        if n = 0 then []
        else begin
          let children =
            List.filter
              (fun j -> j >= 1 && j <= n)
              (List.init fanout (fun k -> (i * fanout) + k + 1))
            |> List.filter (fun j -> parent j = i)
          in
          let forward = ref (List.rev children) in
          let lo, hi = p.g_extra_calls in
          let extra = Prng.range rng lo hi in
          (* In utility mode, leaves ARE the utilities: they call nothing
             beyond the tree (i.e. nothing), so interprocedural reachability
             — and with it the REF closures — stays bounded. *)
          let makes_extra_calls =
            (not p.g_extra_to_leaves) || i < leaf_lo
          in
          if makes_extra_calls && i + 1 <= n then begin
            let tlo =
              if p.g_extra_to_leaves then max (i + 1) leaf_lo else i + 1
            in
            let thi =
              if p.g_call_window > 0 then min n (tlo + p.g_call_window - 1)
              else n
            in
            let pick () = Prng.range rng (min tlo n) (max (min tlo n) thi) in
            (* Optionally restrict this caller to a small set of favourite
               callees, so repeated calls to the same routine occur. *)
            let target_set =
              if p.g_target_set > 0 then
                Some (Array.init p.g_target_set (fun _ -> pick ()))
              else None
            in
            for _ = 1 to extra do
              let target =
                match target_set with
                | Some ts -> ts.(Prng.int rng (Array.length ts))
                | None -> pick ()
              in
              forward := target :: !forward
            done
          end;
          let back =
            if i >= 1 && Prng.bool rng p.g_back_edge_prob then [ -i ]
              (* negative marker: guarded back call to a tree ancestor *)
            else []
          in
          List.rev !forward @ back
        end)
  in

  (* Which procedure reads which global (decided up front so that the
     read-clustering mode can confine a global to one call-tree subtree). *)
  let readable_globals =
    List.map fst g.bd_pure @ List.map fst g.bd_mod @ List.map fst g.setconst
    @ g.noise
  in
  let reads : (int * string, unit) Hashtbl.t = Hashtbl.create 64 in
  let current_cluster = ref (0, []) in
  let callers_of =
    let t = Array.make (n + 1) [] in
    Array.iteri
      (fun i cs ->
        List.iter (fun c -> if c >= 0 then t.(c) <- i :: t.(c)) cs)
      callees_of;
    t
  in
  (* Globals are read in COMMON-block groups: every [g_common_block]
     consecutive globals share one sharing group — one (preferably shared,
     i.e. leaf/utility) procedure plus the procedures that call it.  Edges
     inside the group pass constants visibly; edges reaching a shared
     member from outside are the paper's "invisible" global constants. *)
  let block_size = max 1 p.g_common_block in
  let pick_cluster () =
    let root =
      if p.g_cluster_root_pool && leaf_lo <= n then
        Prng.range rng (min leaf_lo n) n
      else if leaf_lo > 1 then
        (* interior roots: single caller, very few counting sites *)
        Prng.range rng 1 (leaf_lo - 1)
      else Prng.int rng (n + 1)
    in
    (root, callers_of.(root))
  in
  List.iteri
    (fun k gl ->
      if not p.g_read_cluster then
        List.iter
          (fun j ->
            if Prng.bool rng p.g_global_read_prob then
              Hashtbl.replace reads (j, gl) ())
          (List.init (n + 1) (fun j -> j))
      else begin
        if k mod block_size = 0 then current_cluster := pick_cluster ();
        let root, callers = !current_cluster in
        (* The shared procedure itself always references its block. *)
        Hashtbl.replace reads (root, gl) ();
        List.iter
          (fun j ->
            if Prng.bool rng p.g_global_read_prob then
              Hashtbl.replace reads (j, gl) ())
          callers
      end)
    readable_globals;

  (* Per-procedure body synthesis. *)
  let site_counter = ref 0 in
  let build_proc (i : int) : Ast.proc =
    let name = proc_names.(i) in
    let formals = formals_of.(i) in
    let ret_locals = ref [] in
    let body = ref [] in
    let add s = body := !body @ s in
    (* main initialises the flow-sensitive constant globals first. *)
    if i = 0 then
      add (List.map (fun (gl, v) -> Ast.assign gl (Ast.Const v)) g.setconst);
    (* Direct global reads (REF / visibility), per the up-front plan. *)
    List.iteri
      (fun k gl ->
        if Hashtbl.mem reads (i, gl) then
          add
            [
              Ast.assign
                (Printf.sprintf "gr%d" k)
                (Ast.binary Ops.Add (Ast.var gl) (Ast.int 1));
              Ast.print (Ast.var (Printf.sprintf "gr%d" k));
            ])
      readable_globals;
    (* Global writes: each modifiable global needs at least one writer in
       the program; scatter probabilistically and force coverage in pN. *)
    let writable = List.map fst g.bd_mod @ g.noise in
    List.iter
      (fun gl ->
        if Prng.bool rng p.g_global_write_prob || (i = n && n > 0) then
          add [ Ast.assign gl (Ast.binary Ops.Add (Ast.var gl) (Ast.var "undef")) ])
      writable;
    (* Bulk loop (exercises SSA/SCC on cyclic CFGs). *)
    if Prng.bool rng p.g_loops then
      add
        [
          Ast.assign "acc" (Ast.int 0);
          Ast.assign "it" (Ast.int 0);
          Ast.while_
            (Ast.binary Ops.Lt (Ast.var "it") (Ast.var "undef"))
            [
              Ast.assign "acc" (Ast.binary Ops.Add (Ast.var "acc") (Ast.var "it"));
              Ast.assign "it" (Ast.binary Ops.Add (Ast.var "it") (Ast.int 1));
            ];
          Ast.print (Ast.var "acc");
        ];
    (* Local constant chain: intraprocedural substitutions that every
       flow-sensitive method (POLY and FS, and FI's final intraprocedural
       pass) folds identically. *)
    if p.g_chain > 0 then begin
      add [ Ast.assign "ch0" (Ast.int (Prng.range rng 1 20)) ];
      for k = 1 to p.g_chain - 1 do
        let prev = Printf.sprintf "ch%d" (k - 1) in
        add
          [
            Ast.assign
              (Printf.sprintf "ch%d" k)
              (Ast.binary
                 (Prng.choose rng [ Ops.Add; Ops.Mul ])
                 (Ast.var prev)
                 (Ast.int (Prng.range rng 1 5)));
          ]
      done;
      add [ Ast.print (Ast.var (Printf.sprintf "ch%d" (p.g_chain - 1))) ]
    end;
    (* Use every formal [g_formal_uses] times (substitution-metric fodder:
       each use of an interprocedurally-constant formal counts once). *)
    if formals <> [] then
      for u = 1 to p.g_formal_uses do
        let sum =
          List.fold_left
            (fun acc f ->
              match acc with
              | None -> Some (Ast.var f)
              | Some e -> Some (Ast.binary Ops.Add e (Ast.var f)))
            None formals
        in
        match sum with
        | Some e ->
            let v = Printf.sprintf "fsum%d" u in
            add [ Ast.assign v e; Ast.print (Ast.var v) ]
        | None -> ()
      done;
    (* Call sites. *)
    List.iter
      (fun target ->
        let is_back = target < 0 in
        let tgt =
          if is_back then begin
            (* A tree ancestor of [i] (any one on the path to main, main
               excluded), so the edge provably closes a PCG cycle. *)
            let rec ancestors j acc =
              if j <= 0 then acc else ancestors (parent j) (j :: acc)
            in
            match ancestors (parent i) [] with
            | [] -> i (* no proper ancestor: self-recursion *)
            | l -> Prng.choose rng l
          end
          else target
        in
        let callee_idx = tgt in
        let callee = proc_names.(callee_idx) in
        let callee_classes = g.classes_of.(callee_idx) in
        incr site_counter;
        let prelude = ref [] in
        let postlude = ref [] in
        let site_outs = ref [] in
        let args =
          Array.to_list callee_classes
          |> List.mapi (fun argpos cls ->
                 build_arg g ~caller_idx:i ~site_tag:!site_counter ~argpos cls
                   prelude postlude ~ret_locals ~site_outs)
        in
        let call = Ast.call callee args in
        if is_back then
          (* Guard recursion behind an always-false (at run time) branch:
             the PCG still has the back edge, the interpreter terminates. *)
          add
            (!prelude
            @ [
                Ast.if_
                  (Ast.binary Ops.Ne (Ast.var "undef") (Ast.int 0))
                  [ call ] [];
              ]
            @ !postlude)
        else add (!prelude @ [ call ] @ !postlude);
        (* Out-values become forwardable only after their call site. *)
        ret_locals := !ret_locals @ !site_outs)
      callees_of.(i);
    (* Out parameters: store their constant last, so it reaches every
       (implicit) return. *)
    List.iteri
      (fun j f ->
        if j < Array.length g.classes_of.(i) then
          match g.classes_of.(i).(j) with
          | Fout v -> add [ Ast.assign f (Ast.Const v) ]
          | _ -> ())
      formals;
    { Ast.pname = name; formals; body = !body; ppos = Ast.no_pos }
  in
  let procs = List.init (n + 1) build_proc in
  (* Mode-dispatch clusters (beyond the paper; see the profile docs): each
     cluster is a dispatcher [dispK] called from main with two distinct
     constant modes, and a utility [utilK] the dispatcher invokes with a
     cluster constant on the arm every mode selects — the other arm is an
     error path no caller ever takes.  Flow-sensitively the modes meet to
     ⊥ at the dispatcher's entry, both arms look live, and the utility's
     formal melts; analysed once per value context the dead arm is pruned
     in every context and the formal is a propagated constant.  Constants
     are derived from the cluster index, not the RNG, so profiles with
     [g_dispatch = 0] generate byte-identical programs. *)
  let procs =
    if p.g_dispatch <= 0 then procs
    else begin
      let cluster k =
        let d = Printf.sprintf "disp%d" k
        and u = Printf.sprintf "util%d" k in
        let c = 40 + (7 * k) in
        let dp =
          {
            Ast.pname = d;
            formals = [ "mode" ];
            body =
              [
                Ast.if_
                  (Ast.binary Ops.Ne (Ast.var "mode") (Ast.int 0))
                  [ Ast.call u [ Ast.int c ] ]
                  [ Ast.call u [ Ast.int (c + 1) ] ];
              ];
            ppos = Ast.no_pos;
          }
        and up =
          {
            Ast.pname = u;
            formals = [ "w" ];
            body =
              [
                Ast.assign "wp" (Ast.binary Ops.Add (Ast.var "w") (Ast.int 1));
                Ast.print (Ast.var "wp");
              ];
            ppos = Ast.no_pos;
          }
        in
        (d, [ dp; up ])
      in
      let clusters = List.init p.g_dispatch cluster in
      let calls =
        List.concat_map
          (fun (d, _) ->
            [ Ast.call d [ Ast.int 1 ]; Ast.call d [ Ast.int 2 ] ])
          clusters
      in
      List.map
        (fun pr ->
          if String.equal pr.Ast.pname "main" then
            { pr with Ast.body = pr.Ast.body @ calls }
          else pr)
        procs
      @ List.concat_map snd clusters
    end
  in
  let blockdata = g.bd_pure @ g.bd_mod in
  let globals =
    List.map fst blockdata @ List.map fst g.setconst @ g.noise
  in
  let prog = { Ast.globals; blockdata; procs; main = "main" } in
  Sema.check_exn prog;
  prog

(** A small profile for property tests: modest size, every mechanism
    enabled, seeded. *)
let small_profile seed =
  {
    default_profile with
    g_name = Printf.sprintf "small-%d" seed;
    g_seed = seed;
    g_procs = 3 + (seed mod 5);
    g_formals_min = 0;
    g_formals_max = 3;
    g_extra_calls = (0, 2);
    g_back_edge_prob = (if seed mod 3 = 0 then 0.4 else 0.0);
  }
