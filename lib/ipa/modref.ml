(** Interprocedural MOD and REF (Figure 2 step 4).

    A flow-insensitive computation over the PCG in the style of
    Cooper–Kennedy/Banning: for each procedure [p],

    - [GMOD(p)]: the formals of [p] and globals that a call to [p] may
      modify (directly in [p] or transitively through calls [p] makes);
    - [GREF(p)]: likewise for references.

    Both sets are closed under the reference-parameter aliases computed by
    {!Alias} (the paper performs the alias phase first for this reason):
    if formal [i] is in the set and may alias formal [j] or global [g],
    then [j]/[g] are in it too, and so on through [j]'s own pairs.

    The sets are dense bitsets over one numbering shared by every
    procedure: global [g] takes its position in the program's globals
    list, formal [i] takes bit [G + i].  A callee's set maps through a call
    site's argument list: a global stays itself, formal [j] becomes
    whatever the caller passes at position [j] — a formal of the caller, a
    global, or (invisibly for interprocedural purposes) a local, a literal
    or an expression.  Binding tables, alias-closure masks and immediate
    bits are built once; the fixpoint then runs over the PCG's strongly
    connected components, callees first (Cooper and Kennedy,
    "Interprocedural side-effect analysis in linear time", PLDI 1988): a
    procedure that does not call itself takes one step, and a recursive
    component iterates to a fixpoint within itself only. *)

open Fsicp_lang
open Summary
module Callgraph = Fsicp_callgraph.Callgraph
module Ir = Fsicp_cfg.Ir

(* Bits per set word.  A set spans [width] words, so the numbering is
   bounded only by the program. *)
let word_bits = 62

type t = {
  pcg : Callgraph.t;  (** resolves query names to ids *)
  gnames : string array;  (** bit [b < G] is global [gnames.(b)] *)
  gbit : (string, int) Hashtbl.t;  (** inverse of [gnames] *)
  by_name : int array;  (** global bits, ascending by [String.compare] *)
  width : int;  (** words per set *)
  gmod : int array;  (** [width] words per procedure id *)
  gref : int array;
  (* Per-callee renderings of the sets in the exact shapes the SSA
     construction oracle asks for, built once after the fixpoint, so the
     tables are read-only by the time several domains query them. *)
  defs_globals : Ir.var list array;
      (** GMOD globals as caller-side vars, sorted by [Ir.Var.compare] *)
  defs_formals : int array array;  (** formal indices in GMOD, ascending *)
  ref_globals : Ir.var list array;
      (** GREF globals, descending by name: the order {!call_global_refs}
          has always produced *)
}

let[@inline] mem words base b =
  words.(base + (b / word_bits)) land (1 lsl (b mod word_bits)) <> 0

let[@inline] add words base b =
  let w = base + (b / word_bits) in
  words.(w) <- words.(w) lor (1 lsl (b mod word_bits))

let compute (summaries : Summary.t) (aliases : Alias.t) (pcg : Callgraph.t) :
    t =
  let globals = summaries.prog.Ast.globals in
  let gbit = Hashtbl.create 64 in
  List.iter
    (fun g ->
      if not (Hashtbl.mem gbit g) then Hashtbl.add gbit g (Hashtbl.length gbit))
    globals;
  let ng = Hashtbl.length gbit in
  let gnames = Array.make ng "" in
  Hashtbl.iter (fun g b -> gnames.(b) <- g) gbit;
  let global_bit g = Option.value (Hashtbl.find_opt gbit g) ~default:(-1) in
  let n = Callgraph.n_procs pcg in
  let nodes = pcg.Callgraph.nodes in
  let sums =
    Array.map
      (fun pid -> Summary.find summaries (Callgraph.proc_name pcg pid))
      nodes
  in
  (* Formal bits must cover every formal and every argument position. *)
  let nf =
    Array.fold_left
      (fun m s ->
        List.fold_left
          (fun m c -> max m (Array.length c.cs_args))
          (max m (List.length s.ps_formals))
          s.ps_calls)
      0 sums
  in
  let width = max 1 ((ng + nf + word_bits - 1) / word_bits) in
  let gmask = Array.make width 0 in
  for b = 0 to ng - 1 do
    add gmask 0 b
  done;
  let imod = Array.make (n * width) 0 and iref = Array.make (n * width) 0 in
  let set_bits words base s =
    VrefSet.iter
      (function
        | Vformal i -> add words base (ng + i)
        | Vglobal g ->
            let b = global_bit g in
            if b >= 0 then add words base b)
      s
  in
  (* Per call site: the callee's id, and per callee formal the caller's
     bit it binds to (-1: invisible to the caller). *)
  let callees = Array.make n [||] and bindings = Array.make n [||] in
  (* Per formal of a procedure with alias pairs: the set's closure from
     that formal alone, or [||] when the formal aliases nothing. *)
  let closures = Array.make n [||] in
  Array.iteri
    (fun p s ->
      let base = p * width in
      set_bits imod base s.ps_imod;
      set_bits iref base s.ps_iref;
      let out = Callgraph.out_edges pcg nodes.(p) in
      let calls = Array.of_list s.ps_calls in
      callees.(p) <-
        Array.map
          (fun c -> (out.(c.cs_index).Callgraph.callee :> int))
          calls;
      bindings.(p) <-
        Array.map
          (fun c ->
            Array.map
              (function
                | Aformal i -> ng + i
                | Aglobal g -> global_bit g
                | Alit _ | Alocal _ | Aexpr -> -1)
              c.cs_args)
          calls;
      let ffs = ref [] and fgs = ref [] in
      Alias.iter_pairs aliases (Callgraph.proc_name pcg nodes.(p))
        ~ff:(fun i j -> ffs := (i, j) :: !ffs)
        ~fg:(fun i g -> fgs := (i, global_bit g) :: !fgs);
      if !ffs <> [] || !fgs <> [] then begin
        let ff = Array.make nf [] and fg = Array.make nf [] in
        List.iter
          (fun (i, j) ->
            ff.(i) <- j :: ff.(i);
            ff.(j) <- i :: ff.(j))
          !ffs;
        List.iter (fun (i, b) -> fg.(i) <- b :: fg.(i)) !fgs;
        closures.(p) <-
          Array.init nf (fun i ->
              if ff.(i) = [] && fg.(i) = [] then [||]
              else begin
                let m = Array.make width 0 in
                let rec visit j =
                  if not (mem m 0 (ng + j)) then begin
                    add m 0 (ng + j);
                    List.iter (fun b -> if b >= 0 then add m 0 b) fg.(j);
                    List.iter visit ff.(j)
                  end
                in
                visit i;
                m
              end)
      end)
    sums;
  let gmod = Array.make (n * width) 0 and gref = Array.make (n * width) 0 in
  let acc = Array.make width 0 in
  (* One step of procedure [p]: its immediate and current bits, each
     callee's bits bound through the call, closed over [p]'s aliases.
     Returns whether [p]'s set grew. *)
  let step sets imm p =
    let base = p * width in
    for w = 0 to width - 1 do
      acc.(w) <- imm.(base + w) lor sets.(base + w)
    done;
    let cs = callees.(p) and bs = bindings.(p) in
    for k = 0 to Array.length cs - 1 do
      let qb = cs.(k) * width in
      for w = 0 to width - 1 do
        acc.(w) <- acc.(w) lor (sets.(qb + w) land gmask.(w))
      done;
      let b = bs.(k) in
      for j = 0 to Array.length b - 1 do
        if b.(j) >= 0 && mem sets qb (ng + j) then add acc 0 b.(j)
      done
    done;
    (* Each mask is already transitive, so one pass closes the set. *)
    let cl = closures.(p) in
    for i = 0 to Array.length cl - 1 do
      let m = cl.(i) in
      if Array.length m > 0 && mem acc 0 (ng + i) then
        for w = 0 to width - 1 do
          acc.(w) <- acc.(w) lor m.(w)
        done
    done;
    let grew = ref false in
    for w = 0 to width - 1 do
      if acc.(w) <> sets.(base + w) then begin
        sets.(base + w) <- acc.(w);
        grew := true
      end
    done;
    !grew
  in
  Callgraph.iter_sccs pcg (function
    | [ p ] when not (Array.mem p callees.(p)) ->
        ignore (step gmod imod p : bool);
        ignore (step gref iref p : bool)
    | members ->
        let members = List.sort (fun a b -> Int.compare b a) members in
        let solve sets imm =
          let sweep () =
            List.fold_left (fun grew p -> step sets imm p || grew) false members
          in
          while sweep () do
            ()
          done
        in
        solve gmod imod;
        solve gref iref);
  (* Globals in name order, which is [Ir.Var.compare]'s order on them. *)
  let by_name = Array.init ng Fun.id in
  Array.sort (fun x y -> String.compare gnames.(x) gnames.(y)) by_name;
  let gvars = Array.map Ir.global gnames in
  (* [p]'s globals, listed in [order]. *)
  let render sets order p =
    let l = ref [] in
    for k = Array.length order - 1 downto 0 do
      if mem sets (p * width) order.(k) then l := gvars.(order.(k)) :: !l
    done;
    !l
  in
  let defs_globals = Array.init n (render gmod by_name) in
  let defs_formals =
    Array.init n (fun p ->
        let l = ref [] in
        for j = nf - 1 downto 0 do
          if mem gmod (p * width) (ng + j) then l := j :: !l
        done;
        Array.of_list !l)
  in
  let by_name_desc = Array.init ng (fun k -> by_name.(ng - 1 - k)) in
  let ref_globals = Array.init n (render gref by_name_desc) in
  { pcg; gnames; gbit; by_name; width; gmod; gref; defs_globals;
    defs_formals; ref_globals }

(* ------------------------------------------------------------------ *)
(* Queries used by the constant propagation methods                    *)
(* ------------------------------------------------------------------ *)

let id_of t name =
  match Callgraph.proc_id t.pcg name with
  | Some pid -> (pid :> int)
  | None -> -1

(* Membership of bit [b] in procedure [name]'s set; false for an unknown
   procedure or a bit beyond the numbering. *)
let mem_in t sets name b =
  let p = id_of t name in
  p >= 0 && b >= 0 && b < t.width * word_bits && mem sets (p * t.width) b

(** The set held by [words] from index [base] on, as a [VrefSet]. *)
let to_vrefs t words base : VrefSet.t =
  let ng = Array.length t.gnames and s = ref VrefSet.empty in
  for b = 0 to (t.width * word_bits) - 1 do
    if mem words base b then
      s :=
        VrefSet.add
          (if b < ng then Vglobal t.gnames.(b) else Vformal (b - ng))
          !s
  done;
  !s

let set_of t sets name : VrefSet.t =
  let p = id_of t name in
  if p < 0 then VrefSet.empty else to_vrefs t sets (p * t.width)

let gmod_of t name = set_of t t.gmod name
let gref_of t name = set_of t t.gref name

(** Apply [f] to each global in [name]'s MOD set, in ascending bit order,
    which is the program's globals order.  A zero word is skipped whole,
    so the cost is the set's width plus its global members. *)
let iter_mod_globals t name f =
  let p = id_of t name in
  if p >= 0 then begin
    let ng = Array.length t.gnames and base = p * t.width in
    for w = 0 to ((ng + word_bits - 1) / word_bits) - 1 do
      let word = t.gmod.(base + w) in
      if word <> 0 then
        for k = 0 to min word_bits (ng - (w * word_bits)) - 1 do
          if word land (1 lsl k) <> 0 then f t.gnames.((w * word_bits) + k)
        done
    done
  end

let width t = t.width
let n_globals t = Array.length t.gnames
let global_name t b = t.gnames.(b)
let gref_word t (pid : Fsicp_prog.Prog.Proc.id) w =
  t.gref.(((pid :> int) * t.width) + w)

let global_bit t g = Option.value (Hashtbl.find_opt t.gbit g) ~default:(-1)

(** {!formal_modified} of a reachable procedure by id. *)
let formal_modified_at t (pid : Fsicp_prog.Prog.Proc.id) i =
  let b = Array.length t.gnames + i in
  i >= 0 && b < t.width * word_bits && mem t.gmod ((pid :> int) * t.width) b

(** May [p] (or anything it calls) modify its [i]-th formal's location? *)
let formal_modified t p i =
  match Callgraph.proc_id t.pcg p with
  | Some pid -> formal_modified_at t pid i
  | None -> false

(** May [p] (or anything it calls) modify global [g]? *)
let global_modified_in t p g = mem_in t t.gmod p (global_bit t g)

(** May [p] (or anything it calls) reference global [g]? *)
let global_referenced_in t p g = mem_in t t.gref p (global_bit t g)

(** Do [a] and [b] number the globals alike?  {!closures_equal} compares
    bits, so it means something only when this holds. *)
let same_numbering a b = a.gnames = b.gnames

(** Do [a] and [b] give procedure [name] the same MOD and the same REF
    set?  A procedure either one does not know has empty sets.  Assumes
    {!same_numbering}. *)
let closures_equal a b name =
  let pa = id_of a name and pb = id_of b name in
  let word t sets p w =
    if p < 0 || w >= t.width then 0 else sets.((p * t.width) + w)
  in
  let same sa sb =
    let ok = ref true in
    for w = 0 to max a.width b.width - 1 do
      if word a sa pa w <> word b sb pb w then ok := false
    done;
    !ok
  in
  same a.gmod b.gmod && same a.gref b.gref

(** Globals modified anywhere in the program reachable from [main]: these
    are the ones the flow-insensitive method removes from the block-data
    candidate list (paper Figure 3).  Descending by name. *)
let globals_modified_anywhere t ~main : string list =
  let p = id_of t main in
  if p < 0 then []
  else
    Array.fold_left
      (fun l b -> if mem t.gmod (p * t.width) b then t.gnames.(b) :: l else l)
      [] t.by_name

(* Merge two [Ir.Var.compare]-sorted duplicate-free lists into one;
   equivalent to [List.sort_uniq Ir.Var.compare (a @ b)]. *)
let rec merge_uniq a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: xs, y :: ys ->
      let c = Ir.Var.compare x y in
      if c < 0 then x :: merge_uniq xs b
      else if c > 0 then y :: merge_uniq a ys
      else x :: merge_uniq xs ys

(** Variables a call to [callee] may define, as caller-side IR variables —
    the oracle SSA construction uses at call instructions.  [byref_args]
    are the by-reference actuals in argument order ([None] for value
    arguments). *)
let call_defs t ~callee ~(byref_args : Ir.var option array) : Ir.var list =
  let p = id_of t callee in
  if p < 0 then []
  else begin
    let byrefs = ref [] in
    Array.iter
      (fun j ->
        if j < Array.length byref_args then
          match byref_args.(j) with
          | Some v -> byrefs := v :: !byrefs
          | None -> ())
      t.defs_formals.(p);
    match !byrefs with
    | [] -> t.defs_globals.(p)
    | bs ->
        (* Distinct: a global may be both in GMOD directly and via an alias
           (or be passed by reference at a GMOD formal position). *)
        merge_uniq (List.sort_uniq Ir.Var.compare bs) t.defs_globals.(p)
  end

(** {!call_global_refs} of a reachable procedure by id. *)
let call_global_refs_at t (pid : Fsicp_prog.Prog.Proc.id) : Ir.var list =
  t.ref_globals.((pid :> int))

(** Globals a call to [callee] may reference (transitively); the FS ICP
    records the lattice value of each of these at the call site. *)
let call_global_refs t ~callee : Ir.var list =
  match Callgraph.proc_id t.pcg callee with
  | Some pid -> call_global_refs_at t pid
  | None -> []

let pp ppf t =
  let pp_set ppf s =
    Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ", ") Vref.pp) (VrefSet.elements s)
  in
  Array.iter
    (fun pid ->
      let name = Callgraph.proc_name t.pcg pid in
      let m = gmod_of t name in
      if not (VrefSet.is_empty m) then
        Fmt.pf ppf "%s: MOD=%a REF=%a@\n" name pp_set m pp_set
          (gref_of t name))
    t.pcg.Callgraph.nodes
