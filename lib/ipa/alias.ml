(** Interprocedural reference-parameter alias analysis (Figure 2 step 3).

    MiniFort, like Fortran, passes parameters by reference, so two formals of
    the same procedure may name the same location (the caller passed the same
    variable twice), and a formal may name a global (the caller passed the
    global as an actual).  The MOD/REF computation ({!Modref}) must account
    for these aliases to stay sound; the paper performs exactly this phase
    before MOD/REF.

    We compute, per procedure, the classic may-alias pairs
    [(formal, formal)] and [(formal, global)] by seeding from call sites and
    propagating transitively down call chains to a fixpoint (Cooper's
    flow-insensitive formulation, adequate for reference parameters). *)

module IntPairSet = Set.Make (struct
  type t = int * int

  let compare = Stdlib.compare
end)

module IntStrSet = Set.Make (struct
  type t = int * string

  let compare = Stdlib.compare
end)

type proc_aliases = {
  ff : IntPairSet.t;  (** pairs (i, j), i < j: formals i and j may alias *)
  fg : IntStrSet.t;  (** pairs (i, g): formal i may alias global g *)
}

type t = { table : (string, proc_aliases) Hashtbl.t }

let empty_aliases = { ff = IntPairSet.empty; fg = IntStrSet.empty }

let find t name =
  Option.value (Hashtbl.find_opt t.table name) ~default:empty_aliases

(** Do formals [i] and [j] of [proc] possibly alias? *)
let formals_may_alias t proc i j =
  let a = find t proc in
  IntPairSet.mem ((min i j), (max i j)) a.ff

(** May formal [i] of [proc] alias global [g]? *)
let formal_global_may_alias t proc i g =
  let a = find t proc in
  IntStrSet.mem (i, g) a.fg

(** Globals that formal [i] of [proc] may alias. *)
let globals_aliasing_formal t proc i =
  let a = find t proc in
  IntStrSet.fold (fun (j, g) acc -> if j = i then g :: acc else acc) a.fg []

(** Formals of [proc] aliasing formal [i]. *)
let formals_aliasing_formal t proc i =
  let a = find t proc in
  IntPairSet.fold
    (fun (j, k) acc ->
      if j = i then k :: acc else if k = i then j :: acc else acc)
    a.ff []

(** Every alias pair of [proc]: [ff i j] for formals [i < j], [fg i g] for
    formal [i] and global [g]. *)
let iter_pairs t proc ~ff ~fg =
  let a = find t proc in
  IntPairSet.iter (fun (i, j) -> ff i j) a.ff;
  IntStrSet.iter (fun (i, g) -> fg i g) a.fg

let compute (summaries : Summary.t) (pcg : Fsicp_callgraph.Callgraph.t) : t =
  let table = Hashtbl.create 16 in
  let get name = Option.value (Hashtbl.find_opt table name) ~default:empty_aliases in
  let set name a = Hashtbl.replace table name a in
  let changed = ref true in
  (* Iterate forward over the PCG until stable: alias pairs flow from caller
     to callee through argument binding. *)
  while !changed do
    changed := false;
    Array.iter
      (fun pid ->
        let caller = Fsicp_callgraph.Callgraph.proc_name pcg pid in
        let s = Summary.find summaries caller in
        let caller_al = get caller in
        List.iter
          (fun (c : Summary.call_summary) ->
            let current = get c.Summary.cs_callee in
            let ff = ref current.ff and fg = ref current.fg in
            let n = Array.length c.Summary.cs_args in
            let add_ff i j =
              let p = (min i j, max i j) in
              if i <> j && not (IntPairSet.mem p !ff) then begin
                ff := IntPairSet.add p !ff;
                changed := true
              end
            in
            let add_fg i g =
              if not (IntStrSet.mem (i, g) !fg) then begin
                fg := IntStrSet.add (i, g) !fg;
                changed := true
              end
            in
            (* Seed: same actual at two positions; global actuals. *)
            for i = 0 to n - 1 do
              (match c.Summary.cs_args.(i) with
              | Summary.Aglobal g -> add_fg i g
              | Summary.Alit _ | Summary.Aformal _ | Summary.Alocal _
              | Summary.Aexpr -> ());
              for j = i + 1 to n - 1 do
                match (c.Summary.cs_args.(i), c.Summary.cs_args.(j)) with
                | Summary.Aformal a, Summary.Aformal b when a = b -> add_ff i j
                | Summary.Aglobal a, Summary.Aglobal b when String.equal a b ->
                    add_ff i j
                | Summary.Alocal a, Summary.Alocal b when String.equal a b ->
                    add_ff i j
                (* Transitive: caller's aliased formals passed onward. *)
                | Summary.Aformal a, Summary.Aformal b
                  when IntPairSet.mem
                         ((min a b), (max a b))
                         caller_al.ff ->
                    add_ff i j
                | _ -> ()
              done;
              (* Transitive formal-global aliases. *)
              match c.Summary.cs_args.(i) with
              | Summary.Aformal a ->
                  IntStrSet.iter
                    (fun (j, g) -> if j = a then add_fg i g)
                    caller_al.fg
              | Summary.Alit _ | Summary.Aglobal _ | Summary.Alocal _
              | Summary.Aexpr -> ()
            done;
            set c.Summary.cs_callee { ff = !ff; fg = !fg })
          s.Summary.ps_calls)
      (Fsicp_callgraph.Callgraph.forward_order pcg)
  done;
  { table }

let pp ppf (t : t) =
  Hashtbl.iter
    (fun name a ->
      if not (IntPairSet.is_empty a.ff && IntStrSet.is_empty a.fg) then begin
        Fmt.pf ppf "%s:" name;
        IntPairSet.iter (fun (i, j) -> Fmt.pf ppf " (f%d,f%d)" i j) a.ff;
        IntStrSet.iter (fun (i, g) -> Fmt.pf ppf " (f%d,%s)" i g) a.fg;
        Fmt.pf ppf "@\n"
      end)
    t.table
