open Fsicp_lang

type family = Chain | Fanout | Common | Recursion | Mixed

let family_to_string = function
  | Chain -> "chain"
  | Fanout -> "fanout"
  | Common -> "common"
  | Recursion -> "recursion"
  | Mixed -> "mixed"

let all_families = [ Chain; Fanout; Common; Recursion; Mixed ]

let family_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "chain" -> Ok Chain
  | "fanout" -> Ok Fanout
  | "common" -> Ok Common
  | "recursion" -> Ok Recursion
  | "mixed" -> Ok Mixed
  | other ->
      Error
        (Printf.sprintf
           "unknown corpus family %S (expected chain, fanout, common, \
            recursion or mixed)"
           other)

type spec = { sp_family : family; sp_procs : int; sp_seed : int }

let max_procs = 2_000_000

let parse_procs s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 2 && n <= max_procs -> Ok n
  | Some n ->
      Error
        (Printf.sprintf "procs must be between 2 and %d, got %d" max_procs n)
  | None -> Error (Printf.sprintf "procs must be an integer, got %S" s)

let parse_seed s =
  match int_of_string_opt (String.trim s) with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "seed must be an integer, got %S" s)

(* ------------------------------------------------------------------ *)
(* Shared building blocks                                              *)
(* ------------------------------------------------------------------ *)

(* Procedure [0] is "main"; every other index [i] is procedure "f<i>".
   Globals are "g<k>".  Formals are "a"/"b", locals "t"/"u" — all fixed
   spellings, so the pretty-print → parse round trip is trivially exact. *)
let fname i = if i = 0 then "main" else "f" ^ string_of_int i
let gname k = "g" ^ string_of_int k

let lit n = Ast.int n
let v = Ast.var

(* The small-global discipline that keeps every interprocedural closure
   bounded: readers touch the block-data pool [0, ro), writers the
   uninitialised pool [ro, ro + rw).  GREF/GMOD of any procedure is then a
   subset of a constant-size universe, so MOD/REF, alias closure, entry
   meets and call records all stay O(1) per procedure. *)
let ro_globals = 4
let rw_globals = 4

let read_global rng =
  Ast.assign "u" (v (gname (Prng.int rng ro_globals)))

let write_global rng e =
  Ast.assign (gname (ro_globals + Prng.int rng rw_globals)) e

(* ------------------------------------------------------------------ *)
(* Chain: long call chains in bounded segments                         *)
(* ------------------------------------------------------------------ *)

(* Segment depth: long enough that the constant mutates through hundreds
   of frames (a real critical path), short enough that no
   per-procedure machinery meets a 10⁶-deep anything. *)
let chain_segment = 500

(* Indices [base, base+count) form ⌈count/chain_segment⌉ descending
   chains; main calls each segment head with literal arguments.  Each hop
   rebinds [t = a + inc] and passes it on: the argument is a local — the
   flow-insensitive method sees ⊥ — while the flow-sensitive method
   tracks a distinct constant at every depth. *)
let build_chain rng ~base ~count : Ast.proc list * Ast.stmt list =
  let procs = ref [] and mains = ref [] in
  let i = ref (base + count - 1) in
  (* Build tail-first so each procedure knows whether a successor exists. *)
  while !i >= base do
    let idx = !i in
    let seg_pos = (idx - base) mod chain_segment in
    let last = idx = base + count - 1 || seg_pos = chain_segment - 1 in
    let inc = 1 + Prng.int rng 3 in
    let body =
      [ Ast.assign "t" (Ast.binary Ops.Add (v "a") (lit inc)) ]
      @ (if Prng.int rng 8 = 0 then [ read_global rng; Ast.print (v "u") ]
         else [])
      @ (if Prng.int rng 16 = 0 then
           [
             Ast.if_
               (Ast.binary Ops.Gt (v "b") (lit 0))
               [ write_global rng (v "t") ]
               [];
           ]
         else [])
      @ (if last then [] else [ Ast.call (fname (idx + 1)) [ v "t"; v "b" ] ])
      @ [ Ast.print (v "a") ]
    in
    if seg_pos = 0 then
      mains :=
        Ast.call (fname idx) [ lit (Prng.int rng 100); lit (1 + Prng.int rng 4) ]
        :: !mains;
    procs :=
      { Ast.pname = fname idx; formals = [ "a"; "b" ]; body;
        ppos = Ast.no_pos }
      :: !procs;
    decr i
  done;
  (!procs, List.rev !mains)

(* ------------------------------------------------------------------ *)
(* Fanout: wide B-ary call tree                                        *)
(* ------------------------------------------------------------------ *)

let fanout_b = 8

(* Heap layout over [base, base+count): the children of local index [j]
   are [B*j + 1 .. B*j + B].  Maximal width, O(log n) depth. *)
let build_fanout rng ~base ~count : Ast.proc list * Ast.stmt list =
  let child j c = (fanout_b * j) + c + 1 in
  let mk j =
    let idx = base + j in
    let calls = ref [] in
    for c = fanout_b - 1 downto 0 do
      let k = child j c in
      if k < count then
        (* Alternate a pass-through formal with a fresh literal: sibling
           subtrees meet different constants at the same formal. *)
        let arg =
          if Prng.bool rng 0.5 then v "t" else lit (Prng.int rng 50)
        in
        calls := Ast.call (fname (base + k)) [ arg; v "b" ] :: !calls
    done;
    let body =
      [ Ast.assign "t" (Ast.binary Ops.Mul (v "a") (lit 2)) ]
      @ (if Prng.int rng 4 = 0 then [ read_global rng; Ast.print (v "u") ]
         else [])
      @ !calls
      @ [ Ast.print (v "t") ]
    in
    { Ast.pname = fname idx; formals = [ "a"; "b" ]; body; ppos = Ast.no_pos }
  in
  let procs = List.init count mk in
  let mains =
    [ Ast.call (fname base) [ lit (Prng.int rng 50); lit (Prng.int rng 9) ] ]
  in
  (procs, mains)

(* ------------------------------------------------------------------ *)
(* Common: COMMON-block-style global clusters                          *)
(* ------------------------------------------------------------------ *)

let common_blocks = 8
let common_block_size = 8
let common_globals = common_blocks * common_block_size

(* Blocks 0..5 are read-only — their block-data constants survive the
   flow-insensitive kill and reach every member's entry — while blocks 6
   and 7 contain writers, so their globals demote to ⊥ program-wide. *)
let common_written_block b = b >= 6

let build_common rng ~base ~count : Ast.proc list * Ast.stmt list =
  let fan = 16 in
  let per_block = count / common_blocks in
  let procs = ref [] and mains = ref [] in
  for b = common_blocks - 1 downto 0 do
    let bstart = base + (b * per_block) in
    let bcount =
      if b = common_blocks - 1 then count - (b * per_block) else per_block
    in
    let g j = gname ((b * common_block_size) + j) in
    for j = bcount - 1 downto 0 do
      let idx = bstart + j in
      let calls = ref [] in
      for c = fan - 1 downto 0 do
        let k = (fan * j) + c + 1 in
        if k < bcount then
          calls := Ast.call (fname (bstart + k)) [ v "t" ] :: !calls
      done;
      let j1 = Prng.int rng common_block_size in
      let j2 = Prng.int rng common_block_size in
      let body =
        [
          Ast.assign "t"
            (Ast.binary Ops.Add (v (g j1)) (v (g j2)));
        ]
        @ (if common_written_block b && Prng.int rng 8 = 0 then
             [ Ast.assign (g (Prng.int rng common_block_size)) (v "a") ]
           else [])
        @ !calls
        @ [ Ast.print (v "t"); Ast.print (v "a") ]
      in
      procs :=
        { Ast.pname = fname idx; formals = [ "a" ]; body; ppos = Ast.no_pos }
        :: !procs;
      if j = 0 then
        mains := Ast.call (fname idx) [ lit (Prng.int rng 20) ] :: !mains
    done
  done;
  (!procs, List.rev !mains)

(* ------------------------------------------------------------------ *)
(* Recursion: many 3-cliques hung off a binary spine                   *)
(* ------------------------------------------------------------------ *)

(* Unit layout: spine s, clique members x → y → z → x (the z → x edge is
   the unique back edge of the unit).  Spines form a binary heap, so the
   depth is O(log n) while every unit still exercises the
   flow-insensitive back-edge seed and the SCC entry-vector memo. *)
let build_recursion rng ~base ~count : Ast.proc list * Ast.stmt list =
  let units = count / 4 in
  let extra = count - (units * 4) in
  let spine u = base + (u * 4) in
  let procs = ref [] and mains = ref [] in
  for u = units - 1 downto 0 do
    let s = spine u and x = spine u + 1 in
    let y = spine u + 2 and z = spine u + 3 in
    let spine_calls = ref [] in
    let l = (2 * u) + 1 and r = (2 * u) + 2 in
    if r < units then
      spine_calls := Ast.call (fname (spine r)) [ v "a" ] :: !spine_calls;
    if l < units then
      spine_calls :=
        Ast.call (fname (spine l)) [ Ast.binary Ops.Add (v "a") (lit 1) ]
        :: !spine_calls;
    procs :=
      [
        {
          Ast.pname = fname s;
          formals = [ "a" ];
          body =
            (Ast.call (fname x) [ lit (Prng.int rng 10) ] :: !spine_calls)
            @ [ Ast.print (v "a") ];
          ppos = Ast.no_pos;
        };
        {
          Ast.pname = fname x;
          formals = [ "a" ];
          body =
            [
              Ast.if_
                (Ast.binary Ops.Gt (v "a") (lit 0))
                [ Ast.call (fname y) [ Ast.binary Ops.Sub (v "a") (lit 1) ] ]
                [];
              Ast.print (v "a");
            ];
          ppos = Ast.no_pos;
        };
        {
          Ast.pname = fname y;
          formals = [ "a" ];
          body =
            [
              Ast.assign "t" (Ast.binary Ops.Add (v "a") (lit 1));
              Ast.call (fname z) [ v "t" ];
            ]
            @ (if Prng.int rng 8 = 0 then [ read_global rng; Ast.print (v "u") ]
               else []);
          ppos = Ast.no_pos;
        };
        {
          Ast.pname = fname z;
          formals = [ "a" ];
          body =
            [
              Ast.if_
                (Ast.binary Ops.Gt (v "a") (lit 2))
                [ Ast.call (fname x) [ Ast.binary Ops.Sub (v "a") (lit 2) ] ]
                [];
              Ast.print (v "a");
            ];
          ppos = Ast.no_pos;
        };
      ]
      @ !procs
  done;
  (* Remainder procedures: trivial leaves called straight from main. *)
  for e = extra - 1 downto 0 do
    let idx = base + (units * 4) + e in
    procs :=
      {
        Ast.pname = fname idx;
        formals = [ "a" ];
        body = [ Ast.print (v "a") ];
        ppos = Ast.no_pos;
      }
      :: !procs;
    mains := Ast.call (fname idx) [ lit e ] :: !mains
  done;
  if units > 0 then
    mains := Ast.call (fname (spine 0)) [ lit (Prng.int rng 10) ] :: !mains;
  (!procs, !mains)

(* ------------------------------------------------------------------ *)
(* Assembly                                                            *)
(* ------------------------------------------------------------------ *)

let blockdata_for rng n_globals =
  (* Initialise the read-only pool (and, for common corpora, every block)
     with small constants; written globals stay uninitialised. *)
  List.init n_globals (fun k -> (gname k, Value.Int (7 + (3 * k) + Prng.int rng 5)))
  |> List.filteri (fun k _ ->
         if n_globals = common_globals then
           not (common_written_block (k / common_block_size))
         else k < ro_globals)

let generate (s : spec) : Ast.program =
  if s.sp_procs < 2 then
    invalid_arg
      (Printf.sprintf "Scale.generate: need at least 2 procedures, got %d"
         s.sp_procs);
  let rng = Prng.create s.sp_seed in
  let count = s.sp_procs - 1 in
  let sections =
    match s.sp_family with
    | Chain -> [ (build_chain, count) ]
    | Fanout -> [ (build_fanout, count) ]
    | Common -> [ (build_common, count) ]
    | Recursion -> [ (build_recursion, count) ]
    | Mixed ->
        (* Four consecutive sections; the PRNG jitters the split so
           different seeds exercise different section sizes. *)
        let cut lo hi = lo + Prng.int rng (max 1 (hi - lo)) in
        let q = count / 4 in
        let c1 = cut (q / 2) (q + (q / 2)) in
        let c2 = cut (q / 2) (q + (q / 2)) in
        let c3 = cut (q / 2) (q + (q / 2)) in
        let c4 = count - c1 - c2 - c3 in
        [
          (build_chain, c1);
          (build_fanout, c2);
          (build_common, c3);
          (build_recursion, c4);
        ]
  in
  let n_globals =
    match s.sp_family with
    | Common | Mixed -> common_globals
    | Chain | Fanout | Recursion -> ro_globals + rw_globals
  in
  let base = ref 1 in
  let rev_sections =
    List.filter_map
      (fun (build, cnt) ->
        if cnt <= 0 then None
        else begin
          let r = build rng ~base:!base ~count:cnt in
          base := !base + cnt;
          Some r
        end)
      sections
  in
  let procs = List.concat_map fst rev_sections in
  let main_body = List.concat_map snd rev_sections in
  let main =
    { Ast.pname = "main"; formals = []; body = main_body; ppos = Ast.no_pos }
  in
  let blockdata = blockdata_for rng n_globals in
  (* Canonical global order — plain [global] declarations first, block-data
     names after, exactly as a pretty-print → parse round trip reconstructs
     them — so the direct AST is [Ast.equal_program] to its text path. *)
  let all_globals = List.init n_globals gname in
  let plain =
    List.filter (fun g -> not (List.mem_assoc g blockdata)) all_globals
  in
  let prog =
    {
      Ast.globals = plain @ List.map fst blockdata;
      blockdata;
      procs = main :: procs;
      main = "main";
    }
  in
  Sema.check_exn prog;
  prog

let stats (p : Ast.program) : (string * int) list =
  let calls = ref 0 and stmts = ref 0 and branches = ref 0 in
  List.iter
    (fun (pr : Ast.proc) ->
      Ast.iter_stmts
        (fun s ->
          incr stmts;
          match s.Ast.sdesc with
          | Ast.Call _ -> incr calls
          | Ast.If _ | Ast.While _ -> incr branches
          | Ast.Assign _ | Ast.Return | Ast.Print _ -> ())
        pr.Ast.body)
    p.Ast.procs;
  [
    ("procs", List.length p.Ast.procs);
    ("call_sites", !calls);
    ("stmts", !stmts);
    ("branches", !branches);
    ("globals", List.length p.Ast.globals);
    ("blockdata", List.length p.Ast.blockdata);
  ]

let digest (p : Ast.program) : string =
  Digest.to_hex (Digest.string (Pretty.program_to_string p))
