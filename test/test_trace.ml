(** Property and unit tests for the structured tracing subsystem
    ([lib/trace]).  The headline properties, checked over generated
    programs at both [jobs=1] and [jobs=4]:

    - every span Begin has a matching End, properly nested per thread;
    - the stable counters are identical across domain counts;
    - the logical-mode JSON is byte-identical across repeated runs;
    - the emitted document round-trips through a minimal JSON parser.

    The parser below is deliberately tiny and independent of the writer:
    it accepts standard JSON, so it double-checks that the hand-printed
    trace is well-formed rather than merely self-consistent. *)

open Fsicp_core
module Trace = Fsicp_trace.Trace
module O = Fsicp_oracle.Oracle

let parse = Test_util.parse

(* ------------------------------------------------------------------ *)
(* A minimal JSON parser and canonical printer                         *)
(* ------------------------------------------------------------------ *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at %d" msg !pos)) in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %c" c)
  in
  let literal l v =
    let m = String.length l in
    if !pos + m <= n && String.sub s !pos m = l then begin
      pos := !pos + m;
      v
    end
    else fail (Printf.sprintf "expected %s" l)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          if !pos >= n then fail "unterminated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 >= n then fail "truncated \\u escape";
              let code = int_of_string ("0x" ^ String.sub s (!pos + 1) 4) in
              pos := !pos + 4;
              (* The trace emits \u only for C0 controls; that is all the
                 round-trip needs. *)
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else fail "non-ASCII \\u escape"
          | _ -> fail "bad escape");
          incr pos;
          go ()
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let numchar c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && numchar s.[!pos] do
      incr pos
    done;
    if !pos = start then fail "expected a value";
    Num (float_of_string (String.sub s start (!pos - start)))
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match s.[!pos] with
    | '{' ->
        incr pos;
        skip_ws ();
        if !pos < n && s.[!pos] = '}' then begin
          incr pos;
          Obj []
        end
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            if !pos < n && s.[!pos] = ',' then begin
              incr pos;
              members ((k, v) :: acc)
            end
            else begin
              expect '}';
              Obj (List.rev ((k, v) :: acc))
            end
          in
          members []
    | '[' ->
        incr pos;
        skip_ws ();
        if !pos < n && s.[!pos] = ']' then begin
          incr pos;
          Arr []
        end
        else
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            if !pos < n && s.[!pos] = ',' then begin
              incr pos;
              elements (v :: acc)
            end
            else begin
              expect ']';
              Arr (List.rev (v :: acc))
            end
          in
          elements []
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing input";
  v

let rec print_json b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Num f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string b (string_of_int (int_of_float f))
      else Buffer.add_string b (string_of_float f)
  | Str s ->
      Buffer.add_char b '"';
      String.iter
        (fun c ->
          match c with
          | '"' -> Buffer.add_string b "\\\""
          | '\\' -> Buffer.add_string b "\\\\"
          | '\n' -> Buffer.add_string b "\\n"
          | c when Char.code c < 0x20 ->
              Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char b c)
        s;
      Buffer.add_char b '"'
  | Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          print_json b v)
        l;
      Buffer.add_char b ']'
  | Obj l ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          print_json b (Str k);
          Buffer.add_char b ':';
          print_json b v)
        l;
      Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 1024 in
  print_json b j;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Trace capture helpers                                               *)
(* ------------------------------------------------------------------ *)

(* Run the full pipeline under tracing and return the rendered document.
   The recorder is global state, so reset before and disable after —
   [Fun.protect] keeps a failing run from leaking an enabled recorder
   into unrelated tests. *)
let trace_of ?(mode = Trace.Logical) ~jobs prog =
  Trace.reset ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Trace.set_enabled false)
    (fun () -> ignore (Driver.run ~jobs prog));
  Trace.to_chrome_json ~mode ()

let events_of doc =
  match parse_json doc with
  | Obj fields -> (
      match List.assoc_opt "traceEvents" fields with
      | Some (Arr evs) ->
          List.map
            (function Obj f -> f | _ -> failwith "event is not an object")
            evs
      | _ -> failwith "missing traceEvents array")
  | _ -> failwith "trace document is not an object"

let str_field name ev =
  match List.assoc_opt name ev with
  | Some (Str s) -> s
  | _ -> failwith ("missing string field " ^ name)

let int_field name ev =
  match List.assoc_opt name ev with
  | Some (Num f) -> int_of_float f
  | _ -> failwith ("missing numeric field " ^ name)

(* Check the B/E discipline of a parsed event list: per tid, every End
   matches the innermost open Begin by name, and every Begin is closed.
   Returns the number of complete spans checked. *)
let check_balanced events =
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  let spans = ref 0 in
  List.iter
    (fun ev ->
      let ph = str_field "ph" ev in
      if ph = "B" || ph = "E" then begin
        let tid = int_field "tid" ev in
        let name = str_field "name" ev in
        let stack =
          match Hashtbl.find_opt stacks tid with Some s -> s | None -> []
        in
        match ph with
        | "B" -> Hashtbl.replace stacks tid (name :: stack)
        | _ -> (
            match stack with
            | top :: rest ->
                Alcotest.(check string)
                  (Printf.sprintf "E matches innermost B on tid %d" tid)
                  top name;
                incr spans;
                Hashtbl.replace stacks tid rest
            | [] -> Alcotest.failf "E %S on tid %d with no open span" name tid)
      end)
    events;
  Hashtbl.iter
    (fun tid stack ->
      if stack <> [] then
        Alcotest.failf "tid %d left %d span(s) open" tid (List.length stack))
    stacks;
  !spans

let three_procs =
  parse
    {|
      proc main() { x = 2; call f(x); print x; }
      proc f(u) { call g(u + 1); }
      proc g(v) { print v; }
    |}

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)
(* ------------------------------------------------------------------ *)

let phase_names =
  [
    "1:ipa-collect";
    "2:call-graph";
    "3:aliasing";
    "4:mod-ref";
    "lowering";
    "5a:fi-icp";
    "5b:fs-icp";
    "6:use";
  ]

let test_phases_covered () =
  let doc = trace_of ~jobs:1 three_procs in
  let events = events_of doc in
  let begins =
    List.filter_map
      (fun ev -> if str_field "ph" ev = "B" then Some ev else None)
      events
  in
  List.iter
    (fun phase ->
      Alcotest.(check bool)
        (Printf.sprintf "phase span %S present" phase)
        true
        (List.exists (fun ev -> str_field "name" ev = phase) begins))
    phase_names;
  (* One scc:solve span per reachable procedure, tagged with its name. *)
  let scc_procs =
    List.filter_map
      (fun ev ->
        if str_field "name" ev = "scc:solve" then
          match List.assoc_opt "args" ev with
          | Some (Obj args) -> (
              match List.assoc_opt "proc" args with
              | Some (Str p) -> Some p
              | _ -> failwith "scc:solve without a proc arg")
          | _ -> failwith "scc:solve without args"
        else None)
      begins
    |> List.sort String.compare
  in
  Alcotest.(check (list string))
    "scc:solve spans name every procedure" [ "f"; "g"; "main" ] scc_procs

(* In logical mode the top-level span order is the pipeline order: the
   epoch advances between phases and ties break on the phase name. *)
let test_phase_order_logical () =
  let doc = trace_of ~jobs:4 three_procs in
  let events = events_of doc in
  let depth = ref 0 in
  let toplevel = ref [] in
  List.iter
    (fun ev ->
      match str_field "ph" ev with
      | "B" ->
          if !depth = 0 then toplevel := str_field "name" ev :: !toplevel;
          Stdlib.incr depth
      | "E" -> Stdlib.decr depth
      | _ -> ())
    events;
  let toplevel = List.rev !toplevel in
  let index name =
    let rec go i = function
      | [] -> Alcotest.failf "phase %S not at top level" name
      | x :: rest -> if x = name then i else go (i + 1) rest
    in
    go 0 toplevel
  in
  let indices = List.map index phase_names in
  Alcotest.(check bool)
    (Printf.sprintf "phases appear in pipeline order (%s)"
       (String.concat " " toplevel))
    true
    (List.sort compare indices = indices)

let test_span_exception_safety () =
  Trace.reset ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Trace.set_enabled false)
    (fun () ->
      Trace.span "outer" (fun () ->
          try Trace.span "boom" (fun () -> raise Exit) with Exit -> ()));
  let events = events_of (Trace.to_chrome_json ~mode:Trace.Logical ()) in
  let spans = check_balanced events in
  Alcotest.(check int) "both spans closed despite the raise" 2 spans

let test_counters_and_table () =
  Trace.reset ();
  ignore (Driver.run ~jobs:1 three_procs);
  Alcotest.(check int)
    "lower.procs counts each lowered procedure" 3
    (Trace.counter_total "lower.procs");
  Alcotest.(check int)
    "Metrics.scc_block_visits reads the scc.block_visits counter"
    (Trace.counter_total "scc.block_visits")
    (Metrics.scc_block_visits ());
  Alcotest.(check int)
    "unregistered counters read as zero" 0
    (Trace.counter_total "no.such.counter");
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i =
      i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1))
    in
    go 0
  in
  let stable = Trace.counters_table () in
  Alcotest.(check bool)
    "stable table lists scc.block_visits" true
    (contains stable "scc.block_visits");
  Alcotest.(check bool)
    "stable table omits par.pools" false (contains stable "par.pools");
  Alcotest.(check bool)
    "full table includes par.pools" true
    (contains (Trace.counters_table ~all:true ()) "par.pools")

(* ------------------------------------------------------------------ *)
(* Properties over generated programs                                  *)
(* ------------------------------------------------------------------ *)

(* Counters that must not depend on the domain count.  par.tasks and
   ssa.cache_hits qualify because generated programs sit under
   [Par.cutoff Init]: FS pre-builds SSA only past it. *)
let invariant_counters =
  [
    "fi.lowerings";
    "fi.worklist_pops";
    "lower.procs";
    "par.tasks";
    "scc.block_visits";
    "scc.edge_marks";
    "scc.memo_hits";
    "scc.runs";
    "scc.site_visits";
    "ssa.built";
    "ssa.cache_hits";
  ]

let gen_seed = QCheck2.Gen.int_range 0 100_000

let prop_balanced =
  Test_util.qcheck ~count:8 ~name:"spans balanced and nested at jobs 1 and 4"
    gen_seed (fun seed ->
      let prog = O.program_of_seed seed in
      List.iter
        (fun jobs ->
          List.iter
            (fun mode ->
              let events = events_of (trace_of ~mode ~jobs prog) in
              ignore (check_balanced events))
            [ Trace.Logical; Trace.Wall ])
        [ 1; 4 ];
      true)

let prop_counters_jobs_invariant =
  Test_util.qcheck ~count:8 ~name:"stable counters identical across jobs"
    gen_seed (fun seed ->
      let prog = O.program_of_seed seed in
      let totals jobs =
        Trace.reset ();
        ignore (Driver.run ~jobs prog);
        List.map (fun c -> (c, Trace.counter_total c)) invariant_counters
      in
      let t1 = totals 1 and t4 = totals 4 in
      if t1 <> t4 then
        QCheck2.Test.fail_reportf "seed %d: jobs=1 %s / jobs=4 %s" seed
          (String.concat ", "
             (List.map (fun (c, v) -> Printf.sprintf "%s=%d" c v) t1))
          (String.concat ", "
             (List.map (fun (c, v) -> Printf.sprintf "%s=%d" c v) t4))
      else true)

let prop_logical_deterministic =
  Test_util.qcheck ~count:6 ~name:"logical trace byte-identical across runs"
    gen_seed (fun seed ->
      let prog = O.program_of_seed seed in
      let once () = trace_of ~jobs:4 prog in
      let a = once () and b = once () in
      if not (String.equal a b) then
        QCheck2.Test.fail_reportf "seed %d: logical traces differ" seed
      else true)

let prop_roundtrip =
  Test_util.qcheck ~count:6 ~name:"trace JSON round-trips through the parser"
    gen_seed (fun seed ->
      let prog = O.program_of_seed seed in
      List.iter
        (fun mode ->
          let doc = trace_of ~mode ~jobs:4 prog in
          let parsed = parse_json doc in
          let reparsed = parse_json (to_string parsed) in
          if parsed <> reparsed then
            ignore
              (QCheck2.Test.fail_reportf "seed %d: round-trip changed the trace"
                 seed))
        [ Trace.Logical; Trace.Wall ];
      true)

let suite =
  [
    Alcotest.test_case "phase spans cover the pipeline" `Quick
      test_phases_covered;
    Alcotest.test_case "logical top-level order is the pipeline order" `Quick
      test_phase_order_logical;
    Alcotest.test_case "spans close on exceptions" `Quick
      test_span_exception_safety;
    Alcotest.test_case "counters and tables" `Quick test_counters_and_table;
    prop_balanced;
    prop_counters_jobs_invariant;
    prop_logical_deterministic;
    prop_roundtrip;
  ]
