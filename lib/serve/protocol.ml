(** The serve wire protocol: length-prefixed JSON frames and the request
    dispatcher, socket-free so the whole protocol is unit-testable.

    {2 Framing}

    Each frame is a 4-byte big-endian payload length followed by that many
    bytes of UTF-8 JSON.  One request frame yields exactly one response
    frame.  A frame whose document is a JSON {e array} is a batch: every
    element is dispatched in order and the response frame is the array of
    the per-request responses (a [shutdown] inside a batch still answers
    every earlier request).

    {2 Requests}

    Every request is an object with a ["cmd"] member:

    - [{"cmd":"version"}] → the daemon's version and request vocabulary
      (feature detection);
    - [{"cmd":"load","source":<text>}] — parse, check and fully analyse a
      program, replacing any previous one;
    - [{"cmd":"query-entry","proc":<name>,"method":<m>}] — entry lattice
      values of a procedure's formals and referenced globals; the optional
      ["method"] member selects the solution: ["fs"] (default), ["fi"],
      ["cc"] (copy-constant: the engine's FS solution on an acyclic call
      graph, where the two agree, and otherwise solved on demand) or
      ["vc"] (value-context, solved on demand against the engine's current
      context);
    - [{"cmd":"query-call-site","caller":<name>,"cs":<int>}] — the
      recorded lattice values at one call site;
    - [{"cmd":"edit-proc","source":<text>}] — [<text>] parses as one or
      more procedure definitions; each replaces (or adds) the procedure of
      its name and re-analyses incrementally when the edit preserves the
      program shape (see {!Fsicp_core.Engine}).  The definitions apply
      all or nothing: if the program with all of them substituted is
      ill-formed, none is applied;
    - [{"cmd":"solve"}] — force a full from-scratch re-analysis of the
      current program;
    - [{"cmd":"stats"}] — engine counters (edits, incremental edits,
      rebuilds, epoch) plus the memo/incremental trace counters;
    - [{"cmd":"dump-solution"}] — the flow-sensitive solution,
      pretty-printed;
    - [{"cmd":"dump-program"}] — the current program, pretty-printed
      (re-parseable MiniFort);
    - [{"cmd":"digest"}] — {!Fsicp_core.Solution.digest} of the current
      flow-sensitive solution (byte-comparable across daemons);
    - [{"cmd":"shutdown"}] — acknowledge and stop the daemon.

    Both queries answer a procedure that is defined but not reachable
    from the entry with an error of its own ([procedure "p" is not
    reachable from main]), distinct from the one for a name the program
    does not define.

    Responses are objects: [{"ok":true, ...}] on success,
    [{"ok":false,"error":<message>}] on failure.  Errors never kill the
    daemon. *)

open Fsicp_lang
open Fsicp_core
module Trace = Fsicp_trace.Trace

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

(** Refuse frames above this size (64 MiB): a corrupt length prefix must
    not make the daemon allocate unboundedly. *)
let max_frame_len = 64 * 1024 * 1024

exception Frame_error of string

let really_read fd buf ofs len =
  let got = ref 0 in
  while !got < len do
    let n = Unix.read fd buf (ofs + !got) (len - !got) in
    if n = 0 then raise End_of_file;
    got := !got + n
  done

let really_write fd buf ofs len =
  let sent = ref 0 in
  while !sent < len do
    sent := !sent + Unix.write fd buf (ofs + !sent) (len - !sent)
  done

(** Read one frame; [None] on a clean EOF at a frame boundary. *)
let read_frame (fd : Unix.file_descr) : string option =
  let hdr = Bytes.create 4 in
  match really_read fd hdr 0 4 with
  | exception End_of_file -> None
  | () ->
      let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
      if len < 0 || len > max_frame_len then
        raise (Frame_error (Printf.sprintf "frame length %d out of range" len));
      let payload = Bytes.create len in
      really_read fd payload 0 len;
      Some (Bytes.unsafe_to_string payload)

let write_frame (fd : Unix.file_descr) (payload : string) : unit =
  let len = String.length payload in
  if len > max_frame_len then
    raise (Frame_error (Printf.sprintf "frame length %d out of range" len));
  let buf = Bytes.create (4 + len) in
  Bytes.set_int32_be buf 0 (Int32.of_int len);
  Bytes.blit_string payload 0 buf 4 len;
  really_write fd buf 0 (4 + len)

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

type state = {
  version : string;
  jobs : int option;  (** worker domains per solve; [None] = default *)
  mutable engine : Engine.t option;
  mutable stop : bool;  (** set by [shutdown]; the loop drains and exits *)
}

let make_state ?jobs ~version () = { version; jobs; engine = None; stop = false }

let commands =
  [
    "version"; "load"; "query-entry"; "query-call-site"; "edit-proc";
    "solve"; "stats"; "dump-solution"; "dump-program"; "digest"; "shutdown";
  ]

let ok fields = Json.Obj (("ok", Json.Bool true) :: fields)
let error fmt = Printf.ksprintf (fun m -> Json.Obj [ ("ok", Json.Bool false); ("error", Json.Str m) ]) fmt

let lattice_str v = Fsicp_scc.Lattice.to_string v

let entry_json (e : Solution.proc_entry) =
  [
    ( "formals",
      Json.Arr
        (Array.to_list e.Solution.pe_formals
        |> List.map (fun v -> Json.Str (lattice_str v))) );
    ( "globals",
      Json.Obj
        (List.map
           (fun (g, v) ->
             (Fsicp_prog.Prog.Var.name g, Json.Str (lattice_str v)))
           e.Solution.pe_globals) );
  ]

let parse_program source =
  match Parser.program_of_string source with
  | prog -> Ok prog
  | exception Parser.Error (msg, pos) ->
      Error (Printf.sprintf "parse error at %d:%d: %s" pos.Ast.line pos.Ast.col msg)
  | exception Lexer.Error (msg, pos) ->
      Error (Printf.sprintf "lexical error at %d:%d: %s" pos.Ast.line pos.Ast.col msg)

let with_engine st f =
  match st.engine with
  | None -> error "no program loaded (send {\"cmd\":\"load\",...} first)"
  | Some e -> f e

(* The id of a procedure the engine's PCG reaches, or the request's
   error: an unreachable procedure has no analysis facts, and one the
   program does not define is unknown. *)
let reachable e what name =
  let pcg = (Engine.context e).Context.pcg in
  match Fsicp_callgraph.Callgraph.proc_id pcg name with
  | Some pid -> Ok pid
  | None -> (
      match Fsicp_callgraph.Callgraph.find_ast pcg name with
      | Some _ ->
          Error
            (error "%s: procedure %S is not reachable from %s" what name
               (Engine.context e).Context.prog.Ast.main)
      | None -> Error (error "%s: unknown procedure %S" what name))

let outcome_json = function
  | Engine.Incremental { dirty; total } ->
      [
        ("outcome", Json.Str "incremental");
        ("dirty", Json.Int dirty);
        ("total", Json.Int total);
      ]
  | Engine.Rebuilt reason ->
      [ ("outcome", Json.Str "rebuilt"); ("reason", Json.Str reason) ]

(* The trace counters a serve client cares about: incremental re-solve
   volume (cone, reused, cut off), SCC memo behaviour, worker domains
   spawned (none for a program under the [Par] size cutoff, [jobs - 1] per
   parallel run past it), and the PCGs, lowerings and SSA forms a rebuild
   carried over unchanged. *)
let traced_counters =
  [
    "fs.resolve.dirty"; "fs.resolve.reused"; "fs.resolve.cutoff";
    "scc.runs"; "scc.memo_hits";
    "scc.memo_evictions"; "scc.block_visits"; "par.domains_spawned";
    "callgraph.reused"; "lower.reused"; "ssa.reused";
  ]

let handle_one (st : state) (req : Json.t) : Json.t =
  let cmd = Json.str_member "cmd" req in
  Trace.span
    ~args:(fun () -> [ ("cmd", Option.value cmd ~default:"<none>") ])
    "serve:request"
  @@ fun () ->
  match cmd with
  | None -> error "request must be an object with a \"cmd\" string"
  | Some "version" ->
      ok
        [
          ("version", Json.Str st.version);
          ("commands", Json.Arr (List.map (fun c -> Json.Str c) commands));
        ]
  | Some "load" -> (
      match Json.str_member "source" req with
      | None -> error "load: missing \"source\""
      | Some source -> (
          match parse_program source with
          | Error m -> error "load: %s" m
          | Ok prog -> (
              match Engine.create ?jobs:st.jobs prog with
              | engine ->
                  st.engine <- Some engine;
                  ok
                    [
                      ( "procs",
                        Json.Int
                          (Fsicp_callgraph.Callgraph.n_procs
                             (Engine.context engine).Context.pcg) );
                    ]
              | exception Sema.Illformed errs ->
                  error "load: %s" (Sema.errors_to_string errs))))
  | Some "query-entry" ->
      with_engine st (fun e ->
          match Json.str_member "proc" req with
          | None -> error "query-entry: missing \"proc\""
          | Some proc -> (
              (* FS and FI are maintained by the engine, and so is CC's
                 answer on an acyclic PCG ({!Engine.cc_solution}); VC is
                 solved on demand against the engine's current
                 (incrementally maintained) context. *)
              let solution_of = function
                | "fs" -> Ok (fun () -> Engine.solution e)
                | "fi" -> Ok (fun () -> Engine.fi_solution e)
                | "cc" -> Ok (fun () -> Engine.cc_solution ?jobs:st.jobs e)
                | "vc" ->
                    Ok (fun () -> Vc_icp.solve ?jobs:st.jobs (Engine.context e))
                | m ->
                    Error
                      (error
                         "query-entry: unknown method %S (fs | fi | cc | vc)"
                         m)
              in
              match
                solution_of
                  (Option.value (Json.str_member "method" req) ~default:"fs")
              with
              | Error e -> e
              | Ok solve -> (
                  match reachable e "query-entry" proc with
                  | Error e -> e
                  | Ok pid ->
                      let sol = solve () in
                      ok
                        (("method", Json.Str sol.Solution.method_name)
                        :: entry_json (Solution.entry_at sol pid)))))
  | Some "query-call-site" ->
      with_engine st (fun e ->
          match
            (Json.str_member "caller" req, Json.int_member "cs" req)
          with
          | None, _ | _, None ->
              error "query-call-site: need \"caller\" (string) and \"cs\" (int)"
          | Some caller, Some cs -> (
              match reachable e "query-call-site" caller with
              | Error e -> e
              | Ok pid -> (
                  match
                    Solution.find_call_record (Engine.solution e) ~caller:pid
                      ~cs_index:cs
                  with
                  | None ->
                      error "query-call-site: %s has no call site #%d" caller
                        cs
                  | Some cr ->
                      ok
                        [
                          ( "callee",
                            Json.Str
                              (Solution.proc_name (Engine.solution e)
                                 cr.Solution.cr_callee) );
                          ("executable", Json.Bool cr.Solution.cr_executable);
                          ( "args",
                            Json.Arr
                              (Array.to_list cr.Solution.cr_args
                              |> List.map (fun v -> Json.Str (lattice_str v)))
                          );
                          ( "globals",
                            Json.Obj
                              (List.map
                                 (fun (g, v) ->
                                   ( Fsicp_prog.Prog.Var.name g,
                                     Json.Str (lattice_str v) ))
                                 cr.Solution.cr_globals) );
                        ])))
  | Some "edit-proc" ->
      with_engine st (fun e ->
          match Json.str_member "source" req with
          | None -> error "edit-proc: missing \"source\""
          | Some source -> (
              match parse_program source with
              | Error m -> error "edit-proc: %s" m
              | Ok edit when edit.Ast.procs = [] ->
                  error "edit-proc: no procedure definition in source"
              | Ok edit -> (
                  (* All or nothing: the engine checks the whole batch
                     before it applies any edit. *)
                  match Engine.edit_procs ?jobs:st.jobs e edit.Ast.procs with
                  | outcomes ->
                      ok
                        [
                          ( "edits",
                            Json.Arr
                              (List.map2
                                 (fun (p : Ast.proc) o ->
                                   Json.Obj
                                     (("proc", Json.Str p.Ast.pname)
                                     :: outcome_json o))
                                 edit.Ast.procs outcomes) );
                        ]
                  | exception Sema.Illformed errs ->
                      error "edit-proc: %s" (Sema.errors_to_string errs))))
  | Some "solve" ->
      with_engine st (fun e ->
          let prog = (Engine.context e).Context.prog in
          st.engine <- Some (Engine.create ?jobs:st.jobs prog);
          ok [ ("outcome", Json.Str "rebuilt") ])
  | Some "stats" ->
      with_engine st (fun e ->
          ok
            [
              ( "engine",
                Json.Obj
                  (List.map (fun (k, v) -> (k, Json.Int v)) (Engine.stats e))
              );
              ( "counters",
                Json.Obj
                  (List.map
                     (fun name -> (name, Json.Int (Trace.counter_total name)))
                     traced_counters) );
            ])
  | Some "dump-solution" ->
      with_engine st (fun e ->
          ok [ ("solution", Json.Str (Fmt.str "%a" Solution.pp (Engine.solution e))) ])
  | Some "dump-program" ->
      with_engine st (fun e ->
          ok
            [
              ( "program",
                Json.Str
                  (Pretty.program_to_string (Engine.context e).Context.prog) );
            ])
  | Some "digest" ->
      with_engine st (fun e ->
          ok [ ("digest", Json.Str (Solution.digest (Engine.solution e))) ])
  | Some "shutdown" ->
      st.stop <- true;
      ok [ ("bye", Json.Bool true) ]
  | Some other -> error "unknown command %S (try {\"cmd\":\"version\"})" other

(** Dispatch one frame's document: a single request, or a batch (JSON
    array) answered element-for-element. *)
let handle (st : state) (doc : Json.t) : Json.t =
  match doc with
  | Json.Arr reqs -> Json.Arr (List.map (handle_one st) reqs)
  | req -> handle_one st req
