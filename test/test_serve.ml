(** Tests for the serve layer: JSON printing/parsing round-trips, wire
    framing, socket-free request dispatch, and a live in-process daemon
    (own domain, real Unix socket) driven through a load → query → edit →
    digest → shutdown session. *)

open Fsicp_serve
module Json = Fsicp_serve.Json

let json = Alcotest.testable (Fmt.of_to_string Json.to_string) ( = )

let parse_exn s =
  match Json.of_string s with
  | Ok d -> d
  | Error m -> Alcotest.failf "unexpected JSON parse error on %S: %s" s m

(* -- JSON ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  List.iter
    (fun v ->
      Alcotest.check json
        (Printf.sprintf "round-trip %s" (Json.to_string v))
        v
        (parse_exn (Json.to_string v)))
    [
      Json.Null;
      Json.Bool true;
      Json.Int 0;
      Json.Int (-42);
      Json.Int max_int;
      Json.Float 2.5;
      Json.Str "";
      Json.Str "plain";
      Json.Str "esc \" \\ \n \t \x01 end";
      Json.Str "héllo \xe2\x8a\xa5";
      Json.Arr [];
      Json.Arr [ Json.Int 1; Json.Str "two"; Json.Null ];
      Json.Obj [];
      Json.Obj
        [
          ("a", Json.Arr [ Json.Obj [ ("b", Json.Bool false) ] ]);
          ("empty", Json.Str "");
        ];
    ]

let test_json_unicode_escapes () =
  (* \u escapes decode to UTF-8, surrogate pairs included. *)
  Alcotest.check json "BMP escape" (Json.Str "héllo")
    (parse_exn {|"héllo"|});
  Alcotest.check json "surrogate pair" (Json.Str "\xf0\x9d\x84\x9e")
    (parse_exn {|"𝄞"|});
  Alcotest.check json "escaped controls" (Json.Str "\n\t/")
    (parse_exn {|"\n\t\/"|})

let test_json_surrogates () =
  (* Valid pairs across the supplementary range round-trip: the \u pair
     decodes to the scalar's UTF-8 bytes, and re-printing re-parses to the
     same document. *)
  let utf8 cp =
    let b = Buffer.create 4 in
    Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)));
    Buffer.contents b
  in
  List.iter
    (fun cp ->
      let u = cp - 0x10000 in
      let hi = 0xD800 lor (u lsr 10) and lo = 0xDC00 lor (u land 0x3FF) in
      let doc = Printf.sprintf {|"\u%04X\u%04X"|} hi lo in
      let parsed = parse_exn doc in
      Alcotest.check json
        (Printf.sprintf "pair U+%04X decodes" cp)
        (Json.Str (utf8 cp)) parsed;
      Alcotest.check json
        (Printf.sprintf "pair U+%04X round-trips" cp)
        parsed
        (parse_exn (Json.to_string parsed)))
    [ 0x10000; 0x1D11E; 0x1F600; 0xFFFFF; 0x10FFFF ];
  (* Lone and mismatched surrogate escapes are rejected, never emitted as
     ill-formed bytes (RFC 8259: an escaped code point must be a Unicode
     scalar value). *)
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok d ->
          Alcotest.failf "%S wrongly parsed as %s" s (Json.to_string d)
      | Error _ -> ())
    [
      (* lone low surrogates, range edges included *)
      {|"\uDC00"|}; {|"\uDFFF"|}; {|"\uDEAD"|}; {|"x\uDC00y"|};
      (* lone high surrogates: end of string, literal char, non-escape *)
      {|"\uD800"|}; {|"\uDBFF"|}; {|"\uD800x"|}; {|"\uD800 "|};
      (* high surrogate followed by a non-\u escape *)
      {|"\uD800\n"|}; {|"\uD800\\"|};
      (* high surrogate paired with a non-low-surrogate escape *)
      {|"\uD800\u0041"|}; {|"\uD83D\uD83D"|}; {|"\uDBFF"|};
    ];
  (* The boundary non-surrogate escapes on either side still decode. *)
  Alcotest.check json "U+D7FF decodes" (Json.Str "\xed\x9f\xbf")
    (parse_exn {|"퟿"|});
  Alcotest.check json "U+E000 decodes" (Json.Str "\xee\x80\x80")
    (parse_exn {|""|})

let test_json_errors () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok d ->
          Alcotest.failf "%S wrongly parsed as %s" s (Json.to_string d)
      | Error _ -> ())
    [
      ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2";
      "{\"a\":1} trailing"; "'single'"; "{a:1}";
    ]

let test_json_accessors () =
  let doc = parse_exn {|{"cmd":"load","n":3,"nested":{"s":"x"}}|} in
  Alcotest.(check (option string)) "str_member" (Some "load")
    (Json.str_member "cmd" doc);
  Alcotest.(check (option int)) "int_member" (Some 3) (Json.int_member "n" doc);
  Alcotest.(check (option string)) "missing" None (Json.str_member "nope" doc);
  Alcotest.(check (option string)) "wrong type" None (Json.str_member "n" doc)

(* -- framing --------------------------------------------------------------- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ a; b ])
    (fun () -> f a b)

let test_framing_roundtrip () =
  with_socketpair (fun a b ->
      List.iter
        (fun payload ->
          Protocol.write_frame a payload;
          Alcotest.(check (option string))
            "frame round-trip" (Some payload) (Protocol.read_frame b))
        [ ""; "x"; {|{"cmd":"version"}|}; String.make 100_000 'z' ])

let test_framing_eof () =
  with_socketpair (fun a b ->
      Unix.close a;
      Alcotest.(check (option string))
        "clean EOF is None" None (Protocol.read_frame b))

let test_framing_bad_length () =
  with_socketpair (fun a b ->
      (* A length prefix beyond max_frame_len must raise, not allocate. *)
      let hdr = Bytes.create 4 in
      Bytes.set_int32_be hdr 0 0x7fffffffl;
      ignore (Unix.write a hdr 0 4);
      match Protocol.read_frame b with
      | _ -> Alcotest.fail "oversized frame accepted"
      | exception Protocol.Frame_error _ -> ())

(* A document nested one level past [Json.max_depth] is refused with an
   error naming the limit, and the connection goes on serving: the frames
   are queued on a socket pair, whose write half is then shut, so
   [serve_connection] answers both and returns at EOF. *)
let test_json_depth_cap () =
  let nest n = String.make n '[' ^ String.make n ']' in
  Alcotest.(check bool) "at the cap parses" true
    (Result.is_ok (Json.of_string (nest Json.max_depth)));
  with_socketpair (fun a b ->
      Protocol.write_frame a (nest (Json.max_depth + 1));
      Protocol.write_frame a {|{"cmd":"version"}|};
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      Serve.serve_connection (Protocol.make_state ~jobs:1 ~version:"test" ()) b;
      let next () =
        match Protocol.read_frame a with
        | Some payload -> parse_exn payload
        | None -> Alcotest.fail "connection closed early"
      in
      let deep = next () in
      Alcotest.(check (option bool)) "deep frame: ok:false" (Some false)
        (match Json.member "ok" deep with
        | Some (Json.Bool x) -> Some x
        | _ -> None);
      let err = Option.value ~default:"" (Json.str_member "error" deep) in
      let limit = string_of_int Json.max_depth in
      Alcotest.(check bool)
        (Printf.sprintf "error names the limit: %s" err)
        true
        (List.exists (String.equal limit)
           (String.split_on_char ' ' err));
      Alcotest.(check (option string)) "version still answered"
        (Some "test")
        (Json.str_member "version" (next ())))

(* -- socket-free dispatch -------------------------------------------------- *)

let prog_src =
  {|
global g;
proc main() { g = 1; call f(10); print g; }
proc f(n) { x = n + 2; g = g + x; call h(x); }
proc h(y) { g = g + y; }
|}

let req st s = Protocol.handle st (parse_exn s)

let ok_of resp =
  match Json.member "ok" resp with
  | Some (Json.Bool b) -> b
  | _ -> Alcotest.failf "response without ok: %s" (Json.to_string resp)

let test_dispatch_session () =
  let st = Protocol.make_state ~jobs:1 ~version:"test" () in
  (* Commands needing a program fail cleanly before load. *)
  Alcotest.(check bool) "digest before load fails" false
    (ok_of (req st {|{"cmd":"digest"}|}));
  let load =
    req st
      (Json.to_string
         (Json.Obj [ ("cmd", Json.Str "load"); ("source", Json.Str prog_src) ]))
  in
  Alcotest.(check bool) "load ok" true (ok_of load);
  Alcotest.(check (option int)) "3 procs" (Some 3)
    (Json.int_member "procs" load);
  let entry = req st {|{"cmd":"query-entry","proc":"main"}|} in
  Alcotest.(check bool) "query-entry ok" true (ok_of entry);
  Alcotest.(check (option string))
    "query-entry defaults to the fs method" (Some "flow-sensitive")
    (Json.str_member "method" entry);
  Alcotest.(check bool) "unknown proc fails" false
    (ok_of (req st {|{"cmd":"query-entry","proc":"nope"}|}));
  (* Method selection: every vocabulary entry answers, and the cc/vc
     solutions agree with fs on f's formal (n = 10 on the only call). *)
  let entry_with m =
    req st
      (Printf.sprintf {|{"cmd":"query-entry","proc":"f","method":"%s"}|} m)
  in
  let formal0 resp =
    match Json.member "formals" resp with
    | Some (Json.Arr (Json.Str v :: _)) -> v
    | _ -> Alcotest.failf "no formals in %s" (Json.to_string resp)
  in
  List.iter
    (fun m ->
      let resp = entry_with m in
      Alcotest.(check bool) ("query-entry method " ^ m) true (ok_of resp);
      Alcotest.(check string)
        (m ^ " agrees on f's constant formal")
        (formal0 (entry_with "fs"))
        (formal0 resp))
    [ "fs"; "fi"; "cc"; "vc" ];
  Alcotest.(check bool) "unknown method fails" false
    (ok_of (req st {|{"cmd":"query-entry","proc":"f","method":"poly"}|}));
  Alcotest.(check bool) "call-site query ok" true
    (ok_of (req st {|{"cmd":"query-call-site","caller":"main","cs":0}|}));
  Alcotest.(check bool) "malformed JSON command fails" false
    (ok_of (req st {|{"cmd":"query-call-site","caller":"main"}|}));
  Alcotest.(check bool) "unknown command fails" false
    (ok_of (req st {|{"cmd":"frobnicate"}|}));
  Alcotest.(check bool) "bad edit source fails" false
    (ok_of (req st {|{"cmd":"edit-proc","source":"proc f(n) {"}|}));
  (* The digest after an incremental edit equals a fresh engine's digest
     of the same edited program (byte-identity through the dispatcher). *)
  let edit =
    req st
      {|{"cmd":"edit-proc","source":"proc f(n) { x = n + 5; g = g + x; call h(x); }"}|}
  in
  Alcotest.(check bool) "edit ok" true (ok_of edit);
  (match Json.member "edits" edit with
  | Some (Json.Arr [ one ]) ->
      Alcotest.(check (option string))
        "edit went incremental" (Some "incremental")
        (Json.str_member "outcome" one)
  | _ -> Alcotest.failf "unexpected edit response %s" (Json.to_string edit));
  let digest_live = Json.str_member "digest" (req st {|{"cmd":"digest"}|}) in
  let dumped = Json.str_member "program" (req st {|{"cmd":"dump-program"}|}) in
  let st2 = Protocol.make_state ~jobs:1 ~version:"test" () in
  let load2 =
    req st2
      (Json.to_string
         (Json.Obj
            [
              ("cmd", Json.Str "load");
              ("source", Json.Str (Option.get dumped));
            ]))
  in
  Alcotest.(check bool) "reload of dump ok" true (ok_of load2);
  Alcotest.(check (option string))
    "live digest = fresh digest of dumped program" digest_live
    (Json.str_member "digest" (req st2 {|{"cmd":"digest"}|}));
  let stats = req st {|{"cmd":"stats"}|} in
  Alcotest.(check bool) "stats ok" true (ok_of stats);
  Alcotest.(check bool) "shutdown latches" false st.Protocol.stop;
  Alcotest.(check bool) "shutdown ok" true
    (ok_of (req st {|{"cmd":"shutdown"}|}));
  Alcotest.(check bool) "stop latched" true st.Protocol.stop

let test_dispatch_batch () =
  let st = Protocol.make_state ~jobs:1 ~version:"test" () in
  match
    Protocol.handle st
      (Json.Arr
         [
           parse_exn {|{"cmd":"version"}|};
           Json.Obj
             [ ("cmd", Json.Str "load"); ("source", Json.Str prog_src) ];
           parse_exn {|{"cmd":"digest"}|};
           parse_exn {|{"cmd":"nope"}|};
         ])
  with
  | Json.Arr [ v; l; d; bad ] ->
      Alcotest.(check bool) "version ok" true (ok_of v);
      Alcotest.(check bool) "load ok" true (ok_of l);
      Alcotest.(check bool) "digest ok" true (ok_of d);
      Alcotest.(check bool) "bad element fails alone" false (ok_of bad)
  | resp -> Alcotest.failf "batch answered %s" (Json.to_string resp)

(* A multi-procedure edit applies all or nothing: a batch whose second
   procedure calls an undefined one leaves the program, the solution and
   the edit counters exactly as they were. *)
let test_failing_batch_is_atomic () =
  let st = Protocol.make_state ~jobs:1 ~version:"test" () in
  Alcotest.(check bool) "load ok" true
    (ok_of
       (req st
          (Json.to_string
             (Json.Obj
                [ ("cmd", Json.Str "load"); ("source", Json.Str prog_src) ]))));
  let snapshot () =
    ( Json.str_member "program" (req st {|{"cmd":"dump-program"}|}),
      Json.str_member "digest" (req st {|{"cmd":"digest"}|}),
      Json.to_string
        (Option.get (Json.member "engine" (req st {|{"cmd":"stats"}|}))) )
  in
  let before = snapshot () in
  let resp =
    req st
      {|{"cmd":"edit-proc","source":"proc f(n) { x = n + 7; g = g + x; call h(x); } proc h(y) { call nosuch(1); }"}|}
  in
  Alcotest.(check bool) "batch fails" false (ok_of resp);
  let program, digest, stats = snapshot () in
  let program0, digest0, stats0 = before in
  Alcotest.(check (option string)) "program unchanged" program0 program;
  Alcotest.(check (option string)) "digest unchanged" digest0 digest;
  Alcotest.(check string) "no edit counted" stats0 stats

(* A negative call-site index is answered like any missing one, and the
   daemon keeps answering. *)
let test_negative_call_site () =
  let st = Protocol.make_state ~jobs:1 ~version:"test" () in
  Alcotest.(check bool) "load ok" true
    (ok_of
       (req st
          (Json.to_string
             (Json.Obj
                [ ("cmd", Json.Str "load"); ("source", Json.Str prog_src) ]))));
  let resp = req st {|{"cmd":"query-call-site","caller":"main","cs":-1}|} in
  Alcotest.(check bool) "cs -1 fails" false (ok_of resp);
  Alcotest.(check (option string))
    "cs -1 error" (Some "query-call-site: main has no call site #-1")
    (Json.str_member "error" resp);
  Alcotest.(check bool) "next request answered" true
    (ok_of (req st {|{"cmd":"version"}|}))

(* A procedure the program defines but main never reaches has no analysis
   facts: both queries refuse it with their own error, for every method,
   distinct from the one for a name the program does not define. *)
let test_unreachable_procedure () =
  let st = Protocol.make_state ~jobs:1 ~version:"test" () in
  Alcotest.(check bool) "load ok" true
    (ok_of
       (req st
          (Json.to_string
             (Json.Obj
                [
                  ("cmd", Json.Str "load");
                  ("source", Json.Str (prog_src ^ "proc dead(k) { call h(k); }\n"));
                ]))));
  let error_of s =
    let resp = req st s in
    Alcotest.(check bool) (s ^ " fails") false (ok_of resp);
    Json.str_member "error" resp
  in
  List.iter
    (fun m ->
      Alcotest.(check (option string))
        ("query-entry dead, method " ^ m)
        (Some {|query-entry: procedure "dead" is not reachable from main|})
        (error_of
           (Printf.sprintf {|{"cmd":"query-entry","proc":"dead","method":"%s"}|}
              m));
      Alcotest.(check (option string))
        ("query-entry nope, method " ^ m)
        (Some {|query-entry: unknown procedure "nope"|})
        (error_of
           (Printf.sprintf {|{"cmd":"query-entry","proc":"nope","method":"%s"}|}
              m)))
    [ "fs"; "fi"; "cc"; "vc" ];
  Alcotest.(check (option string))
    "query-call-site dead"
    (Some {|query-call-site: procedure "dead" is not reachable from main|})
    (error_of {|{"cmd":"query-call-site","caller":"dead","cs":0}|});
  Alcotest.(check (option string))
    "query-call-site nope"
    (Some {|query-call-site: unknown procedure "nope"|})
    (error_of {|{"cmd":"query-call-site","caller":"nope","cs":0}|})

(* -- live daemon ----------------------------------------------------------- *)

(* A short socket path under /tmp: sun_path is ~104 bytes, so the build
   sandbox's deep cwd cannot host it. *)
let temp_socket () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "fsicp-test-%d.sock" (Unix.getpid ()))

let test_live_daemon () =
  let socket = temp_socket () in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let ready = Atomic.make false in
  let daemon =
    Domain.spawn (fun () ->
        Serve.run ~jobs:1
          ~on_ready:(fun () -> Atomic.set ready true)
          ~version:"test" ~socket ())
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Atomic.get ready)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  Alcotest.(check bool) "daemon came up" true (Atomic.get ready);
  let fd = Serve.connect ~socket in
  let rt s = Serve.roundtrip fd (parse_exn s) in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Alcotest.(check (option string))
        "version answers" (Some "test")
        (Json.str_member "version" (rt {|{"cmd":"version"}|}));
      Alcotest.(check bool) "load over the wire" true
        (ok_of
           (Serve.roundtrip fd
              (Json.Obj
                 [ ("cmd", Json.Str "load"); ("source", Json.Str prog_src) ])));
      Alcotest.(check bool) "edit over the wire" true
        (ok_of
           (rt
              {|{"cmd":"edit-proc","source":"proc h(y) { g = g + y + 1; }"}|}));
      (* Garbage JSON gets an error response, not a dropped connection. *)
      Protocol.write_frame fd "this is not json";
      (match Protocol.read_frame fd with
      | Some payload ->
          Alcotest.(check bool) "garbage answered with ok:false" false
            (ok_of (parse_exn payload))
      | None -> Alcotest.fail "daemon dropped connection on bad JSON");
      Alcotest.(check bool) "still serving after garbage" true
        (ok_of (rt {|{"cmd":"stats"}|}));
      Alcotest.(check bool) "shutdown" true (ok_of (rt {|{"cmd":"shutdown"}|})));
  Domain.join daemon;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket)

let suite =
  [
    Alcotest.test_case "JSON round-trips" `Quick test_json_roundtrip;
    Alcotest.test_case "JSON unicode escapes" `Quick test_json_unicode_escapes;
    Alcotest.test_case "JSON surrogate range" `Quick test_json_surrogates;
    Alcotest.test_case "JSON rejects malformed documents" `Quick
      test_json_errors;
    Alcotest.test_case "JSON accessors" `Quick test_json_accessors;
    Alcotest.test_case "JSON nesting cap over a connection" `Quick
      test_json_depth_cap;
    Alcotest.test_case "framing round-trips" `Quick test_framing_roundtrip;
    Alcotest.test_case "framing: clean EOF" `Quick test_framing_eof;
    Alcotest.test_case "framing: oversized length rejected" `Quick
      test_framing_bad_length;
    Alcotest.test_case "dispatch: full session" `Quick test_dispatch_session;
    Alcotest.test_case "dispatch: batch frame" `Quick test_dispatch_batch;
    Alcotest.test_case "live daemon over a Unix socket" `Quick
      test_live_daemon;
    Alcotest.test_case "dispatch: failing edit batch is atomic" `Quick
      test_failing_batch_is_atomic;
    Alcotest.test_case "dispatch: negative call site answered" `Quick
      test_negative_call_site;
    Alcotest.test_case "dispatch: unreachable procedure has its own error"
      `Quick test_unreachable_procedure;
  ]
