(** Regression: every FILE argument of the [fsicp] CLI must reject a
    directory, a missing file or an unreadable one with a message naming
    it — exit 124 from argument checking, 2 from a failed read — never an
    uncaught [Sys_error] (exit 125).  [fsicp tables --table NAME] prints
    each table it names and rejects any other name with the list of
    accepted ones.

    Usage: [test_cli.exe FSICP]. *)

let fsicp = Sys.argv.(1)

(* Run [fsicp args], returning its exit code, standard output and standard
   error. *)
let run args =
  let ic, oc, ec =
    Unix.open_process_args_full fsicp
      (Array.of_list (fsicp :: args))
      (Unix.environment ())
  in
  close_out oc;
  let out = In_channel.input_all ic in
  let err = In_channel.input_all ec in
  match Unix.close_process_full (ic, oc, ec) with
  | Unix.WEXITED code -> (code, out, err)
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> (-1, out, err)

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

let failures = ref 0

let expect ~what ?(prints = "") args ~code ~mentions =
  let got, out, err = run args in
  if
    got <> code
    || (not (contains out prints))
    || (not (contains err mentions))
    || contains err "internal error"
  then begin
    incr failures;
    Printf.eprintf "FAIL %s: exit %d (want %d), stderr:\n%s\n" what got code err
  end
  else Printf.printf "ok %s\n" what

let () =
  let dir = Filename.get_temp_dir_name () in
  expect ~what:"analyze DIR" [ "analyze"; dir ] ~code:124
    ~mentions:"is a directory";
  expect ~what:"fold DIR" [ "fold"; dir ] ~code:124 ~mentions:"is a directory";
  expect ~what:"serve --program DIR"
    [
      "serve"; "--socket"; Filename.concat dir "fsicp-cli-test.sock";
      "--program"; dir;
    ]
    ~code:124 ~mentions:"is a directory";
  expect ~what:"analyze missing file"
    [ "analyze"; Filename.concat dir "fsicp-cli-test-no-such-file.mf" ]
    ~code:124 ~mentions:"FILE argument";
  (* A path that exists and opens but fails to read. *)
  if Sys.file_exists "/proc/self/mem" then
    expect ~what:"analyze unreadable file" [ "analyze"; "/proc/self/mem" ]
      ~code:2 ~mentions:"/proc/self/mem: cannot read";
  let good = Filename.temp_file "fsicp-cli-test" ".mf" in
  Out_channel.with_open_bin good (fun oc ->
      output_string oc "proc main() { print 1; }\n");
  expect ~what:"analyze FILE" [ "analyze"; good ] ~code:0 ~mentions:"";
  Sys.remove good;
  List.iter
    (fun (name, prints) ->
      expect ~what:("tables --table " ^ name) ~prints
        [ "tables"; "--table"; name ]
        ~code:0 ~mentions:"")
    [
      ("1", "Table 1:"); ("2", "Table 2:"); ("3", "Table 3:");
      ("4", "Table 4:"); ("5", "Table 5:"); ("6", "Beyond the paper");
      ("fig1", "Figure 1"); ("fig2", "pipeline for program");
      ("time", "FS/FI"); ("backedge", "Back-edge sweep");
      ("floats", "Floating-point ablation");
      ("returns", "Return-constants extension");
    ];
  expect ~what:"tables --table 7" [ "tables"; "--table"; "7" ] ~code:124
    ~mentions:"'returns'";
  if !failures > 0 then exit 1
