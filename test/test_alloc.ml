(** Exact allocation counts: the per-procedure layers must cost O(body),
    not O(body × globals), and printing and parsing cost a constant
    number of words per byte.  Two programs share their 500 procedure bodies;
    one declares the 8 globals the bodies use, the other 800, of which the
    bodies name 18.  At [jobs 1] everything runs on the calling domain, so
    the counts are deterministic: the same on every machine with the same
    OCaml version. *)

open Fsicp_core

let n_procs = 500

(* A binary call tree of [n_procs] procedures under [main].  Every
   fiftieth procedure of the wide program also prints one of the globals
   past the first eight. *)
let source ~globals =
  let b = Buffer.create 65536 in
  let add fmt = Printf.bprintf b fmt in
  add "global %s;\n"
    (String.concat ", " (List.init globals (Printf.sprintf "g%d")));
  add "proc main() { call p0(1, 2); }\n";
  for k = 0 to n_procs - 1 do
    let g = k mod 8 and h = (k + 1) mod 8 in
    add "proc p%d(a, b) { x = a + g%d; " k g;
    add "if (x > 3) { b = x; } else { g%d = b; } " h;
    if (2 * k) + 1 < n_procs then add "call p%d(x, g%d); " ((2 * k) + 1) g;
    if (2 * k) + 2 < n_procs then add "call p%d(b, 4); " ((2 * k) + 2);
    if globals > 8 && k mod 50 = 0 then add "print g%d; " (8 + (k / 50));
    add "print b; }\n"
  done;
  Buffer.contents b

(* Words [f] allocates on this domain: minor-heap words, and words
   allocated directly in the major heap (large blocks). *)
let words f =
  let m0 = Gc.minor_words () and _, p0, j0 = Gc.counters () in
  let r = f () in
  let m1 = Gc.minor_words () and _, p1, j1 = Gc.counters () in
  (r, m1 -. m0, j1 -. p1 -. (j0 -. p0))

(* Per-procedure minor and total words of the three layers. *)
let per_proc globals =
  let prog = Test_util.parse (source ~globals) in
  let n = float_of_int n_procs in
  let per (_, minor, major) = (minor /. n, (minor +. major) /. n) in
  let summary = words (fun () -> Fsicp_ipa.Summary.collect prog) in
  let ctx = Context.create ~jobs:1 prog in
  let lower =
    words (fun () -> Context.lower_all ~jobs:1 prog ctx.Context.pcg)
  in
  let fs = Fs_icp.solve ~jobs:1 ctx in
  let fold = words (fun () -> Fold.fold_program ctx fs) in
  [ ("ipa.summary", per summary); ("cfg.lower", per lower);
    ("core.fold", per fold) ]

let test_alloc_flat_in_globals () =
  let narrow = per_proc 8 and wide = per_proc 800 in
  let over =
    List.filter_map
      (fun ((layer, (m8, t8)), (_, (m800, t800))) ->
        if m800 > 1.5 *. m8 || t800 > 1.5 *. t8 then
          Some
            (Printf.sprintf
               "%s: %.0f minor / %.0f total words per procedure with 800 \
                globals, %.0f / %.0f with 8"
               layer m800 t800 m8 t8)
        else None)
      (List.combine narrow wide)
  in
  if over <> [] then
    Alcotest.failf "over the 1.5x bound:\n%s" (String.concat "\n" over)

(* Printing writes into one buffer: the words allocated per output byte
   stay a small constant (the buffer's doublings and the final copy), far
   below the ~17 a Format-box printer spends on the same corpus. *)
let test_pretty_words_per_byte () =
  let module Scale = Fsicp_workloads.Scale in
  let prog =
    Scale.generate
      { Scale.sp_family = Scale.Mixed; sp_procs = 2_000; sp_seed = 1 }
  in
  let text, minor, major =
    words (fun () -> Fsicp_lang.Pretty.program_to_string prog)
  in
  let per_byte = (minor +. major) /. float_of_int (String.length text) in
  if per_byte > 2.0 then
    Alcotest.failf "printing %d bytes allocated %.2f words per byte (bound 2)"
      (String.length text) per_byte

(* Lexing peeks each character several times, so a peek must not
   allocate.  Parsing this text reads about 5.4 words per byte; when the
   lexer's peek boxed each character in an option it read 11. *)
let test_parse_words_per_byte () =
  let module Scale = Fsicp_workloads.Scale in
  let text =
    Fsicp_lang.Pretty.program_to_string
      (Scale.generate
         { Scale.sp_family = Scale.Mixed; sp_procs = 2_000; sp_seed = 1 })
  in
  let _, minor, major =
    words (fun () -> Fsicp_lang.Parser.program_of_string text)
  in
  let per_byte = (minor +. major) /. float_of_int (String.length text) in
  if per_byte > 7.0 then
    Alcotest.failf "parsing %d bytes allocated %.2f words per byte (bound 7)"
      (String.length text) per_byte

let suite =
  [
    Alcotest.test_case "allocation per procedure flat in globals" `Quick
      test_alloc_flat_in_globals;
    Alcotest.test_case "printing allocates at most 2 words per byte" `Quick
      test_pretty_words_per_byte;
    Alcotest.test_case "parsing allocates at most 7 words per byte" `Quick
      test_parse_words_per_byte;
  ]
