(** Minimal JSON values for the serve wire protocol.

    Hand-written (the toolchain ships no JSON library) and deliberately
    small: objects, arrays, strings, ints, floats, bools, null.  The
    printer emits no insignificant whitespace; the parser accepts any
    RFC-8259 document of these shapes, including [\uXXXX] escapes (decoded
    to UTF-8, surrogate pairs included; lone or mismatched surrogate
    escapes are rejected rather than emitted as ill-formed bytes).  Ints
    that fit [int] stay ints; any other number parses as a float. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
      (* Round-trippable and never bare-exponent-less-integer ambiguous:
         [%.17g] re-reads to the same double. *)
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string b (Printf.sprintf "%.1f" f)
      else Buffer.add_string b (Printf.sprintf "%.17g" f)
  | Str s -> escape_string b s
  | Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          write b x)
        l;
      Buffer.add_char b ']'
  | Obj l ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          escape_string b k;
          Buffer.add_char b ':';
          write b v)
        l;
      Buffer.add_char b '}'

let to_string (v : t) : string =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt
let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let next c =
  match peek c with
  | Some ch ->
      c.pos <- c.pos + 1;
      ch
  | None -> fail "unexpected end of input"

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
      c.pos <- c.pos + 1;
      skip_ws c
  | _ -> ()

let expect c ch =
  let got = next c in
  if got <> ch then fail "expected '%c' at offset %d, got '%c'" ch (c.pos - 1) got

let literal c word v =
  String.iter (fun ch -> expect c ch) word;
  v

let add_utf8 b cp =
  if cp < 0x80 then Buffer.add_char b (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end

let hex4 c =
  let v = ref 0 in
  for _ = 1 to 4 do
    let ch = next c in
    let d =
      match ch with
      | '0' .. '9' -> Char.code ch - Char.code '0'
      | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
      | _ -> fail "invalid \\u escape"
    in
    v := (!v * 16) + d
  done;
  !v

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec go () =
    match next c with
    | '"' -> Buffer.contents b
    | '\\' ->
        (match next c with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
            let cp = hex4 c in
            let cp =
              (* High surrogate: the mandatory low half must follow
                 immediately as another [\uXXXX] escape (RFC 8259 §8.2).
                 Anything else — end of string, a literal character, a
                 non-low-surrogate escape — is an unpaired surrogate and
                 must not reach the UTF-8 encoder as a raw D800–DFFF code
                 point. *)
              if cp >= 0xD800 && cp <= 0xDBFF then begin
                if not (peek c = Some '\\') then
                  fail "unpaired high surrogate \\u%04X" cp;
                expect c '\\';
                (match peek c with
                | Some 'u' -> ()
                | _ -> fail "unpaired high surrogate \\u%04X" cp);
                expect c 'u';
                let lo = hex4 c in
                if lo < 0xDC00 || lo > 0xDFFF then
                  fail "invalid low surrogate \\u%04X after \\u%04X" lo cp;
                0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
              end
              else if cp >= 0xDC00 && cp <= 0xDFFF then
                (* A low surrogate with no preceding high half can encode
                   no scalar value; emitting it raw would produce invalid
                   UTF-8 (CESU-8 garbage). *)
                fail "lone low surrogate \\u%04X" cp
              else cp
            in
            add_utf8 b cp
        | ch -> fail "invalid escape '\\%c'" ch);
        go ()
    | ch -> Buffer.add_char b ch; go ()
  in
  go ()

let parse_number c =
  let start = c.pos in
  let consume_while pred =
    while (match peek c with Some ch -> pred ch | None -> false) do
      c.pos <- c.pos + 1
    done
  in
  if peek c = Some '-' then c.pos <- c.pos + 1;
  consume_while (function '0' .. '9' -> true | _ -> false);
  let is_float = ref false in
  if peek c = Some '.' then begin
    is_float := true;
    c.pos <- c.pos + 1;
    consume_while (function '0' .. '9' -> true | _ -> false)
  end;
  (match peek c with
  | Some ('e' | 'E') ->
      is_float := true;
      c.pos <- c.pos + 1;
      (match peek c with
      | Some ('+' | '-') -> c.pos <- c.pos + 1
      | _ -> ());
      consume_while (function '0' .. '9' -> true | _ -> false)
  | _ -> ());
  let s = String.sub c.src start (c.pos - start) in
  if !is_float then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail "invalid number %S" s
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> fail "invalid number %S" s)

(* Arrays and objects recurse once per level, so a frame of 60 MB of
   ['['] would overflow the stack long before it ran out of input. *)
let max_depth = 256

(* Step over the opening bracket of a value nested at [depth]. *)
let enter depth c =
  if depth >= max_depth then
    fail "nesting deeper than %d levels at offset %d" max_depth c.pos;
  c.pos <- c.pos + 1;
  depth + 1

let rec parse_value depth c =
  skip_ws c;
  match peek c with
  | None -> fail "unexpected end of input"
  | Some '"' -> Str (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some '[' ->
      let depth = enter depth c in
      skip_ws c;
      if peek c = Some ']' then begin
        c.pos <- c.pos + 1;
        Arr []
      end
      else begin
        let acc = ref [ parse_value depth c ] in
        skip_ws c;
        while peek c = Some ',' do
          c.pos <- c.pos + 1;
          acc := parse_value depth c :: !acc;
          skip_ws c
        done;
        expect c ']';
        Arr (List.rev !acc)
      end
  | Some '{' ->
      let depth = enter depth c in
      let member () =
        skip_ws c;
        let k = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value depth c in
        skip_ws c;
        (k, v)
      in
      skip_ws c;
      if peek c = Some '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else begin
        let acc = ref [ member () ] in
        while peek c = Some ',' do
          c.pos <- c.pos + 1;
          acc := member () :: !acc
        done;
        expect c '}';
        Obj (List.rev !acc)
      end
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail "unexpected character '%c' at offset %d" ch c.pos

let of_string (s : string) : (t, string) result =
  let c = { src = s; pos = 0 } in
  match parse_value 0 c with
  | v ->
      skip_ws c;
      if c.pos <> String.length s then
        Error (Printf.sprintf "trailing garbage at offset %d" c.pos)
      else Ok v
  | exception Parse_error m -> Error m

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member k = function Obj l -> List.assoc_opt k l | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_int = function Int i -> Some i | _ -> None

let str_member k v = Option.bind (member k v) to_str
let int_member k v = Option.bind (member k v) to_int
