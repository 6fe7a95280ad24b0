(** Minimal JSON values for the serve wire protocol — hand-written because
    the toolchain ships no JSON library.  The printer emits no
    insignificant whitespace; the parser accepts any RFC-8259 document of
    these shapes ([\uXXXX] escapes decoded to UTF-8, surrogate pairs
    included).  Integral numbers that fit [int] parse as [Int]; all other
    numbers as [Float]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string

(** Deepest array/object nesting {!of_string} accepts (256). *)
val max_depth : int

(** Parse one complete document; trailing non-whitespace is an error, and
    so is nesting deeper than {!max_depth}. *)
val of_string : string -> (t, string) result

(** Object member lookup; [None] on non-objects and missing keys. *)
val member : string -> t -> t option

val to_int : t -> int option

(** [str_member k v] = [member k v] when it is a string. *)
val str_member : string -> t -> string option

val int_member : string -> t -> int option
