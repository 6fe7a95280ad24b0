(** The serve wire protocol: length-prefixed JSON frames and the
    socket-free request dispatcher (see the implementation header for the
    full request vocabulary).

    Framing: 4-byte big-endian payload length, then that many bytes of
    UTF-8 JSON.  One request frame yields one response frame; an array
    document is a batch, answered element-for-element.  Responses are
    [{"ok":true,...}] or [{"ok":false,"error":...}]; request errors never
    kill the daemon. *)

(** Hard ceiling on frame payloads (64 MiB). *)
val max_frame_len : int

(** Raised on malformed framing (negative or oversized length prefix). *)
exception Frame_error of string

(** Read one frame; [None] on clean EOF at a frame boundary.
    @raise End_of_file on EOF mid-frame
    @raise Frame_error on a length prefix out of range *)
val read_frame : Unix.file_descr -> string option

val write_frame : Unix.file_descr -> string -> unit

(** Daemon state: the engine (once a program is loaded), the configured
    job count, and the shutdown latch. *)
type state = {
  version : string;
  jobs : int option;
  mutable engine : Fsicp_core.Engine.t option;
  mutable stop : bool;
}

val make_state : ?jobs:int -> version:string -> unit -> state

(** Dispatch one request document (or batch).  Total: protocol-level
    problems come back as [{"ok":false,...}] responses. *)
val handle : state -> Json.t -> Json.t
