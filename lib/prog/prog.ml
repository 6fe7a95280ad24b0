(** Implementation of the program database.  See the interface for the
    design contract; the notes here are about the concurrency model.

    [Proc] is trivially safe: a database is built once (single-domain) by
    [Callgraph.build] and read-only afterwards.

    [Var] and [Valpool] are process-global interners shared by all worker
    domains: the parallel lowering interns every variable occurrence and
    the SCC kernels intern folded constants.  Both sit on {!Intern}, whose
    hits take no lock (see there). *)

module Proc = struct
  type id = int

  let to_int i = i
  let equal : id -> id -> bool = Int.equal
  let compare : id -> id -> int = Int.compare
  let hash (i : id) = i
  let pp ppf (i : id) = Fmt.pf ppf "p%d" i

  module Tbl = struct
    type 'a t = 'a array

    let make n default = Array.make n default
    let init n f = Array.init n f
    let length = Array.length
    let get (t : 'a t) (i : id) = t.(i)
    let set (t : 'a t) (i : id) v = t.(i) <- v
    let iteri = Array.iteri
    let fold f t acc =
      let acc = ref acc in
      Array.iteri (fun i v -> acc := f i v !acc) t;
      !acc

    let map = Array.map
    let copy = Array.copy
  end
end

(* An insert-only intern table with lock-free hits.

   [slots] is an open-addressing (linear probing) table of immutable
   entries, [by_id] the same entries indexed by id; both are published
   through an [Atomic.t].  A slot goes from [empty] to its entry once and
   never changes again, and OCaml 5 guarantees that a domain which reads
   a pointer to a block also reads the block's initialising writes, so a
   reader that finds an entry in any snapshot — current or outgrown —
   reads a correct id without a lock.  A reader that finds nothing,
   including one racing an insert it cannot see yet, takes [lock] and
   looks again: ids are minted only under the lock, so each key gets
   exactly one.  [value] reads [by_id] the same way: a slot that still
   reads [empty] there, or a snapshot too short for the id, sends it to
   the lock. *)
module Intern (K : sig
  type t
  type v

  val equal : t -> t -> bool
  val hash : t -> int
  val dummy : t * v
end) =
struct
  type entry = { key : K.t; value : K.v; id : int }

  let empty = { key = fst K.dummy; value = snd K.dummy; id = -1 }
  let lock = Mutex.create ()
  let slots : entry array Atomic.t = Atomic.make (Array.make 1024 empty)
  let by_id : entry array Atomic.t = Atomic.make (Array.make 512 empty)
  let count = ref 0

  let rec probe slots mask k i =
    let e = slots.(i) in
    if e.id < 0 || K.equal e.key k then e
    else probe slots mask k ((i + 1) land mask)

  let find slots k =
    let mask = Array.length slots - 1 in
    probe slots mask k (K.hash k land mask)

  (* Under [lock]: place [e] in a table with room for it. *)
  let place slots e =
    let mask = Array.length slots - 1 in
    let rec go i =
      if slots.(i).id < 0 then slots.(i) <- e else go ((i + 1) land mask)
    in
    go (K.hash e.key land mask)

  let mint k v =
    let e = { key = k; value = v; id = !count } in
    incr count;
    let ids = Atomic.get by_id in
    if e.id < Array.length ids then ids.(e.id) <- e
    else begin
      let bigger = Array.make (2 * Array.length ids) empty in
      Array.blit ids 0 bigger 0 (Array.length ids);
      bigger.(e.id) <- e;
      Atomic.set by_id bigger
    end;
    (* Load factor at most 1/2 keeps probe chains short. *)
    let tbl = Atomic.get slots in
    if 2 * !count <= Array.length tbl then place tbl e
    else begin
      let tbl' = Array.make (2 * Array.length tbl) empty in
      Array.iter (fun e -> if e.id >= 0 then place tbl' e) tbl;
      place tbl' e;
      Atomic.set slots tbl'
    end;
    e

  let intern k v =
    let e = find (Atomic.get slots) k in
    if e.id >= 0 then e.id
    else
      Mutex.protect lock (fun () ->
          let e = find (Atomic.get slots) k in
          if e.id >= 0 then e.id else (mint k v).id)

  let value id =
    let ids = Atomic.get by_id in
    let e = if id < Array.length ids then ids.(id) else empty in
    if e.id = id then e.value
    else Mutex.protect lock (fun () -> (Atomic.get by_id).(id).value)
end

module Var = struct
  type id = int

  module T = Intern (struct
    type t = string
    type v = string

    let equal = String.equal
    let hash (s : string) = Hashtbl.hash s
    let dummy = ("", "")
  end)

  let intern s = T.intern s s
  let name (i : id) = T.value i
  let to_int i = i
  let equal : id -> id -> bool = Int.equal
  let compare : id -> id -> int = Int.compare
  let hash (i : id) = i
  let pp ppf i = Fmt.string ppf (name i)
end

module Valpool = struct
  (* Keys canonicalise the [Value.equal] equivalence classes that have more
     than one machine representation: every nan collapses to one slot, and
     [-0.0]/[0.0] collapse to one slot ([Float.equal] identifies both
     pairs).  The first value interned for a class is the one stored, so a
     pooled index round-trips to a [Value.equal]-equivalent value and equal
     indices mean [Value.equal] values. *)
  type key = KInt of int | KReal of int64

  let key_of (v : Fsicp_lang.Value.t) =
    match v with
    | Int n -> KInt n
    | Real r ->
        if Float.is_nan r then KReal 0x7ff8000000000001L
        else if r = 0.0 then KReal 0L
        else KReal (Int64.bits_of_float r)

  module T = Intern (struct
    type t = key
    type v = Fsicp_lang.Value.t

    let equal (a : key) b =
      match (a, b) with
      | KInt x, KInt y -> Int.equal x y
      | KReal x, KReal y -> Int64.equal x y
      | _ -> false

    let hash (k : key) = Hashtbl.hash k
    let dummy = (KInt 0, Fsicp_lang.Value.Int 0)
  end)

  let intern (v : Fsicp_lang.Value.t) = T.intern (key_of v) v
  let get (i : int) = T.value i
end

module Bits = struct
  type t = { words : Bytes.t; n : int }

  let create n = { words = Bytes.make ((n + 7) / 8) '\000'; n }
  let length t = t.n

  let set t i =
    let b = Char.code (Bytes.get t.words (i lsr 3)) in
    Bytes.set t.words (i lsr 3) (Char.chr (b lor (1 lsl (i land 7))))

  let mem t i =
    Char.code (Bytes.get t.words (i lsr 3)) land (1 lsl (i land 7)) <> 0

  let count t =
    let c = ref 0 in
    for i = 0 to t.n - 1 do
      if mem t i then incr c
    done;
    !c
end

type t = { names : string array; ids : (string, int) Hashtbl.t }

let of_names names =
  let names = Array.copy names in
  let ids = Hashtbl.create (2 * Array.length names) in
  Array.iteri
    (fun i n ->
      if Hashtbl.mem ids n then
        invalid_arg (Printf.sprintf "Prog.of_names: duplicate procedure %S" n);
      Hashtbl.add ids n i)
    names;
  { names; ids }

let n_procs t = Array.length t.names
let proc_id t name : Proc.id option = Hashtbl.find_opt t.ids name

let proc_id_exn t name : Proc.id =
  match Hashtbl.find_opt t.ids name with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Prog.proc_id_exn: %S" name)

let proc_name t (i : Proc.id) = t.names.(i)
let mem t name = Hashtbl.mem t.ids name
let procs t : Proc.id array = Array.init (n_procs t) Fun.id
let tbl t default = Proc.Tbl.make (n_procs t) default
let tbl_init t f = Proc.Tbl.init (n_procs t) f
