(* In-memory span recorder for the traced run.  Every call the benchmark
   makes into a layer's public function goes through [span]; with tracing
   off [span] only calls the function.  Spans keep their name, start, end,
   parent and operation id, plus the calling domain's [Gc.minor_words]
   at both ends, and are written out once the run ends. *)

let now_ns () = Monotonic_clock.now ()

type t = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span, [-1] for an operation root *)
  op : int;
  t0 : int64;
  mutable t1 : int64;
  w0 : float;
  mutable w1 : float;
}

let enabled = ref false
let recorded : t list ref = ref []  (* newest first *)
let next_id = ref 0
let stack : t list ref = ref []
let current_op = ref (-1)

let reset () =
  recorded := [];
  next_id := 0;
  stack := [];
  current_op := -1

let open_span name =
  let parent = match !stack with [] -> -1 | p :: _ -> p.id in
  let s =
    {
      id = !next_id;
      name;
      parent;
      op = !current_op;
      t0 = now_ns ();
      t1 = 0L;
      w0 = Gc.minor_words ();
      w1 = 0.0;
    }
  in
  incr next_id;
  recorded := s :: !recorded;
  stack := s :: !stack;
  s

let close_span s =
  s.w1 <- Gc.minor_words ();
  s.t1 <- now_ns ();
  stack := List.tl !stack

let span name f =
  if not !enabled then f ()
  else begin
    let s = open_span name in
    Fun.protect ~finally:(fun () -> close_span s) f
  end

(* Root span of one operation: its children are the top-level layer
   calls, and its own self time is the unattributed remainder. *)
let op_name = "op"

let operation id f =
  if not !enabled then f ()
  else begin
    current_op := id;
    span op_name f
  end

let spans () = List.rev !recorded

(* ------------------------------------------------------------------ *)
(* Self time                                                           *)
(* ------------------------------------------------------------------ *)

type op_summary = {
  op_id : int;
  wall_ns : int64;
  unattributed_ns : int64;  (** the root's self time *)
  layers : (string * int64 * float) list;
      (** per layer name: self nanoseconds and self minor words, summed
          over the layer's spans in this operation *)
}

let dur s = Int64.sub s.t1 s.t0

(* A span's self time is its duration minus its children's durations;
   summed over an operation's spans, self times give back the root's
   duration exactly. *)
let summarize (spans : t list) : op_summary list =
  let child_ns = Hashtbl.create 1024 and child_w = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let ns = Option.value (Hashtbl.find_opt child_ns s.parent) ~default:0L in
        Hashtbl.replace child_ns s.parent (Int64.add ns (dur s));
        let w = Option.value (Hashtbl.find_opt child_w s.parent) ~default:0.0 in
        Hashtbl.replace child_w s.parent (w +. (s.w1 -. s.w0))
      end)
    spans;
  let self s =
    ( Int64.sub (dur s)
        (Option.value (Hashtbl.find_opt child_ns s.id) ~default:0L),
      s.w1 -. s.w0 -. Option.value (Hashtbl.find_opt child_w s.id) ~default:0.0
    )
  in
  let ops = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun s ->
      if not (Hashtbl.mem ops s.op) then begin
        Hashtbl.replace ops s.op (ref None, Hashtbl.create 32);
        order := s.op :: !order
      end;
      let root, layers = Hashtbl.find ops s.op in
      if s.parent < 0 then root := Some s
      else begin
        let ns, w = self s in
        let ns0, w0 =
          Option.value (Hashtbl.find_opt layers s.name) ~default:(0L, 0.0)
        in
        Hashtbl.replace layers s.name (Int64.add ns0 ns, w0 +. w)
      end)
    spans;
  List.rev !order
  |> List.filter_map (fun op ->
         let root, layers = Hashtbl.find ops op in
         Option.map
           (fun r ->
             {
               op_id = op;
               wall_ns = dur r;
               unattributed_ns = fst (self r);
               layers =
                 Hashtbl.fold (fun k (ns, w) acc -> (k, ns, w) :: acc) layers []
                 |> List.sort compare;
             })
           !root)

(* Per-layer self times plus the unattributed remainder, against wall. *)
let accounted_ns o =
  List.fold_left (fun acc (_, ns, _) -> Int64.add acc ns) o.unattributed_ns
    o.layers

(* One JSON object per line: the spans of the run, in start order. *)
let write_jsonl path (spans : t list) =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"op\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld,\"minor_words\":%.0f}\n"
        s.id s.name s.parent s.op s.t0 s.t1 (s.w1 -. s.w0))
    spans;
  close_out oc
