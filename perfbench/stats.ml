(* Order statistics for the benchmark's reports.  Percentiles use the
   nearest-rank definition on the sorted samples. *)

(* A tail percentile is reported only when at least this many samples lie
   strictly beyond its rank; fewer make the figure one or two outliers. *)
let min_beyond = 10

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* 0-based nearest rank of the [q]-th percentile among [n] samples. *)
let rank ~n q = max 0 (int_of_float (Float.ceil (q /. 100. *. float n)) - 1)

(* Samples strictly beyond the rank of the [q]-th percentile. *)
let beyond ~n q = n - 1 - rank ~n q

let percentile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 || beyond ~n q < min_beyond then None else Some a.(rank ~n q)

(* Median without the tail rule: used for per-layer figures and set-up,
   where the sample count is reported beside it. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float (List.length xs)

(* Operations per second from the median window of [size] consecutive
   samples (milliseconds each): a transient stall on a shared machine
   moves one window, not the figure.  A trailing partial window is
   dropped; with no full window, all samples count. *)
let rate ~size samples_ms =
  let rec windows acc cur k = function
    | [] -> acc
    | x :: rest ->
        let cur = cur +. x in
        if k + 1 = size then windows (cur :: acc) 0.0 0 rest
        else windows acc cur (k + 1) rest
  in
  match windows [] 0.0 0 samples_ms with
  | [] ->
      float (List.length samples_ms)
      /. (List.fold_left ( +. ) 0.0 samples_ms /. 1e3)
  | ws -> float size /. (median ws /. 1e3)
