(* Order statistics shared by every workload. *)

let now = Unix.gettimeofday

let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

(* The nearest rank of percentile [p] in (0, 100] among [n] samples:
   how many samples lie at or below it. *)
let rank n p = int_of_float (Float.ceil ((p *. float_of_int n /. 100.0) -. 1e-9))

(* Nearest-rank percentile of an ascending array. *)
let nearest_rank s p =
  let n = Array.length s in
  if n = 0 then nan else s.(max 0 (min (n - 1) (rank n p - 1)))

let median a = nearest_rank (sorted a) 50.0
let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (max 1 (Array.length a))

type tail = { p : float; value : float; n : int }

(* The highest of p99, p98, p95 and p90 that has at least ten samples
   beyond it, with the sample count. A run too short for any of them
   falls back to the median. *)
let tail a =
  let s = sorted a in
  let n = Array.length s in
  let p =
    match List.find_opt (fun p -> n - rank n p >= 10) [ 99.0; 98.0; 95.0; 90.0 ] with
    | Some p -> p
    | None -> 50.0
  in
  { p; value = nearest_rank s p; n }

let pp_tail t = Printf.sprintf "p%g over n=%d" t.p t.n

(* The median, over [windows] of a run, of each window's nearest-rank
   p99: the p99 of a typical window. A stall of the host lands in a
   few windows and moves the whole-run p99 by how many of them a run
   happens to catch; it does not move this median. *)
let windowed_p99 windows =
  median (Array.map (fun w -> nearest_rank (sorted w) 99.0) windows)

(* A growable float buffer for per-operation samples. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let push t x =
    if t.len = Array.length t.data then begin
      let d = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
end
