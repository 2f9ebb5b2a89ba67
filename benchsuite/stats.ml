(* Order statistics for the per-unit samples of one run. The quartiles
   follow Python's [statistics.quantiles(xs, n=4)] (the default
   "exclusive" method), so a spread printed here is the spread an
   external checker computes from the same values. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Stats.median: no samples"
  | a ->
      let n = Array.length a in
      if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* [statistics.quantiles(xs, n=4)] with method="exclusive": cut points
   at i·(n+1)/4, linearly interpolated, indices clamped to 1 .. n-1. *)
let quartiles xs =
  match sorted xs with
  | [||] -> invalid_arg "Stats.quartiles: no samples"
  | [| x |] -> (x, x, x)
  | a ->
      let ld = Array.length a in
      let m = ld + 1 in
      let cut i =
        let j = Int.max 1 (Int.min (ld - 1) (i * m / 4)) in
        let delta = (i * m) - (j * 4) in
        ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
      in
      (cut 1, cut 2, cut 3)

let iqr xs =
  let q1, _, q3 = quartiles xs in
  q3 -. q1
