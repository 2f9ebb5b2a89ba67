let approx_eq ?(rel = 1e-9) ?(abs = 1e-12) a b =
  let diff = Float.abs (a -. b) in
  diff <= abs || diff <= rel *. Float.max (Float.abs a) (Float.abs b)

let clamp ~lo ~hi x =
  assert (lo <= hi);
  if x < lo then lo else if x > hi then hi else x

let linspace a b n =
  if n < 2 then invalid_arg "Floatx.linspace: need at least two points";
  let step = (b -. a) /. float_of_int (n - 1) in
  Array.init n (fun i -> a +. (float_of_int i *. step))

let logspace a b n =
  if a <= 0.0 || b <= 0.0 then
    invalid_arg "Floatx.logspace: bounds must be positive";
  let la = log10 a and lb = log10 b in
  Array.map (fun e -> 10.0 ** e) (linspace la lb n)

let fold_range n ~init ~f =
  let rec loop acc i = if i >= n then acc else loop (f acc i) (i + 1) in
  loop init 0
