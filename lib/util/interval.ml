type t = { lo : float; hi : float }

let make lo hi =
  if not (Float.is_finite lo && Float.is_finite hi) then
    invalid_arg "Interval.make: bounds must be finite";
  if lo > hi then invalid_arg "Interval.make: lo > hi";
  { lo; hi }

let length i = i.hi -. i.lo
let contains i x = i.lo <= x && x <= i.hi
let pp ppf i = Format.fprintf ppf "[%g, %g]" i.lo i.hi

(* --- Extended (possibly unbounded) intervals with outward rounding.

   The certification pass needs a sound enclosure, not a tight one:
   every op rounds its bounds outward by one ulp and any NaN arising
   from an indeterminate form (inf - inf, 0 * inf, division through
   zero) widens to [whole]. Bounds are never NaN — [whole] plays the
   role of "don't know". [Float.pred neg_infinity] and
   [Float.succ infinity] are identities, so no extra guards are needed
   at the ends of the line. *)

let whole = { lo = neg_infinity; hi = infinity }
let point x = if Float.is_nan x then whole else { lo = x; hi = x }

let down x = if Float.is_nan x then neg_infinity else Float.pred x
let up x = if Float.is_nan x then infinity else Float.succ x

let out lo hi =
  if Float.is_nan lo || Float.is_nan hi then whole
  else { lo = down lo; hi = up hi }

let add a b = out (a.lo +. b.lo) (a.hi +. b.hi)
let neg a = { lo = -.a.hi; hi = -.a.lo }
let sub a b = out (a.lo -. b.hi) (a.hi -. b.lo)

let mul a b =
  let p1 = a.lo *. b.lo and p2 = a.lo *. b.hi in
  let p3 = a.hi *. b.lo and p4 = a.hi *. b.hi in
  (* Float.min/max propagate NaN, which [out] then widens to [whole];
     0 * inf therefore costs precision, never soundness. *)
  out
    (Float.min (Float.min p1 p2) (Float.min p3 p4))
    (Float.max (Float.max p1 p2) (Float.max p3 p4))

let inv b =
  if b.lo <= 0.0 && b.hi >= 0.0 then whole
  else out (1.0 /. b.hi) (1.0 /. b.lo)

let div a b = if b.lo <= 0.0 && b.hi >= 0.0 then whole else mul a (inv b)

let abs a =
  if a.lo >= 0.0 then a
  else if a.hi <= 0.0 then neg a
  else { lo = 0.0; hi = Float.max (-.a.lo) a.hi }

let sqr a =
  let m = abs a in
  let lo = Float.max 0.0 (down (m.lo *. m.lo)) and hi = up (m.hi *. m.hi) in
  if Float.is_nan lo || Float.is_nan hi then whole else { lo; hi }

let sqrt a =
  if a.hi < 0.0 then invalid_arg "Interval.sqrt: negative interval"
  else
    {
      lo = Float.max 0.0 (down (Float.sqrt (Float.max 0.0 a.lo)));
      hi = up (Float.sqrt a.hi);
    }

module Complex_box = struct
  type interval = t
  type t = { re : interval; im : interval }

  let make re im = { re; im }
  let abs a = sqrt (add (sqr a.re) (sqr a.im))
end

module Set = struct
  type interval = t

  (* Invariant: sorted by [lo], pairwise disjoint and non-touching. *)
  type t = interval list

  let is_empty s = s = []

  let of_intervals is =
    let sorted = List.sort (fun a b -> Float.compare a.lo b.lo) is in
    (* merge with a small relative slack so intervals that touch up to
       floating-point rounding coalesce *)
    let touches last i =
      i.lo <= last.hi +. (1e-9 *. Float.max 1.0 (Float.abs last.hi))
    in
    let merge acc i =
      match acc with
      | last :: rest when touches last i ->
          { last with hi = Float.max last.hi i.hi } :: rest
      | _ -> i :: acc
    in
    List.rev (List.fold_left merge [] sorted)

  let to_intervals s = s
  let measure s = List.fold_left (fun acc i -> acc +. length i) 0.0 s

  let pp ppf s =
    Format.fprintf ppf "{%a}" (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " u ") pp) s
end
