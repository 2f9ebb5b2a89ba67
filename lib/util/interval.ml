type t = { lo : float; hi : float }

let make lo hi =
  if not (Float.is_finite lo && Float.is_finite hi) then
    invalid_arg "Interval.make: bounds must be finite";
  if lo > hi then invalid_arg "Interval.make: lo > hi";
  { lo; hi }

let length i = i.hi -. i.lo
let pp ppf i = Format.fprintf ppf "[%g, %g]" i.lo i.hi

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
