type t = float array
(* Invariant: either empty (the zero polynomial) or the last
   coefficient is non-zero. *)

let trim a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0.0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let zero = [||]
let of_coeffs a = trim (Array.copy a)
let one = [| 1.0 |]
let coeffs p = Array.copy p
let coeff p k = if k >= 0 && k < Array.length p then p.(k) else 0.0
let degree p = Array.length p - 1
let is_zero p = Array.length p = 0

let sub a b =
  let n = Int.max (Array.length a) (Array.length b) in
  trim (Array.init n (fun i -> coeff a i -. coeff b i))

let mul a b =
  if is_zero a || is_zero b then zero
  else begin
    let r = Array.make (Array.length a + Array.length b - 1) 0.0 in
    Array.iteri
      (fun i ai -> Array.iteri (fun j bj -> r.(i + j) <- r.(i + j) +. (ai *. bj)) b)
      a;
    trim r
  end

let scale k a = if k = 0.0 then zero else trim (Array.map (fun c -> k *. c) a)

let infnorm p = Array.fold_left (fun acc c -> Float.max acc (Float.abs c)) 0.0 p

let equal ?(tol = 1e-9) a b =
  let d = sub a b in
  let scale_ref = Float.max (infnorm a) (infnorm b) in
  infnorm d <= tol *. Float.max 1.0 scale_ref

let eval p (z : Complex.t) =
  let acc = ref Complex.zero in
  for i = Array.length p - 1 downto 0 do
    acc := Complex.add (Complex.mul !acc z) { Complex.re = p.(i); im = 0.0 }
  done;
  !acc

let derivative p =
  if Array.length p <= 1 then zero
  else trim (Array.init (Array.length p - 1) (fun i -> float_of_int (i + 1) *. p.(i + 1)))

let normalize p =
  if is_zero p then zero else scale (1.0 /. p.(degree p)) p

(* Aberth--Ehrlich simultaneous root refinement.  Initial guesses are
   placed on a circle of radius given by the Cauchy bound, slightly
   perturbed off the real axis so complex-conjugate pairs separate. *)
let roots ?(max_iter = 200) ?(tol = 1e-12) p =
  let p = trim p in
  (* An overflowed coefficient (a symbolic determinant past the float
     range) would normalize to garbage or to the zero polynomial; the
     roots are undefined either way. *)
  if not (Array.for_all Float.is_finite p) then
    invalid_arg "Poly.roots: non-finite coefficient";
  let monic = normalize p in
  if not (Array.for_all Float.is_finite monic) then
    invalid_arg "Poly.roots: leading coefficient too small to normalize";
  let n = degree monic in
  if n <= 0 then [||]
  else begin
    let cauchy_bound =
      1.0
      +. Array.fold_left
           (fun acc c -> Float.max acc (Float.abs c))
           0.0
           (Array.sub monic 0 n)
    in
    let radius = Float.max 1e-3 (Float.min cauchy_bound 1e12) in
    let pi = 4.0 *. atan 1.0 in
    let z =
      Array.init n (fun k ->
          let angle = (2.0 *. pi *. float_of_int k /. float_of_int n) +. 0.4 in
          Complex.{ re = radius *. cos angle; im = radius *. sin angle })
    in
    let p' = derivative monic in
    let converged = Array.make n false in
    let iter = ref 0 in
    let all_done () = Array.for_all Fun.id converged in
    while (not (all_done ())) && !iter < max_iter do
      incr iter;
      for i = 0 to n - 1 do
        if not converged.(i) then begin
          let pz = eval monic z.(i) in
          let dpz = eval p' z.(i) in
          if Complex.norm pz <= tol *. Float.max 1.0 (Complex.norm dpz) then
            converged.(i) <- true
          else begin
            let newton =
              if Complex.norm dpz = 0.0 then Complex.{ re = tol; im = tol }
              else Complex.div pz dpz
            in
            let repulsion = ref Complex.zero in
            for j = 0 to n - 1 do
              if j <> i then begin
                let diff = Complex.sub z.(i) z.(j) in
                let d =
                  if Complex.norm diff < 1e-30 then Complex.{ re = 1e-30; im = 0.0 }
                  else diff
                in
                repulsion := Complex.add !repulsion (Complex.div Complex.one d)
              end
            done;
            let denom = Complex.sub Complex.one (Complex.mul newton !repulsion) in
            let step =
              if Complex.norm denom < 1e-30 then newton
              else Complex.div newton denom
            in
            z.(i) <- Complex.sub z.(i) step;
            if Complex.norm step <= tol *. Float.max 1.0 (Complex.norm z.(i)) then
              converged.(i) <- true
          end
        end
      done
    done;
    (* Snap near-real roots onto the real axis for cleaner reporting. *)
    Array.map
      (fun r ->
        if Float.abs r.Complex.im <= 1e-8 *. Float.max 1.0 (Float.abs r.Complex.re)
        then { r with Complex.im = 0.0 }
        else r)
      z
  end

let pp ppf p =
  if is_zero p then Format.fprintf ppf "0"
  else begin
    let first = ref true in
    Array.iteri
      (fun i c ->
        if c <> 0.0 then begin
          if !first then Format.fprintf ppf "%g" c
          else if c > 0.0 then Format.fprintf ppf " + %g" c
          else Format.fprintf ppf " - %g" (Float.abs c);
          if i = 1 then Format.fprintf ppf "*s"
          else if i > 1 then Format.fprintf ppf "*s^%d" i;
          first := false
        end)
      p
  end
