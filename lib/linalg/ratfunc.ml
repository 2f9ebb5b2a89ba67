type t = { num : Poly.t; den : Poly.t }

let make num den =
  if Poly.is_zero den then invalid_arg "Ratfunc.make: zero denominator";
  let lead = Poly.coeff den (Poly.degree den) in
  { num = Poly.scale (1.0 /. lead) num; den = Poly.scale (1.0 /. lead) den }

let eval { num; den } z = Complex.div (Poly.eval num z) (Poly.eval den z)

let poles { den; _ } = Poly.roots den
let zeros { num; _ } = Poly.roots num

let dc_gain { num; den } =
  let d0 = Poly.coeff den 0 in
  if d0 = 0.0 then infinity else Poly.coeff num 0 /. d0

let equal_at ?(points = 16) ?(tol = 1e-7) a b =
  (* Sample along a spiral avoiding poles sitting exactly on the grid. *)
  let ok = ref true in
  for k = 0 to points - 1 do
    let angle = 0.7 +. (float_of_int k *. 0.9) in
    let radius = 10.0 ** (float_of_int k /. 3.0 -. 2.0) in
    let z = Complex.{ re = radius *. cos angle; im = radius *. sin angle } in
    let va = eval a z and vb = eval b z in
    let scale = Float.max 1.0 (Float.max (Complex.norm va) (Complex.norm vb)) in
    if Complex.norm (Complex.sub va vb) > tol *. scale then ok := false
  done;
  !ok

(* rebuild a (real-coefficient) polynomial from its roots: conjugate
   pairs combine into real quadratics, stray imaginary dust is
   dropped *)
let poly_of_roots ~lead roots =
  let rec build acc = function
    | [] -> acc
    | r :: rest when Float.abs r.Complex.im <= 1e-9 *. Float.max 1.0 (Complex.norm r) ->
        build (Poly.mul acc (Poly.of_coeffs [| -.r.Complex.re; 1.0 |])) rest
    | r :: rest -> (
        (* find and consume the conjugate partner *)
        let is_conj x =
          Float.abs (x.Complex.re -. r.Complex.re)
            <= 1e-6 *. Float.max 1.0 (Complex.norm r)
          && Float.abs (x.Complex.im +. r.Complex.im)
             <= 1e-6 *. Float.max 1.0 (Complex.norm r)
        in
        match List.partition is_conj rest with
        | _partner :: extra, others ->
            let quad =
              Poly.of_coeffs
                [| Complex.norm2 r; -2.0 *. r.Complex.re; 1.0 |]
            in
            build (Poly.mul acc quad) (extra @ others)
        | [], _ ->
            (* unpaired complex root: treat as real part only *)
            build (Poly.mul acc (Poly.of_coeffs [| -.r.Complex.re; 1.0 |])) rest)
  in
  Poly.scale lead (build Poly.one roots)

let simplify ?(tol = 1e-6) h =
  let zs = ref (Array.to_list (Poly.roots h.num)) in
  let ps = ref (Array.to_list (Poly.roots h.den)) in
  let close a b =
    Complex.norm (Complex.sub a b) <= tol *. Float.max 1.0 (Complex.norm a)
  in
  let surviving_zeros =
    List.filter
      (fun z ->
        match List.partition (close z) !ps with
        | cancelled :: rest_cancelled, others ->
            ignore cancelled;
            ps := rest_cancelled @ others;
            false
        | [], _ -> true)
      !zs
  in
  zs := surviving_zeros;
  let lead_num = Poly.coeff h.num (Poly.degree h.num) in
  let lead_den = Poly.coeff h.den (Poly.degree h.den) in
  if Poly.is_zero h.num then h
  else
    make (poly_of_roots ~lead:lead_num !zs) (poly_of_roots ~lead:lead_den !ps)

let group_delay h w =
  (* -d arg H / dw at s = jw equals -Im(H'/H) there, with
     H'/H = num'/num - den'/den *)
  let s = Complex.{ re = 0.0; im = w } in
  let ratio p =
    let v = Poly.eval p s in
    if Complex.norm v = 0.0 then Complex.zero
    else Complex.div (Poly.eval (Poly.derivative p) s) v
  in
  let logderiv = Complex.sub (ratio h.num) (ratio h.den) in
  (* d/dw = j d/ds on the imaginary axis *)
  -.(Complex.mul Complex.i logderiv).Complex.im

let pp ppf { num; den } =
  Format.fprintf ppf "(%a) / (%a)" Poly.pp num Poly.pp den
