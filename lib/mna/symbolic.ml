module Netlist = Circuit.Netlist
exception Singular_circuit of string

module P = Linalg.Poly
module Cmat = Linalg.Cmat

(* A(s) = g + s·c as two dense n×n coefficient planes. *)
type planes = { g : float array array; c : float array array }

(* The planes of A(s), and those of b(s), read off the stamp run. *)
let system netlist ~source =
  let stamps = Stamps.build_sparse ~sources:(Assemble.Only source) netlist in
  let index = Stamps.sparse_index stamps in
  let n = Index.size index in
  let a = { g = Array.make_matrix n n 0.0; c = Array.make_matrix n n 0.0 } in
  Stamps.iter_slots stamps (fun i j g c ->
      a.g.(i).(j) <- g;
      a.c.(i).(j) <- c);
  let b_g = Array.make n 0.0 and b_c = Array.make n 0.0 in
  Stamps.iter_rhs stamps (fun i g c ->
      b_g.(i) <- g;
      b_c.(i) <- c);
  (index, a, b_g, b_c)

(* --- evaluation-interpolation determinant ------------------------------

   det(A(s)) is a polynomial of degree at most n (every matrix entry has
   degree <= 1).  Evaluate it with a stable complex LU at N = n + 1
   points on the circle |s| = r and recover the coefficients by an
   inverse DFT; dividing coefficient k by r^k undoes the radius.  The
   radius is chosen so constant and first-order entries have comparable
   magnitude, which keeps the sample values well-scaled. *)

let estimate_radius a =
  let m0 = ref 0.0 and m1 = ref 0.0 in
  Array.iter (Array.iter (fun v -> m0 := Float.max !m0 (Float.abs v))) a.g;
  Array.iter (Array.iter (fun v -> m1 := Float.max !m1 (Float.abs v))) a.c;
  if !m1 > 0.0 && !m0 > 0.0 then !m0 /. !m1 else 1.0

(* Overwrite [m] with A(s); entries are affine in s, so this avoids
   the general Horner loop. *)
let eval_into m a (s : Complex.t) =
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j c0 ->
          let c1 = a.c.(i).(j) in
          Cmat.set m i j
            (Complex.add
               { Complex.re = c0; im = 0.0 }
               (Complex.mul { Complex.re = c1; im = 0.0 } s)))
        row)
    a.g

let interpolate_det a r =
  let n = Array.length a.g in
  let n_points = n + 1 in
  let pi = 4.0 *. atan 1.0 in
  (* one matrix and one LU workspace serve all n + 1 samples *)
  let m = Cmat.create n n and lu = Cmat.lu_create n in
  let values =
    Array.init n_points (fun k ->
        let angle = 2.0 *. pi *. float_of_int k /. float_of_int n_points in
        let s = Complex.{ re = r *. cos angle; im = r *. sin angle } in
        eval_into m a s;
        match Cmat.lu_factor_into lu m with
        | () -> Cmat.determinant lu
        | exception Cmat.Singular -> Complex.zero)
  in
  (* inverse DFT: c_k = (1/N) sum_m d_m w^{-km}, then unscale by r^k *)
  let coeffs =
    Array.init n_points (fun k ->
        let acc = ref Complex.zero in
        for m = 0 to n_points - 1 do
          let angle = -2.0 *. pi *. float_of_int (k * m) /. float_of_int n_points in
          let w = Complex.{ re = cos angle; im = sin angle } in
          acc := Complex.add !acc (Complex.mul values.(m) w)
        done;
        let c = Complex.div !acc { Complex.re = float_of_int n_points; im = 0.0 } in
        c.Complex.re /. (r ** float_of_int k))
  in
  (* drop interpolation noise relative to the dominant coefficient,
     comparing on the r-scaled coefficients so high powers are not
     unfairly suppressed *)
  let max_scaled =
    Array.fold_left
      (fun acc (k, c) -> Float.max acc (Float.abs c *. (r ** float_of_int k)))
      0.0
      (Array.mapi (fun k c -> (k, c)) coeffs)
  in
  let cleaned =
    Array.mapi
      (fun k c ->
        if Float.abs c *. (r ** float_of_int k) < 1e-9 *. max_scaled then 0.0 else c)
      coeffs
  in
  P.of_coeffs cleaned

(* The interpolation is well conditioned when the sample circle sits
   near the geometric mean of the polynomial's root magnitudes:
   (|c_0| / |c_deg|)^(1/deg).  The matrix-entry balance point used as
   the initial guess can be orders of magnitude off for higher-order
   circuits, so refine the radius from the recovered denominator and
   re-interpolate until it stabilizes. *)
let refine_radius r p =
  let d = P.degree p in
  if d < 1 then r
  else begin
    (* use the lowest surviving coefficient: badly conditioned first
       passes wipe out the low-order ones entirely *)
    let coeffs = P.coeffs p in
    let k0 = ref (-1) in
    Array.iteri (fun k c -> if !k0 < 0 && c <> 0.0 then k0 := k) coeffs;
    let cl = Float.abs coeffs.(d) in
    if !k0 >= 0 && !k0 < d && cl > 0.0 then
      (Float.abs coeffs.(!k0) /. cl) ** (1.0 /. float_of_int (d - !k0))
    else r
  end

let converged_radius a r0 =
  let rec loop r i =
    let den = interpolate_det a r in
    let r' = refine_radius r den in
    if i >= 6 || Float.abs (log (r' /. r)) < 0.3 then (r', den)
    else loop r' (i + 1)
  in
  loop r0 0

let transfer ~source ~output netlist =
  let index, a, b_g, b_c = system netlist ~source in
  let out_idx =
    match Index.node index output with
    | Some i -> i
    | None -> invalid_arg "Symbolic.transfer: output node is ground"
  in
  let r0 = estimate_radius a in
  let r, _ = converged_radius a r0 in
  let den = interpolate_det a r in
  if P.is_zero den then
    raise
      (Singular_circuit
         (Printf.sprintf "zero system determinant for %S" (Netlist.title netlist)));
  (* A with its output column replaced by b, plane by plane *)
  let replace plane b =
    Array.mapi (fun i row -> Array.mapi (fun j v -> if j = out_idx then b.(i) else v) row) plane
  in
  let num = interpolate_det { g = replace a.g b_g; c = replace a.c b_c } r in
  Linalg.Ratfunc.make num den

let poles ~source ~output netlist =
  Linalg.Ratfunc.poles (transfer ~source ~output netlist)

let center_hz ~source ~output netlist =
  match poles ~source ~output netlist with
  | exception (Singular_circuit _ | Invalid_argument _) -> 1000.0
  | poles -> (
      match
        Array.to_list (Array.map Complex.norm poles) |> List.filter (fun m -> m > 1e-3)
      with
      | [] -> 1000.0
      | magnitudes ->
          let log_mean =
            List.fold_left (fun acc m -> acc +. log m) 0.0 magnitudes
            /. float_of_int (List.length magnitudes)
          in
          exp log_mean /. (2.0 *. Float.pi))
