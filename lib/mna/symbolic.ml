module Netlist = Circuit.Netlist
exception Singular_circuit of string

module P = Linalg.Poly
module Cmat = Linalg.Cmat

(* Fraction-free Bareiss elimination.  Exact over exact coefficients
   (integers, rationals); used directly in tests and for hand-built
   matrices.  For circuit matrices — whose float entries span many
   orders of magnitude — the divisibility invariant degrades, so
   {!transfer} uses evaluation-interpolation instead. *)
let determinant matrix =
  let n = Array.length matrix in
  Array.iter
    (fun row ->
      if Array.length row <> n then invalid_arg "Symbolic.determinant: non-square")
    matrix;
  if n = 0 then P.one
  else begin
    let m = Array.map Array.copy matrix in
    let sign = ref 1 in
    let prev = ref P.one in
    let singular = ref false in
    (try
       for k = 0 to n - 2 do
         if P.is_zero m.(k).(k) then begin
           (* find a row below with a non-zero entry in column k *)
           let pivot = ref (-1) in
           for i = k + 1 to n - 1 do
             if !pivot < 0 && not (P.is_zero m.(i).(k)) then pivot := i
           done;
           if !pivot < 0 then begin
             singular := true;
             raise Exit
           end;
           let tmp = m.(k) in
           m.(k) <- m.(!pivot);
           m.(!pivot) <- tmp;
           sign := - !sign
         end;
         for i = k + 1 to n - 1 do
           for j = k + 1 to n - 1 do
             let num = P.sub (P.mul m.(k).(k) m.(i).(j)) (P.mul m.(i).(k) m.(k).(j)) in
             m.(i).(j) <- P.div_exact num !prev
           done;
           m.(i).(k) <- P.zero
         done;
         prev := m.(k).(k)
       done
     with Exit -> ());
    if !singular then P.zero
    else begin
      let d = m.(n - 1).(n - 1) in
      if !sign >= 0 then d else P.neg d
    end
  end

let system netlist ~source =
  let index = Index.build netlist in
  let module A = Assemble.Make (Field.Polynomial) in
  let { A.matrix; rhs } = A.assemble ~sources:(Assemble.Only source) index netlist in
  (index, matrix, rhs)

(* --- evaluation-interpolation determinant ------------------------------

   det(A(s)) is a polynomial of degree at most n (every matrix entry has
   degree <= 1).  Evaluate it with a stable complex LU at N = n + 1
   points on the circle |s| = r and recover the coefficients by an
   inverse DFT; dividing coefficient k by r^k undoes the radius.  The
   radius is chosen so constant and first-order entries have comparable
   magnitude, which keeps the sample values well-scaled. *)

let estimate_radius matrix =
  let m0 = ref 0.0 and m1 = ref 0.0 in
  Array.iter
    (Array.iter (fun p ->
         m0 := Float.max !m0 (Float.abs (P.coeff p 0));
         m1 := Float.max !m1 (Float.abs (P.coeff p 1))))
    matrix;
  if !m1 > 0.0 && !m0 > 0.0 then !m0 /. !m1 else 1.0

(* Overwrite [a] with A(s); entries are affine in s, so this avoids
   the general Horner loop. *)
let eval_into a matrix (s : Complex.t) =
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j p ->
          let c0 = P.coeff p 0 and c1 = P.coeff p 1 in
          Cmat.set a i j
            (Complex.add
               { Complex.re = c0; im = 0.0 }
               (Complex.mul { Complex.re = c1; im = 0.0 } s)))
        row)
    matrix

let interpolate_det matrix r =
  let n = Array.length matrix in
  let n_points = n + 1 in
  let pi = 4.0 *. atan 1.0 in
  (* one matrix and one LU workspace serve all n + 1 samples *)
  let a = Cmat.create n n and lu = Cmat.lu_create n in
  let values =
    Array.init n_points (fun k ->
        let angle = 2.0 *. pi *. float_of_int k /. float_of_int n_points in
        let s = Complex.{ re = r *. cos angle; im = r *. sin angle } in
        eval_into a matrix s;
        match Cmat.lu_factor_into lu a with
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

let converged_radius matrix r0 =
  let rec loop r i =
    let den = interpolate_det matrix r in
    let r' = refine_radius r den in
    if i >= 6 || Float.abs (log (r' /. r)) < 0.3 then (r', den)
    else loop r' (i + 1)
  in
  loop r0 0

let transfer ~source ~output netlist =
  let index, matrix, rhs = system netlist ~source in
  let out_idx =
    match Index.node index output with
    | Some i -> i
    | None -> invalid_arg "Symbolic.transfer: output node is ground"
  in
  let r0 = estimate_radius matrix in
  let r, _ = converged_radius matrix r0 in
  let den = interpolate_det matrix r in
  if P.is_zero den then
    raise
      (Singular_circuit
         (Printf.sprintf "zero system determinant for %S" (Netlist.title netlist)));
  let with_col =
    Array.mapi
      (fun i row ->
        Array.mapi (fun j v -> if j = out_idx then rhs.(i) else v) row)
      matrix
  in
  let num = interpolate_det with_col r in
  Linalg.Ratfunc.make num den

let poles ~source ~output netlist =
  Linalg.Ratfunc.poles (transfer ~source ~output netlist)

let zeros ~source ~output netlist =
  Linalg.Ratfunc.zeros (transfer ~source ~output netlist)

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
