(* Dense complex matrices in planar ("split complex") storage: the real
   and imaginary planes are separate unboxed float64 planes, element
   (i, j) of both at [i * ncols + j]. A Complex.t is a boxed 2-float
   record, so Complex.t array kernels chase one pointer per element
   read and allocate one record per element write; under OCaml 5
   domains that allocation rate makes every worker hammer the shared
   minor/major heaps and a multicore campaign anti-scales. The planar
   layout keeps the O(n³)/O(n²) kernels on flat floats — no pointer
   chasing, no per-element allocation.

   The planes live in Bigarray storage outside the OCaml heap. A
   [float array] is unboxed too, yet it sits on the major heap: every
   campaign worker's live numeric state would add to the marking work
   of each GC cycle, and under OCaml 5 every stop-the-world minor
   collection synchronizes all domains. Bigarray planes are invisible
   to the GC, so a warmed campaign's numeric state gives a collection
   nothing to mark and the domains nothing to stop the world for. *)

exception Singular

(* Stdlib-identical scaled magnitude on raw components. Keeping the
   formula bit-identical to Complex.norm means the planar kernels
   cannot shift a pivot choice or a residual-threshold decision
   relative to a boxed implementation (test_planar's [Ref]). Inlined
   so the float arguments and result stay unboxed in the hot loops
   (the non-flambda backend boxes floats across out-of-line calls).
   No call from another module inlines under [-opaque], so the other
   modules whose loops need it ({!Csparse}, [Fastsim]) keep their own
   copy of the same operations. *)
let[@inline always] norm2 re im =
  let r = Float.abs re and i = Float.abs im in
  if r = 0.0 then i
  else if i = 0.0 then r
  else if r >= i then
    let q = i /. r in
    r *. sqrt (1.0 +. (q *. q))
  else
    let q = r /. i in
    i *. sqrt (1.0 +. (q *. q))

open Bigarray

type plane = (float, float64_elt, c_layout) Array1.t

let plane len : plane =
  let p = Array1.create Float64 C_layout len in
  Array1.fill p 0.0;
  p

module Vec = struct
  type t = { re : plane; im : plane }

  let create n = { re = plane n; im = plane n }
  let length v = Array1.dim v.re

  let get v i =
    let re = Array1.get v.re i and im = Array1.get v.im i in
    Complex.{ re; im }

  let set v i (z : Complex.t) =
    Array1.set v.re i z.Complex.re;
    Array1.set v.im i z.Complex.im

  let of_complex (x : Complex.t array) =
    let v = create (Array.length x) in
    Array.iteri (fun i z -> set v i z) x;
    v

  let to_complex v = Array.init (length v) (fun i -> get v i)

  let prefix v n =
    if n = Array1.dim v.re then v
    else { re = Array1.sub v.re 0 n; im = Array1.sub v.im 0 n }

  let norm_inf v =
    let vre = v.re and vim = v.im in
    let acc = ref 0.0 in
    for i = 0 to Array1.dim vre - 1 do
      let m = norm2 (Array1.unsafe_get vre i) (Array1.unsafe_get vim i) in
      if m > !acc then acc := m
    done;
    !acc
end

type t = { nrows : int; ncols : int; re : plane; im : plane }

let create nrows ncols =
  if nrows < 0 || ncols < 0 then invalid_arg "Cmat.create: negative dimension";
  let len = nrows * ncols in
  { nrows; ncols; re = plane len; im = plane len }

let prefix m n =
  if m.nrows = n && m.ncols = n then m
  else begin
    let len = n * n in
    if n < 0 || len > Array1.dim m.re then invalid_arg "Cmat.prefix: matrix too small";
    { nrows = n; ncols = n; re = Array1.sub m.re 0 len; im = Array1.sub m.im 0 len }
  end

let reshape m ~rows ~cols =
  if rows < 0 || cols < 0 || rows * cols > Array1.dim m.re then
    invalid_arg "Cmat.reshape: storage too small";
  { m with nrows = rows; ncols = cols }

let rows m = m.nrows
let cols m = m.ncols
let re_plane m = m.re
let im_plane m = m.im

let check_bounds m i j =
  if i < 0 || i >= m.nrows || j < 0 || j >= m.ncols then
    invalid_arg
      (Printf.sprintf "Cmat: index (%d, %d) out of bounds for %dx%d" i j m.nrows
         m.ncols)

let get m i j =
  check_bounds m i j;
  let k = (i * m.ncols) + j in
  let re = Array1.get m.re k and im = Array1.get m.im k in
  Complex.{ re; im }

let set m i j (v : Complex.t) =
  check_bounds m i j;
  let k = (i * m.ncols) + j in
  Array1.set m.re k v.Complex.re;
  Array1.set m.im k v.Complex.im

let add_to m i j (v : Complex.t) =
  check_bounds m i j;
  let k = (i * m.ncols) + j in
  Array1.set m.re k (Array1.get m.re k +. v.Complex.re);
  Array1.set m.im k (Array1.get m.im k +. v.Complex.im)

let blit ~src ~dst =
  if src.nrows <> dst.nrows || src.ncols <> dst.ncols then
    invalid_arg "Cmat.blit: dimension mismatch";
  Array1.blit src.re dst.re;
  Array1.blit src.im dst.im

let of_arrays a =
  let nrows = Array.length a in
  let ncols = if nrows = 0 then 0 else Array.length a.(0) in
  Array.iter
    (fun row ->
      if Array.length row <> ncols then invalid_arg "Cmat.of_arrays: ragged rows")
    a;
  let m = create nrows ncols in
  Array.iteri (fun i row -> Array.iteri (fun j v -> set m i j v) row) a;
  m

(* The LU workspace owns its factor storage, so a sweep reuses one
   workspace across every frequency point instead of allocating a
   fresh factor per factorization. *)
type lu = { mat : t; perm : int array; mutable sign : int }

let lu_create n = { mat = create n n; perm = Array.make (Int.max n 1) 0; sign = 1 }

let lu_prefix w n =
  if w.mat.nrows = n then w
  else if n > w.mat.nrows then invalid_arg "Cmat.lu_prefix: workspace too small"
  else { mat = prefix w.mat n; perm = w.perm; sign = 1 }

(* Partial-pivoting LU (Doolittle) on the planes. Pivots on the largest
   |.| in the column; a pivot below [tiny] relative to the matrix norm
   signals a singular system. The elimination loops are unsafe-indexed
   with the complex arithmetic written out on the float components
   (bit-identical to the Complex module's naive formulas, so
   test_planar's boxed [Ref] reproduces every factor bitwise); the
   dimension checks guard the entry point. *)
let lu_factor_into ws a =
  if a.nrows <> a.ncols then invalid_arg "Cmat.lu_factor_into: non-square matrix";
  if ws.mat.nrows <> a.nrows then
    invalid_arg "Cmat.lu_factor_into: workspace dimension mismatch";
  let n = a.nrows in
  blit ~src:a ~dst:ws.mat;
  let dre = ws.mat.re and dim = ws.mat.im in
  let perm = ws.perm in
  for i = 0 to n - 1 do
    perm.(i) <- i
  done;
  let sign = ref 1 in
  let scale_norm = ref 0.0 in
  for k = 0 to (n * n) - 1 do
    let v = norm2 (Array1.unsafe_get dre k) (Array1.unsafe_get dim k) in
    if v > !scale_norm then scale_norm := v
  done;
  (* Growth-aware threshold: a pivot at the round-off floor of the
     elimination, n * eps * ||A||, is numerically zero. *)
  let tiny = 1e-300 +. (!scale_norm *. float_of_int n *. 4.0 *. epsilon_float) in
  for k = 0 to n - 1 do
    let pivot_row = ref k
    and pivot_mag =
      ref
        (norm2
           (Array1.unsafe_get dre ((k * n) + k))
           (Array1.unsafe_get dim ((k * n) + k)))
    in
    for i = k + 1 to n - 1 do
      let mag =
        norm2
          (Array1.unsafe_get dre ((i * n) + k))
          (Array1.unsafe_get dim ((i * n) + k))
      in
      if mag > !pivot_mag then begin
        pivot_mag := mag;
        pivot_row := i
      end
    done;
    if !pivot_mag <= tiny then raise Singular;
    if !pivot_row <> k then begin
      sign := - !sign;
      let p = !pivot_row in
      let rk = k * n and rp = p * n in
      for j = 0 to n - 1 do
        let tr = Array1.unsafe_get dre (rk + j) in
        Array1.unsafe_set dre (rk + j) (Array1.unsafe_get dre (rp + j));
        Array1.unsafe_set dre (rp + j) tr;
        let ti = Array1.unsafe_get dim (rk + j) in
        Array1.unsafe_set dim (rk + j) (Array1.unsafe_get dim (rp + j));
        Array1.unsafe_set dim (rp + j) ti
      done;
      let tmp = perm.(k) in
      perm.(k) <- perm.(p);
      perm.(p) <- tmp
    end;
    let rk = k * n in
    let p_re = Array1.unsafe_get dre (rk + k)
    and p_im = Array1.unsafe_get dim (rk + k) in
    for i = k + 1 to n - 1 do
      let ri = i * n in
      let a_re = Array1.unsafe_get dre (ri + k)
      and a_im = Array1.unsafe_get dim (ri + k) in
      (* factor = a / pivot — Smith's algorithm, exactly Complex.div.
         Results are written straight to the planes (a tuple returned
         from the conditional would be boxed without flambda). *)
      if Float.abs p_re >= Float.abs p_im then begin
        let r = p_im /. p_re in
        let d = p_re +. (r *. p_im) in
        Array1.unsafe_set dre (ri + k) ((a_re +. (r *. a_im)) /. d);
        Array1.unsafe_set dim (ri + k) ((a_im -. (r *. a_re)) /. d)
      end
      else begin
        let r = p_re /. p_im in
        let d = p_im +. (r *. p_re) in
        Array1.unsafe_set dre (ri + k) (((r *. a_re) +. a_im) /. d);
        Array1.unsafe_set dim (ri + k) (((r *. a_im) -. a_re) /. d)
      end;
      let f_re = Array1.unsafe_get dre (ri + k)
      and f_im = Array1.unsafe_get dim (ri + k) in
      if f_re <> 0.0 || f_im <> 0.0 then
        for j = k + 1 to n - 1 do
          let akj_re = Array1.unsafe_get dre (rk + j)
          and akj_im = Array1.unsafe_get dim (rk + j) in
          Array1.unsafe_set dre (ri + j)
            (Array1.unsafe_get dre (ri + j) -. ((f_re *. akj_re) -. (f_im *. akj_im)));
          Array1.unsafe_set dim (ri + j)
            (Array1.unsafe_get dim (ri + j) -. ((f_re *. akj_im) +. (f_im *. akj_re)))
        done
    done
  done;
  ws.sign <- !sign

let lu_factor a =
  let ws = lu_create a.nrows in
  lu_factor_into ws a;
  ws

(* In-place substitution core: [x] must already hold P·b; on return it
   holds the solution. *)
let lu_substitute { mat = m; _ } (x : Vec.t) =
  let n = m.nrows in
  let dre = m.re and dim = m.im in
  let xre = x.Vec.re and xim = x.Vec.im in
  (* forward substitution: L y = P b, with unit diagonal L *)
  for i = 1 to n - 1 do
    let ri = i * n in
    let acc_re = ref (Array1.unsafe_get xre i)
    and acc_im = ref (Array1.unsafe_get xim i) in
    for j = 0 to i - 1 do
      let l_re = Array1.unsafe_get dre (ri + j)
      and l_im = Array1.unsafe_get dim (ri + j) in
      let v_re = Array1.unsafe_get xre j and v_im = Array1.unsafe_get xim j in
      acc_re := !acc_re -. ((l_re *. v_re) -. (l_im *. v_im));
      acc_im := !acc_im -. ((l_re *. v_im) +. (l_im *. v_re))
    done;
    Array1.unsafe_set xre i !acc_re;
    Array1.unsafe_set xim i !acc_im
  done;
  (* back substitution: U x = y *)
  for i = n - 1 downto 0 do
    let ri = i * n in
    let acc_re = ref (Array1.unsafe_get xre i)
    and acc_im = ref (Array1.unsafe_get xim i) in
    for j = i + 1 to n - 1 do
      let u_re = Array1.unsafe_get dre (ri + j)
      and u_im = Array1.unsafe_get dim (ri + j) in
      let v_re = Array1.unsafe_get xre j and v_im = Array1.unsafe_get xim j in
      acc_re := !acc_re -. ((u_re *. v_re) -. (u_im *. v_im));
      acc_im := !acc_im -. ((u_re *. v_im) +. (u_im *. v_re))
    done;
    let p_re = Array1.unsafe_get dre (ri + i)
    and p_im = Array1.unsafe_get dim (ri + i) in
    let a_re = !acc_re and a_im = !acc_im in
    if Float.abs p_re >= Float.abs p_im then begin
      let r = p_im /. p_re in
      let d = p_re +. (r *. p_im) in
      Array1.unsafe_set xre i ((a_re +. (r *. a_im)) /. d);
      Array1.unsafe_set xim i ((a_im -. (r *. a_re)) /. d)
    end
    else begin
      let r = p_re /. p_im in
      let d = p_im +. (r *. p_re) in
      Array1.unsafe_set xre i (((r *. a_re) +. a_im) /. d);
      Array1.unsafe_set xim i (((r *. a_im) -. a_re) /. d)
    end
  done

let lu_solve_into ({ mat = m; perm; _ } as lu) ~(b : Vec.t) ~(x : Vec.t) =
  let n = m.nrows in
  if Vec.length b <> n || Vec.length x <> n then
    invalid_arg "Cmat.lu_solve_into: dimension mismatch";
  for i = 0 to n - 1 do
    let p = Array.unsafe_get perm i in
    Array1.unsafe_set x.Vec.re i (Array1.unsafe_get b.Vec.re p);
    Array1.unsafe_set x.Vec.im i (Array1.unsafe_get b.Vec.im p)
  done;
  lu_substitute lu x

let solve a b =
  let n = Array.length b in
  let x = Vec.create n in
  lu_solve_into (lu_factor a) ~b:(Vec.of_complex b) ~x;
  Vec.to_complex x

let determinant { mat = m; sign; _ } =
  let n = m.nrows in
  let acc_re = ref (if sign >= 0 then 1.0 else -1.0) and acc_im = ref 0.0 in
  for i = 0 to n - 1 do
    let d_re = Array1.get m.re ((i * n) + i) and d_im = Array1.get m.im ((i * n) + i) in
    let r = (!acc_re *. d_re) -. (!acc_im *. d_im) in
    acc_im := (!acc_re *. d_im) +. (!acc_im *. d_re);
    acc_re := r
  done;
  Complex.{ re = !acc_re; im = !acc_im }
