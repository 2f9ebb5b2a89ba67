(* Sparse complex linear algebra on split re/im off-heap planes.

   The storage discipline follows {!Cmat}: every numeric payload lives
   in [Bigarray.Array1] float64 planes the GC never scans or moves, and
   the boxed [Complex.t] API survives only at the edges. A matrix's
   values are one plane, the real parts of the pattern's slots followed
   by their imaginary parts; a factorization is a run of offsets into
   one plane. The kernels read planes at offsets and never cut a
   sub-view, so a factorization per frequency allocates nothing.

   An MNA matrix A(jω) = G + jωC has one {e pattern} (the stamped
   occupancy, fixed per netlist) and per-frequency {e values}, so the
   factorization splits the classic SPICE way:

   - {!analyze} runs once per pattern: a right-looking Markowitz-style
     elimination with threshold partial pivoting on representative
     values picks the (row, column) pivot order and records the filled
     L/U patterns. Fill is simulated for real — the recorded pattern is
     closed under the left-looking update rule by construction.
   - {!refactor} runs once per frequency: a static-pivot left-looking
     pass over the recorded pattern into reusable factor planes. No
     searching, no allocation, O(flops(fill)).

   The numeric conventions are the dense kernels' exactly: the same
   [Complex.norm] magnitudes (the dense kernels' [norm2], restated
   here: under [-opaque] no call into another module inlines, and an
   out-of-line call boxes its floats), the same Smith division for
   every complex quotient, and the same growth-aware singularity
   threshold [1e-300 + scale_norm · n · 4 · ε] raising {!Cmat.Singular} — so a
   matrix the dense path calls singular is rejected here by the same
   yardstick (the pivot {e order} differs, so rounding and borderline
   verdicts may differ within that envelope; the differential oracles
   compare through a tolerance, not bitwise). *)

module Bvec = Cmat.Vec
open Bigarray

type plane = Cmat.plane

let plane len : plane =
  let p = Array1.create Float64 C_layout len in
  Array1.fill p 0.0;
  p

(* ---- pattern ---- *)

type pattern = {
  n : int;
  nnz : int;
  colptr : int array;  (* length n+1 *)
  rowind : int array;  (* length nnz; rows ascending within a column *)
}

let nnz p = p.nnz

(* Stable counting sort of [src] by [key.(e)], whose values lie in
   [0, buckets): O(length + buckets), no comparison. *)
let counting_sort ~buckets ~(key : int array) (src : int array) =
  let start = Array.make (buckets + 1) 0 in
  Array.iter (fun e -> start.(key.(e) + 1) <- start.(key.(e) + 1) + 1) src;
  for k = 1 to buckets do
    start.(k) <- start.(k) + start.(k - 1)
  done;
  let dst = Array.make (Array.length src) 0 in
  Array.iter
    (fun e ->
      dst.(start.(key.(e))) <- e;
      start.(key.(e)) <- start.(key.(e)) + 1)
    src;
  dst

(* The CSC layout of the positions [(row.(e), col.(e))], e < [len],
   repeats allowed: column pointers, each column's distinct rows in
   ascending order, and each entry's slot. The entries are sorted by
   row, then stably by column, in O(len + n). *)
let csc ~n ~(row : int array) ~(col : int array) len =
  let order =
    counting_sort ~buckets:n ~key:col (counting_sort ~buckets:n ~key:row (Array.init len Fun.id))
  in
  let colptr = Array.make (n + 1) 0 and rowind = Array.make len 0 and slot = Array.make len 0 in
  let nnz = ref 0 in
  for t = 0 to len - 1 do
    let e = order.(t) in
    let prev = if t = 0 then -1 else order.(t - 1) in
    if prev < 0 || row.(prev) <> row.(e) || col.(prev) <> col.(e) then begin
      rowind.(!nnz) <- row.(e);
      colptr.(col.(e) + 1) <- colptr.(col.(e) + 1) + 1;
      incr nnz
    end;
    slot.(e) <- !nnz - 1
  done;
  for c = 1 to n do
    colptr.(c) <- colptr.(c) + colptr.(c - 1)
  done;
  (colptr, (if !nnz = len then rowind else Array.sub rowind 0 !nnz), slot)

let check_bounds what n ~(row : int array) ~(col : int array) =
  Array.iteri
    (fun e r ->
      if r < 0 || r >= n || col.(e) < 0 || col.(e) >= n then
        invalid_arg (what ^ ": entry out of bounds"))
    row

let pattern ~n entries =
  if n < 0 then invalid_arg "Csparse.pattern: negative dimension";
  let row = Array.map fst entries and col = Array.map snd entries in
  check_bounds "Csparse.pattern" n ~row ~col;
  let colptr, rowind, _ = csc ~n ~row ~col (Array.length entries) in
  if Array.length rowind < Array.length entries then
    invalid_arg "Csparse.pattern: duplicate entry";
  { n; nnz = Array.length rowind; colptr; rowind }

let pattern_slots ~n ~row ~col =
  if n < 0 then invalid_arg "Csparse.pattern_slots: negative dimension";
  if Array.length col <> Array.length row then
    invalid_arg "Csparse.pattern_slots: row and column counts differ";
  check_bounds "Csparse.pattern_slots" n ~row ~col;
  let colptr, rowind, slot = csc ~n ~row ~col (Array.length row) in
  ({ n; nnz = Array.length rowind; colptr; rowind }, slot)

let slot p ~row ~col =
  if col < 0 || col >= p.n then invalid_arg "Csparse.slot: column out of bounds";
  let lo = ref p.colptr.(col) and hi = ref (p.colptr.(col + 1) - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let r = p.rowind.(mid) in
    if r = row then found := mid else if r < row then lo := mid + 1 else hi := mid - 1
  done;
  if !found < 0 then raise Not_found;
  !found

(* ---- whole-matrix helpers on (pattern, value plane) ---- *)

(* [Complex.norm] on raw components, the operations of the dense
   kernels' [norm2] written here, where the loops that call it are: a
   call into another module is never inlined under [-opaque], and an
   out-of-line call boxes both floats and the result. *)
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

(* A value plane holds the real parts of the pattern's slots, then
   their imaginary parts: slot k at [k] and [nnz + k]. *)
let check_values p (vals : plane) =
  if Array1.dim vals < 2 * p.nnz then
    invalid_arg "Csparse: value plane shorter than the pattern"

let check_vec what p (v : Bvec.t) =
  if Array1.dim v.Bvec.re < p.n || Array1.dim v.Bvec.im < p.n then
    invalid_arg (what ^ ": vector shorter than the dimension")

(* Per-domain scratch for the permuted intermediate of a solve and the
   row sums of the norms. Its planes only grow: a kernel reads its
   first n entries. *)
type scratch = { mutable len : int; mutable yre : plane; mutable yim : plane }

let scratch_key = Domain.DLS.new_key (fun () -> { len = 0; yre = plane 0; yim = plane 0 })

let scratch_for n =
  let s = Domain.DLS.get scratch_key in
  if s.len < n then begin
    s.len <- n;
    s.yre <- plane n;
    s.yim <- plane n
  end;
  s

(* The largest of the first [n] row sums, [nan] once a row is. *)
let max_row (rows : plane) n =
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let r = Array1.unsafe_get rows i in
    if r > !acc || Float.is_nan r then acc := r
  done;
  !acc

(* The row-sum norm under both entry magnitudes, from one pass over
   the stored entries: (max row sum of |re| + |im|, max row sum of
   [Complex.norm]), the norms of the densified matrix: absent entries
   contribute the zero their dense counterparts would.
   A [nan] row sum makes either result [nan]. *)
let norms_inf p vals =
  check_values p vals;
  let n = p.n and im0 = p.nnz in
  let sc = scratch_for n in
  let abs1 = sc.yre and sums = sc.yim in
  for i = 0 to n - 1 do
    Array1.unsafe_set abs1 i 0.0;
    Array1.unsafe_set sums i 0.0
  done;
  for c = 0 to n - 1 do
    for k = p.colptr.(c) to p.colptr.(c + 1) - 1 do
      let i = Array.unsafe_get p.rowind k in
      let x = Array1.unsafe_get vals k and y = Array1.unsafe_get vals (im0 + k) in
      Array1.unsafe_set abs1 i (Array1.unsafe_get abs1 i +. Float.abs x +. Float.abs y);
      Array1.unsafe_set sums i (Array1.unsafe_get sums i +. norm2 x y)
    done
  done;
  let a2 = ref 0.0 in
  for i = 0 to n - 1 do
    a2 := Float.max !a2 (Array1.unsafe_get sums i)
  done;
  (max_row abs1 n, !a2)

(* y <- A x, column-wise: O(nnz), no allocation. *)
let mul_vec_into p vals ~(x : Bvec.t) ~(y : Bvec.t) =
  check_values p vals;
  check_vec "Csparse.mul_vec_into" p x;
  check_vec "Csparse.mul_vec_into" p y;
  let im0 = p.nnz in
  let xre = x.Bvec.re and xim = x.Bvec.im in
  let yre = y.Bvec.re and yim = y.Bvec.im in
  for i = 0 to p.n - 1 do
    Array1.unsafe_set yre i 0.0;
    Array1.unsafe_set yim i 0.0
  done;
  for c = 0 to p.n - 1 do
    let vre = Array1.unsafe_get xre c and vim = Array1.unsafe_get xim c in
    if vre <> 0.0 || vim <> 0.0 then
      for k = p.colptr.(c) to p.colptr.(c + 1) - 1 do
        let i = Array.unsafe_get p.rowind k in
        let are = Array1.unsafe_get vals k and aim = Array1.unsafe_get vals (im0 + k) in
        Array1.unsafe_set yre i
          (Array1.unsafe_get yre i +. ((are *. vre) -. (aim *. vim)));
        Array1.unsafe_set yim i
          (Array1.unsafe_get yim i +. ((are *. vim) +. (aim *. vre)))
      done
  done

(* Σᵢ |yᵢ| Σₖ |aᵢₖ| |xₖ| over the stored entries, |z| = |re| + |im|. *)
let abs_bilinear p vals ~(y : Bvec.t) ~(x : Bvec.t) =
  check_values p vals;
  check_vec "Csparse.abs_bilinear" p x;
  check_vec "Csparse.abs_bilinear" p y;
  let im0 = p.nnz in
  let mag (re : plane) (im : plane) k =
    Float.abs (Array1.unsafe_get re k) +. Float.abs (Array1.unsafe_get im k)
  in
  let acc = ref 0.0 in
  for c = 0 to p.n - 1 do
    let xc = mag x.Bvec.re x.Bvec.im c in
    if xc <> 0.0 then
      for k = p.colptr.(c) to p.colptr.(c + 1) - 1 do
        let a =
          Float.abs (Array1.unsafe_get vals k) +. Float.abs (Array1.unsafe_get vals (im0 + k))
        in
        acc := !acc +. (mag y.Bvec.re y.Bvec.im p.rowind.(k) *. a *. xc)
      done
  done;
  !acc

(* Densify into an off-heap matrix — the bridge to the dense fallback
   paths (full refactorization on a perturbed copy). *)
let dense_into p vals (m : Cmat.t) =
  check_values p vals;
  if Cmat.rows m <> p.n || Cmat.cols m <> p.n then
    invalid_arg "Csparse.dense_into: dimension mismatch";
  let mre = Cmat.re_plane m and mim = Cmat.im_plane m in
  Array1.fill mre 0.0;
  Array1.fill mim 0.0;
  let nc = p.n and im0 = p.nnz in
  for c = 0 to p.n - 1 do
    for k = p.colptr.(c) to p.colptr.(c + 1) - 1 do
      let i = Array.unsafe_get p.rowind k in
      Array1.unsafe_set mre ((i * nc) + c) (Array1.unsafe_get vals k);
      Array1.unsafe_set mim ((i * nc) + c) (Array1.unsafe_get vals (im0 + k))
    done
  done

(* ---- symbolic analysis ---- *)

type symbolic = {
  pat : pattern;
  roworder : int array;  (* roworder.(k) = original row pivoted at step k *)
  colorder : int array;  (* colorder.(k) = original column eliminated at step k *)
  rowpos : int array;  (* inverse of roworder *)
  colpos : int array;  (* inverse of colorder *)
  (* Filled factor patterns in permuted coordinates, CSC per permuted
     column; L is strictly lower with implicit unit diagonal, U is
     strictly upper (the diagonal lives in its own planes). Row indices
     ascend within each column. *)
  l_colptr : int array;
  l_rowind : int array;
  u_colptr : int array;
  u_rowind : int array;
}

let pivot_order s = (Array.copy s.roworder, Array.copy s.colorder)

let factor_pattern s =
  ( Array.copy s.l_colptr,
    Array.copy s.l_rowind,
    Array.copy s.u_colptr,
    Array.copy s.u_rowind )

(* Markowitz threshold: a candidate pivot must be at least this
   fraction of the largest magnitude in its column. The classic SPICE
   default trades a little growth for a lot less fill. *)
let pivot_threshold = 0.001

let[@inline always] tiny_of ~n ~scale_norm =
  1e-300 +. (scale_norm *. float_of_int n *. 4.0 *. epsilon_float)

(* Append [v] to list [x] of a family of growable int lists. *)
let push (lists : int array array) (lens : int array) x v =
  let a = Array.unsafe_get lists x and l = Array.unsafe_get lens x in
  let a =
    if l < Array.length a then a
    else begin
      let b = Array.make ((2 * l) + 4) 0 in
      Array.blit a 0 b 0 l;
      Array.unsafe_set lists x b;
      b
    end
  in
  Array.unsafe_set a l v;
  Array.unsafe_set lens x (l + 1)

(* Drop element [e] of list [x], moving the last one into its place
   (list order carries no meaning here). *)
let remove_at (lists : int array array) (lens : int array) x e =
  let a = Array.unsafe_get lists x and l = Array.unsafe_get lens x in
  Array.unsafe_set a e (Array.unsafe_get a (l - 1));
  Array.unsafe_set lens x (l - 1)

(* Right-looking elimination on a working copy of the matrix in flat
   arrays. Entry values sit in growable [vre]/[vim] slots with their
   row in [srow]; column c lists the slots of its active entries, row
   i the columns of its active entries (its Markowitz count). Each
   column caches its best acceptable candidate under the search's
   total order — the smaller Markowitz count, then the larger
   magnitude, then the smaller row — and the pivot is the least cached
   candidate, the smaller column on a tie. Only the columns a pivot
   changes (entries or row counts) are searched again. Every choice is
   a minimum or maximum under a total order and every entry is updated
   at most once per step, so neither the order of a column's list nor
   the order of the updates can move a pivot or a value. *)
let analyze_with ~partial p (vals : plane) =
  let n = p.n in
  if n = 0 then
    {
      pat = p;
      roworder = [||];
      colorder = [||];
      rowpos = [||];
      colpos = [||];
      l_colptr = [| 0 |];
      l_rowind = [||];
      u_colptr = [| 0 |];
      u_rowind = [||];
    }
  else begin
    let nnz = p.nnz in
    let cap = Int.max 16 (2 * nnz) in
    let vre = ref (Array.make cap 0.0)
    and vim = ref (Array.make cap 0.0)
    and srow = ref (Array.make cap 0) in
    let used = ref 0 in
    let col_slots = Array.init n (fun c -> Array.make (p.colptr.(c + 1) - p.colptr.(c) + 4) 0)
    and col_len = Array.make n 0 in
    let row_count = Array.make n 4 in
    Array.iter (fun i -> row_count.(i) <- row_count.(i) + 1) p.rowind;
    let row_cols = Array.init n (fun i -> Array.make row_count.(i) 0)
    and row_len = Array.make n 0 in
    let new_slot i c x y =
      if !used = Array.length !vre then begin
        let grow a z =
          let b = Array.make (2 * Array.length a) z in
          Array.blit a 0 b 0 (Array.length a);
          b
        in
        vre := grow !vre 0.0;
        vim := grow !vim 0.0;
        srow := grow !srow 0
      end;
      let s = !used in
      incr used;
      Array.unsafe_set !vre s x;
      Array.unsafe_set !vim s y;
      Array.unsafe_set !srow s i;
      push col_slots col_len c s;
      push row_cols row_len i c
    in
    let scale_norm = ref 0.0 in
    for c = 0 to n - 1 do
      for k = p.colptr.(c) to p.colptr.(c + 1) - 1 do
        let x = Array1.get vals k and y = Array1.get vals (nnz + k) in
        new_slot p.rowind.(k) c x y;
        let m = norm2 x y in
        if m > !scale_norm then scale_norm := m
      done
    done;
    let tiny = tiny_of ~n ~scale_norm:!scale_norm in
    (* Column c's cached candidate: cost −1 when it has none. *)
    let bcost = Array.make n (-1) and bmag = Array.make n 0.0 and brow = Array.make n 0 in
    (* Column c's best acceptable candidate: magnitude at least
       [pivot_threshold] of the column's maximum, column maximum above
       [tiny]. It reads only the column's entries and the counts of its
       rows, so a pivot invalidates exactly the columns it touches. *)
    let reevaluate c =
      let slots = col_slots.(c) and len = col_len.(c) in
      let vre = !vre and vim = !vim and srow = !srow in
      let colmax = ref 0.0 in
      for e = 0 to len - 1 do
        let s = Array.unsafe_get slots e in
        let m = norm2 (Array.unsafe_get vre s) (Array.unsafe_get vim s) in
        if m > !colmax then colmax := m
      done;
      bcost.(c) <- -1;
      if !colmax > tiny then begin
        let acceptable = pivot_threshold *. !colmax in
        for e = 0 to len - 1 do
          let s = Array.unsafe_get slots e in
          let m = norm2 (Array.unsafe_get vre s) (Array.unsafe_get vim s) in
          if m >= acceptable && m > tiny then begin
            let i = Array.unsafe_get srow s in
            let cost = (row_len.(i) - 1) * (len - 1) in
            let bc = bcost.(c) in
            if
              bc < 0 || cost < bc
              || (cost = bc && (m > bmag.(c) || (m = bmag.(c) && i < brow.(c))))
            then begin
              bcost.(c) <- cost;
              bmag.(c) <- m;
              brow.(c) <- i
            end
          end
        done
      end
    in
    if not partial then
      for c = 0 to n - 1 do
        reevaluate c
      done;
    let roworder = Array.make n 0 and colorder = Array.make n 0 in
    (* Step k's L rows (original coordinates) and U columns, flat. *)
    let lrows = ref (Array.make (Int.max 16 nnz) 0) and lptr = Array.make (n + 1) 0 in
    let ucols = ref (Array.make (Int.max 16 nnz) 0) and uptr = Array.make (n + 1) 0 in
    let append (buf : int array ref) at v =
      if at = Array.length !buf then begin
        let b = Array.make (2 * at) 0 in
        Array.blit !buf 0 b 0 at;
        buf := b
      end;
      Array.unsafe_set !buf at v
    in
    let lslot = Array.make n 0 and fre = Array.make n 0.0 and fim = Array.make n 0.0 in
    let pos = Array.make n (-1) in
    let touched = Array.make n (-1) in
    for k = 0 to n - 1 do
      (* The pivot is the least candidate over every active column: the
         minimum of the column minima under the same total order. With
         [partial], column k and its largest entry (the smaller row on
         a tie), as a dense partial-pivoted LU takes them. *)
      let r, c =
        if partial then begin
          let br = ref (-1) and bm = ref 0.0 in
          let slots = col_slots.(k) in
          for e = 0 to col_len.(k) - 1 do
            let s = slots.(e) in
            let i = !srow.(s) and m = norm2 !vre.(s) !vim.(s) in
            if m > !bm || (m = !bm && i < !br) then begin
              br := i;
              bm := m
            end
          done;
          if not (!bm > tiny) then raise Cmat.Singular;
          (!br, k)
        end
        else begin
          let bc = ref (-1) in
          for j = 0 to n - 1 do
            let cost = bcost.(j) in
            if cost >= 0 then begin
              let b = !bc in
              if
                b < 0 || cost < bcost.(b)
                || cost = bcost.(b)
                   && (bmag.(j) > bmag.(b) || (bmag.(j) = bmag.(b) && brow.(j) < brow.(b)))
              then bc := j
            end
          done;
          let c = !bc in
          if c < 0 then raise Cmat.Singular;
          bcost.(c) <- -1;
          (brow.(c), c)
        end
      in
      roworder.(k) <- r;
      colorder.(k) <- c;
      (* The pivot column's other rows, with their slots and the
         multipliers f = a_ic / pivot (Smith division), and the pivot
         row's other columns. *)
      let cslots = col_slots.(c) in
      let ps = ref (-1) and nl = ref 0 in
      for e = 0 to col_len.(c) - 1 do
        let s = cslots.(e) in
        let i = !srow.(s) in
        if i = r then ps := s
        else begin
          append lrows (lptr.(k) + !nl) i;
          lslot.(!nl) <- s;
          incr nl
        end
      done;
      let nl = !nl in
      lptr.(k + 1) <- lptr.(k) + nl;
      let nu = ref 0 in
      for e = 0 to row_len.(r) - 1 do
        let j = row_cols.(r).(e) in
        if j <> c then begin
          append ucols (uptr.(k) + !nu) j;
          incr nu
        end
      done;
      let nu = !nu in
      uptr.(k + 1) <- uptr.(k) + nu;
      let pr = !vre.(!ps) and pi = !vim.(!ps) in
      for m = 0 to nl - 1 do
        let s = lslot.(m) in
        let ar = !vre.(s) and ai = !vim.(s) in
        if Float.abs pr >= Float.abs pi then begin
          let q = pi /. pr in
          let d = pr +. (q *. pi) in
          fre.(m) <- (ar +. (q *. ai)) /. d;
          fim.(m) <- (ai -. (q *. ar)) /. d
        end
        else begin
          let q = pr /. pi in
          let d = pi +. (q *. pr) in
          fre.(m) <- ((q *. ar) +. ai) /. d;
          fim.(m) <- ((q *. ai) -. ar) /. d
        end
      done;
      (* Numeric right-looking update, so later pivot choices see real
         magnitudes (fill entries are created here — this is the fill
         simulation the static pattern records). Column j is scattered
         into [pos] (row -> slot) for the step. *)
      let l0 = lptr.(k) in
      for ue = uptr.(k) to uptr.(k) + nu - 1 do
        let j = !ucols.(ue) in
        let jslots = col_slots.(j) and jlen = col_len.(j) in
        for e = 0 to jlen - 1 do
          let s = jslots.(e) in
          pos.(!srow.(s)) <- s
        done;
        let rs = pos.(r) in
        let rr = !vre.(rs) and ri = !vim.(rs) in
        for m = 0 to nl - 1 do
          let i = !lrows.(l0 + m) in
          let f_re = fre.(m) and f_im = fim.(m) in
          let s = pos.(i) in
          if s >= 0 then begin
            !vre.(s) <- !vre.(s) -. ((f_re *. rr) -. (f_im *. ri));
            !vim.(s) <- !vim.(s) -. ((f_re *. ri) +. (f_im *. rr))
          end
          else
            (* fill *)
            new_slot i j
              (-.((f_re *. rr) -. (f_im *. ri)))
              (-.((f_re *. ri) +. (f_im *. rr)))
        done;
        for e = 0 to jlen - 1 do
          pos.(!srow.(jslots.(e))) <- -1
        done
      done;
      (* Detach the pivot row and column from the active structure. *)
      for ue = uptr.(k) to uptr.(k) + nu - 1 do
        let j = !ucols.(ue) in
        let e = ref 0 in
        while !srow.(col_slots.(j).(!e)) <> r do
          incr e
        done;
        remove_at col_slots col_len j !e
      done;
      for m = 0 to nl - 1 do
        let i = !lrows.(l0 + m) in
        let e = ref 0 in
        while row_cols.(i).(!e) <> c do
          incr e
        done;
        remove_at row_cols row_len i !e
      done;
      (* Re-evaluate the columns the pivot changed: those that lost row
         r or took fill, and every column holding a row whose count
         moved. *)
      if not partial then begin
        let touch j =
          if touched.(j) <> k then begin
            touched.(j) <- k;
            reevaluate j
          end
        in
        for ue = uptr.(k) to uptr.(k) + nu - 1 do
          touch !ucols.(ue)
        done;
        for m = 0 to nl - 1 do
          let i = !lrows.(l0 + m) in
          for e = 0 to row_len.(i) - 1 do
            touch row_cols.(i).(e)
          done
        done
      end
    done;
    let rowpos = Array.make n 0 and colpos = Array.make n 0 in
    for k = 0 to n - 1 do
      rowpos.(roworder.(k)) <- k;
      colpos.(colorder.(k)) <- k
    done;
    (* L column k holds step k's eliminated rows, U row k step k's
       columns, both in permuted coordinates. *)
    let nl = lptr.(n) and nu = uptr.(n) in
    let step = Array.make (Int.max nl nu) 0 and perm = Array.make (Int.max nl nu) 0 in
    for k = 0 to n - 1 do
      for e = lptr.(k) to lptr.(k + 1) - 1 do
        step.(e) <- k;
        perm.(e) <- rowpos.(!lrows.(e))
      done
    done;
    let l_colptr, l_rowind, _ = csc ~n ~row:perm ~col:step nl in
    for k = 0 to n - 1 do
      for e = uptr.(k) to uptr.(k + 1) - 1 do
        step.(e) <- k;
        perm.(e) <- colpos.(!ucols.(e))
      done
    done;
    let u_colptr, u_rowind, _ = csc ~n ~row:step ~col:perm nu in
    {
      pat = p;
      roworder;
      colorder;
      rowpos;
      colpos;
      l_colptr;
      l_rowind;
      u_colptr;
      u_rowind;
    }
  end

(* The Markowitz order trades stability for sparsity, and on a badly
   scaled matrix it can leave a remainder whose entries all sit below
   the singularity threshold where another order would not: pivoting
   an inductor's branch diagonal −jωL first, say, leaves its node's
   row with conductances under a threshold that ωL sets. There the
   analysis takes the dense LU's order instead — columns in order,
   each on its largest entry — and the matrix is singular only if that
   order fails too, as it would in the dense partial-pivoted LU. *)
let analyze p vals =
  check_values p vals;
  try analyze_with ~partial:false p vals with Cmat.Singular -> analyze_with ~partial:true p vals

(* ---- numeric refactorization ---- *)

(* The factors are offsets into one plane, [base] on, in this order:
   L's real and imaginary parts (aligned with [l_rowind]), U's
   (aligned with [u_rowind]), the diagonal's and the scatter
   workspace's (n each; zero between columns). *)
type numeric = { sym : symbolic; st : plane; base : int }

let factor_len s =
  (2 * Array.length s.l_rowind) + (2 * Array.length s.u_rowind) + (4 * s.pat.n)

(* The eight offsets of [num]'s parts in its plane. *)
let[@inline always] l_re num = num.base
let[@inline always] l_im num = num.base + Array.length num.sym.l_rowind
let[@inline always] u_re num = num.base + (2 * Array.length num.sym.l_rowind)
let[@inline always] u_im num = u_re num + Array.length num.sym.u_rowind
let[@inline always] d_re num = u_re num + (2 * Array.length num.sym.u_rowind)
let[@inline always] d_im num = d_re num + num.sym.pat.n
let[@inline always] w_re num = d_re num + (2 * num.sym.pat.n)
let[@inline always] w_im num = d_re num + (3 * num.sym.pat.n)

let numeric sym (st : plane) ~off =
  if off < 0 || Array1.dim st - off < factor_len sym then
    invalid_arg "Csparse.numeric: store shorter than the factors";
  let num = { sym; st; base = off } in
  for i = w_re num to w_re num + (2 * sym.pat.n) - 1 do
    Array1.unsafe_set st i 0.0
  done;
  num

(* Zero the scatter entries column [j] touched: its U rows, its
   diagonal and its L rows. *)
let clear_column s (st : plane) ~wre ~wim j =
  for uix = s.u_colptr.(j) to s.u_colptr.(j + 1) - 1 do
    let k = Array.unsafe_get s.u_rowind uix in
    Array1.unsafe_set st (wre + k) 0.0;
    Array1.unsafe_set st (wim + k) 0.0
  done;
  Array1.unsafe_set st (wre + j) 0.0;
  Array1.unsafe_set st (wim + j) 0.0;
  for lix = s.l_colptr.(j) to s.l_colptr.(j + 1) - 1 do
    let i = Array.unsafe_get s.l_rowind lix in
    Array1.unsafe_set st (wre + i) 0.0;
    Array1.unsafe_set st (wim + i) 0.0
  done

(* Left-looking refactorization over the static filled pattern. The
   workspace is part of the [numeric] value, so refactoring is
   single-writer — concurrent {!solve_into}/{!solve_block_into} readers
   are only safe once this returns (the engine factors per frequency at
   construction time, before any parallel phase). *)
let refactor num vals =
  let s = num.sym in
  let p = s.pat in
  check_values p vals;
  let n = p.n and im0 = p.nnz in
  let scale_norm = ref 0.0 in
  for k = 0 to p.nnz - 1 do
    let m = norm2 (Array1.unsafe_get vals k) (Array1.unsafe_get vals (im0 + k)) in
    if m > !scale_norm then scale_norm := m
  done;
  let tiny = tiny_of ~n ~scale_norm:!scale_norm in
  let st = num.st in
  let lre = l_re num and lim = l_im num and ure = u_re num and uim = u_im num in
  let dre = d_re num and dim_ = d_im num and wre = w_re num and wim = w_im num in
  for j = 0 to n - 1 do
    let c = s.colorder.(j) in
    (* scatter A's column c into permuted positions *)
    for k = p.colptr.(c) to p.colptr.(c + 1) - 1 do
      let pi = Array.unsafe_get s.rowpos (Array.unsafe_get p.rowind k) in
      Array1.unsafe_set st (wre + pi) (Array1.unsafe_get vals k);
      Array1.unsafe_set st (wim + pi) (Array1.unsafe_get vals (im0 + k))
    done;
    (* eliminate with the already-computed columns k < j *)
    for uix = s.u_colptr.(j) to s.u_colptr.(j + 1) - 1 do
      let k = Array.unsafe_get s.u_rowind uix in
      let uk_re = Array1.unsafe_get st (wre + k) and uk_im = Array1.unsafe_get st (wim + k) in
      Array1.unsafe_set st (ure + uix) uk_re;
      Array1.unsafe_set st (uim + uix) uk_im;
      if uk_re <> 0.0 || uk_im <> 0.0 then
        for lix = s.l_colptr.(k) to s.l_colptr.(k + 1) - 1 do
          let i = Array.unsafe_get s.l_rowind lix in
          let l_re = Array1.unsafe_get st (lre + lix) and l_im = Array1.unsafe_get st (lim + lix) in
          Array1.unsafe_set st (wre + i)
            (Array1.unsafe_get st (wre + i) -. ((l_re *. uk_re) -. (l_im *. uk_im)));
          Array1.unsafe_set st (wim + i)
            (Array1.unsafe_get st (wim + i) -. ((l_re *. uk_im) +. (l_im *. uk_re)))
        done
    done;
    let p_re = Array1.unsafe_get st (wre + j) and p_im = Array1.unsafe_get st (wim + j) in
    if norm2 p_re p_im <= tiny then begin
      (* leave the workspace clean for the next refactor attempt *)
      clear_column s st ~wre ~wim j;
      raise Cmat.Singular
    end;
    Array1.unsafe_set st (dre + j) p_re;
    Array1.unsafe_set st (dim_ + j) p_im;
    for lix = s.l_colptr.(j) to s.l_colptr.(j + 1) - 1 do
      let i = Array.unsafe_get s.l_rowind lix in
      let a_re = Array1.unsafe_get st (wre + i) and a_im = Array1.unsafe_get st (wim + i) in
      if Float.abs p_re >= Float.abs p_im then begin
        let r = p_im /. p_re in
        let d = p_re +. (r *. p_im) in
        Array1.unsafe_set st (lre + lix) ((a_re +. (r *. a_im)) /. d);
        Array1.unsafe_set st (lim + lix) ((a_im -. (r *. a_re)) /. d)
      end
      else begin
        let r = p_re /. p_im in
        let d = p_im +. (r *. p_re) in
        Array1.unsafe_set st (lre + lix) (((r *. a_re) +. a_im) /. d);
        Array1.unsafe_set st (lim + lix) (((r *. a_im) -. a_re) /. d)
      end
    done;
    clear_column s st ~wre ~wim j
  done

(* |z|₁ = |re| + |im| of the entry at [k] of the parts at [re]/[im]. *)
let[@inline always] mag (st : plane) re im k =
  Float.abs (Array1.unsafe_get st (re + k)) +. Float.abs (Array1.unsafe_get st (im + k))

(* ‖|L̂||Û|‖∞ of the last refactorization, |z| = |re| + |im|, in
   O(nnz(L + U)): |Û|·1 first (each row's diagonal plus its strictly
   upper entries), then |L̂|·(|Û|·1) with L̂'s implicit unit diagonal.
   Permuted coordinates, which no row-sum norm can tell apart from the
   original ones. [nan] once a row sum is. The row sums live in this
   domain's scratch. *)
let lu_abs_norm_inf num =
  let s = num.sym in
  let n = s.pat.n in
  let st = num.st in
  let sc = scratch_for n in
  let u_rows = sc.yre and rows = sc.yim in
  let dre = d_re num and dim_ = d_im num and ure = u_re num and uim = u_im num in
  for i = 0 to n - 1 do
    Array1.unsafe_set u_rows i (mag st dre dim_ i)
  done;
  for j = 0 to n - 1 do
    for uix = s.u_colptr.(j) to s.u_colptr.(j + 1) - 1 do
      let i = Array.unsafe_get s.u_rowind uix in
      Array1.unsafe_set u_rows i (Array1.unsafe_get u_rows i +. mag st ure uim uix)
    done
  done;
  for i = 0 to n - 1 do
    Array1.unsafe_set rows i (Array1.unsafe_get u_rows i)
  done;
  let lre = l_re num and lim = l_im num in
  for k = 0 to n - 1 do
    let uk = Array1.unsafe_get u_rows k in
    for lix = s.l_colptr.(k) to s.l_colptr.(k + 1) - 1 do
      let i = Array.unsafe_get s.l_rowind lix in
      Array1.unsafe_set rows i (Array1.unsafe_get rows i +. (mag st lre lim lix *. uk))
    done
  done;
  max_row rows n

(* ---- triangular solves ----

   Shared factors are read-only here, so concurrent solves from several
   domains are safe; the permuted intermediate lives in per-domain
   scratch (DLS), mirroring the engine-wide scratch discipline. *)

(* Forward/back substitution in permuted coordinates, column-oriented:
   processing columns in order finalizes y.(k) before it is used. [k]
   is the number of interleaved right-hand sides (stride). *)
let substitute_stride num (yre : plane) (yim : plane) ~k =
  let s = num.sym in
  let n = s.pat.n in
  let st = num.st in
  let lre = l_re num and lim = l_im num and ure = u_re num and uim = u_im num in
  let dre = d_re num and dim_ = d_im num in
  (* L y = Pb, unit diagonal *)
  for kk = 0 to n - 1 do
    let rk = kk * k in
    for lix = s.l_colptr.(kk) to s.l_colptr.(kk + 1) - 1 do
      let i = Array.unsafe_get s.l_rowind lix in
      let l_re = Array1.unsafe_get st (lre + lix) and l_im = Array1.unsafe_get st (lim + lix) in
      if l_re <> 0.0 || l_im <> 0.0 then begin
        let ri = i * k in
        for r = 0 to k - 1 do
          let v_re = Array1.unsafe_get yre (rk + r)
          and v_im = Array1.unsafe_get yim (rk + r) in
          Array1.unsafe_set yre (ri + r)
            (Array1.unsafe_get yre (ri + r) -. ((l_re *. v_re) -. (l_im *. v_im)));
          Array1.unsafe_set yim (ri + r)
            (Array1.unsafe_get yim (ri + r) -. ((l_re *. v_im) +. (l_im *. v_re)))
        done
      end
    done
  done;
  (* U x = y; the diagonal divide lands first, then the column's
     entries update the rows above. *)
  for j = n - 1 downto 0 do
    let rj = j * k in
    let p_re = Array1.unsafe_get st (dre + j) and p_im = Array1.unsafe_get st (dim_ + j) in
    if Float.abs p_re >= Float.abs p_im then begin
      let r = p_im /. p_re in
      let d = p_re +. (r *. p_im) in
      for c = 0 to k - 1 do
        let a_re = Array1.unsafe_get yre (rj + c)
        and a_im = Array1.unsafe_get yim (rj + c) in
        Array1.unsafe_set yre (rj + c) ((a_re +. (r *. a_im)) /. d);
        Array1.unsafe_set yim (rj + c) ((a_im -. (r *. a_re)) /. d)
      done
    end
    else begin
      let r = p_re /. p_im in
      let d = p_im +. (r *. p_re) in
      for c = 0 to k - 1 do
        let a_re = Array1.unsafe_get yre (rj + c)
        and a_im = Array1.unsafe_get yim (rj + c) in
        Array1.unsafe_set yre (rj + c) (((r *. a_re) +. a_im) /. d);
        Array1.unsafe_set yim (rj + c) (((r *. a_im) -. a_re) /. d)
      done
    end;
    for uix = s.u_colptr.(j) to s.u_colptr.(j + 1) - 1 do
      let i = Array.unsafe_get s.u_rowind uix in
      let u_re = Array1.unsafe_get st (ure + uix) and u_im = Array1.unsafe_get st (uim + uix) in
      if u_re <> 0.0 || u_im <> 0.0 then begin
        let ri = i * k in
        for r = 0 to k - 1 do
          let v_re = Array1.unsafe_get yre (rj + r)
          and v_im = Array1.unsafe_get yim (rj + r) in
          Array1.unsafe_set yre (ri + r)
            (Array1.unsafe_get yre (ri + r) -. ((u_re *. v_re) -. (u_im *. v_im)));
          Array1.unsafe_set yim (ri + r)
            (Array1.unsafe_get yim (ri + r) -. ((u_re *. v_im) +. (u_im *. v_re)))
        done
      end
    done
  done

let solve_into num ~(b : Bvec.t) ~(x : Bvec.t) =
  let s = num.sym in
  let n = s.pat.n in
  check_vec "Csparse.solve_into" s.pat b;
  check_vec "Csparse.solve_into" s.pat x;
  let sc = scratch_for n in
  let yre = sc.yre and yim = sc.yim in
  for kk = 0 to n - 1 do
    let p = Array.unsafe_get s.roworder kk in
    Array1.unsafe_set yre kk (Array1.unsafe_get b.Bvec.re p);
    Array1.unsafe_set yim kk (Array1.unsafe_get b.Bvec.im p)
  done;
  substitute_stride num yre yim ~k:1;
  for j = 0 to n - 1 do
    let c = Array.unsafe_get s.colorder j in
    Array1.unsafe_set x.Bvec.re c (Array1.unsafe_get yre j);
    Array1.unsafe_set x.Bvec.im c (Array1.unsafe_get yim j)
  done

(* Aᵀ x = b through the same factors: with P·A·Q = L·U,
   Aᵀ = Q·Uᵀ·Lᵀ·P, so Uᵀ w = Qᵀ b runs forward and Lᵀ z = w backward,
   each reading one stored column per step as a dot product, and
   x = Pᵀ z. The arithmetic is {!Complex.sub}, {!Complex.mul} and
   {!Complex.div}'s, written out on the planes; w lives in this
   domain's scratch. O(fill), no allocation. *)
let solve_transpose_into num ~(b : Bvec.t) ~(x : Bvec.t) =
  let s = num.sym in
  let n = s.pat.n in
  check_vec "Csparse.solve_transpose_into" s.pat b;
  check_vec "Csparse.solve_transpose_into" s.pat x;
  let st = num.st in
  let sc = scratch_for n in
  let wre = sc.yre and wim = sc.yim in
  for j = 0 to n - 1 do
    let c = Array.unsafe_get s.colorder j in
    Array1.unsafe_set wre j (Array1.unsafe_get b.Bvec.re c);
    Array1.unsafe_set wim j (Array1.unsafe_get b.Bvec.im c)
  done;
  let ure = u_re num and uim = u_im num and dre = d_re num and dim_ = d_im num in
  for j = 0 to n - 1 do
    let acc_re = ref (Array1.unsafe_get wre j) and acc_im = ref (Array1.unsafe_get wim j) in
    for uix = s.u_colptr.(j) to s.u_colptr.(j + 1) - 1 do
      let i = Array.unsafe_get s.u_rowind uix in
      let a_re = Array1.unsafe_get st (ure + uix) and a_im = Array1.unsafe_get st (uim + uix) in
      let v_re = Array1.unsafe_get wre i and v_im = Array1.unsafe_get wim i in
      acc_re := !acc_re -. ((a_re *. v_re) -. (a_im *. v_im));
      acc_im := !acc_im -. ((a_re *. v_im) +. (a_im *. v_re))
    done;
    let p_re = Array1.unsafe_get st (dre + j) and p_im = Array1.unsafe_get st (dim_ + j) in
    let x_re = !acc_re and x_im = !acc_im in
    if Float.abs p_re >= Float.abs p_im then begin
      let r = p_im /. p_re in
      let d = p_re +. (r *. p_im) in
      Array1.unsafe_set wre j ((x_re +. (r *. x_im)) /. d);
      Array1.unsafe_set wim j ((x_im -. (r *. x_re)) /. d)
    end
    else begin
      let r = p_re /. p_im in
      let d = p_im +. (r *. p_re) in
      Array1.unsafe_set wre j (((r *. x_re) +. x_im) /. d);
      Array1.unsafe_set wim j (((r *. x_im) -. x_re) /. d)
    end
  done;
  let lre = l_re num and lim = l_im num in
  for kk = n - 1 downto 0 do
    let acc_re = ref (Array1.unsafe_get wre kk) and acc_im = ref (Array1.unsafe_get wim kk) in
    for lix = s.l_colptr.(kk) to s.l_colptr.(kk + 1) - 1 do
      let i = Array.unsafe_get s.l_rowind lix in
      let a_re = Array1.unsafe_get st (lre + lix) and a_im = Array1.unsafe_get st (lim + lix) in
      let v_re = Array1.unsafe_get wre i and v_im = Array1.unsafe_get wim i in
      acc_re := !acc_re -. ((a_re *. v_re) -. (a_im *. v_im));
      acc_im := !acc_im -. ((a_re *. v_im) +. (a_im *. v_re))
    done;
    Array1.unsafe_set wre kk !acc_re;
    Array1.unsafe_set wim kk !acc_im
  done;
  for k = 0 to n - 1 do
    let r = Array.unsafe_get s.roworder k in
    Array1.unsafe_set x.Bvec.re r (Array1.unsafe_get wre k);
    Array1.unsafe_set x.Bvec.im r (Array1.unsafe_get wim k)
  done

(* Multi-RHS back-solve: [b] and [x] are n×k row-major blocks whose
   column r is the r-th right-hand side / solution, and per column the
   operation sequence is exactly {!solve_into}'s. One pass over the
   factors serves all k columns, with the columns innermost. The
   permuted block lives in the caller's [work], so a solve per
   frequency allocates nothing. *)
let solve_block_into num ~(work : Cmat.t) ~(b : Cmat.t) ~(x : Cmat.t) =
  let s = num.sym in
  let n = s.pat.n in
  let k = Cmat.cols b in
  if
    Cmat.rows b <> n || Cmat.rows x <> n || Cmat.cols x <> k || Cmat.rows work <> n
    || Cmat.cols work <> k
  then invalid_arg "Csparse.solve_block_into: dimension mismatch";
  if k > 0 then begin
    let bre = Cmat.re_plane b and bim = Cmat.im_plane b in
    let xre = Cmat.re_plane x and xim = Cmat.im_plane x in
    let yre = Cmat.re_plane work and yim = Cmat.im_plane work in
    for kk = 0 to n - 1 do
      let p = Array.unsafe_get s.roworder kk in
      let rk = kk * k and rp = p * k in
      for r = 0 to k - 1 do
        Array1.unsafe_set yre (rk + r) (Array1.unsafe_get bre (rp + r));
        Array1.unsafe_set yim (rk + r) (Array1.unsafe_get bim (rp + r))
      done
    done;
    substitute_stride num yre yim ~k;
    for j = 0 to n - 1 do
      let c = Array.unsafe_get s.colorder j in
      let rj = j * k and rc = c * k in
      for r = 0 to k - 1 do
        Array1.unsafe_set xre (rc + r) (Array1.unsafe_get yre (rj + r));
        Array1.unsafe_set xim (rc + r) (Array1.unsafe_get yim (rj + r))
      done
    done
  end
