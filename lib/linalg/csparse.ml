(* Sparse complex linear algebra on split re/im off-heap planes.

   The storage discipline follows {!Cmat}: every numeric payload is
   a pair of [Bigarray.Array1] float64 planes the GC never scans or
   moves, and the boxed [Complex.t] API survives only at the edges.

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
   {!Cmat.norm2} magnitudes, the same Smith division for every complex
   quotient, and the same growth-aware singularity threshold
   [1e-300 + scale_norm · n · 4 · ε] raising {!Cmat.Singular} — so a
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

let pattern ~n entries =
  if n < 0 then invalid_arg "Csparse.pattern: negative dimension";
  let entries = Array.copy entries in
  Array.sort
    (fun (r1, c1) (r2, c2) -> if c1 <> c2 then compare c1 c2 else compare r1 r2)
    entries;
  let nnz = Array.length entries in
  let colptr = Array.make (n + 1) 0 in
  let rowind = Array.make nnz 0 in
  Array.iteri
    (fun k (r, c) ->
      if r < 0 || r >= n || c < 0 || c >= n then
        invalid_arg "Csparse.pattern: entry out of bounds";
      if k > 0 && entries.(k - 1) = (r, c) then
        invalid_arg "Csparse.pattern: duplicate entry";
      rowind.(k) <- r;
      colptr.(c + 1) <- colptr.(c + 1) + 1)
    entries;
  for c = 1 to n do
    colptr.(c) <- colptr.(c) + colptr.(c - 1)
  done;
  { n; nnz; colptr; rowind }

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

(* ---- whole-matrix helpers on (pattern, value planes) ---- *)

let check_values p (re : plane) (im : plane) =
  if Array1.dim re <> p.nnz || Array1.dim im <> p.nnz then
    invalid_arg "Csparse: value planes do not match the pattern"

(* The largest of a row-sum array, [nan] once a row is. *)
let max_row rows =
  Array.fold_left (fun acc r -> if r > acc || Float.is_nan r then r else acc) 0.0 rows

(* The row-sum norm under both entry magnitudes, from one pass over
   the stored entries: (max row sum of |re| + |im|, max row sum of
   {!Cmat.norm2}), the norms of the densified matrix: absent entries
   contribute the zero their dense counterparts would.
   A [nan] row sum makes either result [nan]. *)
let norms_inf p ~re ~im =
  check_values p re im;
  let abs1 = Array.make (Int.max p.n 1) 0.0 and sums = Array.make (Int.max p.n 1) 0.0 in
  for c = 0 to p.n - 1 do
    for k = p.colptr.(c) to p.colptr.(c + 1) - 1 do
      let i = Array.unsafe_get p.rowind k in
      let x = Array1.unsafe_get re k and y = Array1.unsafe_get im k in
      Array.unsafe_set abs1 i (Array.unsafe_get abs1 i +. Float.abs x +. Float.abs y);
      Array.unsafe_set sums i (Array.unsafe_get sums i +. Cmat.norm2 x y)
    done
  done;
  (max_row abs1, Array.fold_left Float.max 0.0 sums)

(* y <- A x, column-wise: O(nnz), no allocation. *)
let mul_vec_into p ~re ~im ~(x : Bvec.t) ~(y : Bvec.t) =
  check_values p re im;
  if Bvec.length x <> p.n || Bvec.length y <> p.n then
    invalid_arg "Csparse.mul_vec_into: dimension mismatch";
  Bvec.fill_zero y;
  let xre = x.Bvec.re and xim = x.Bvec.im in
  let yre = y.Bvec.re and yim = y.Bvec.im in
  for c = 0 to p.n - 1 do
    let vre = Array1.unsafe_get xre c and vim = Array1.unsafe_get xim c in
    if vre <> 0.0 || vim <> 0.0 then
      for k = p.colptr.(c) to p.colptr.(c + 1) - 1 do
        let i = Array.unsafe_get p.rowind k in
        let are = Array1.unsafe_get re k and aim = Array1.unsafe_get im k in
        Array1.unsafe_set yre i
          (Array1.unsafe_get yre i +. ((are *. vre) -. (aim *. vim)));
        Array1.unsafe_set yim i
          (Array1.unsafe_get yim i +. ((are *. vim) +. (aim *. vre)))
      done
  done

(* Σᵢ |yᵢ| Σₖ |aᵢₖ| |xₖ| over the stored entries, |z| = |re| + |im|. *)
let abs_bilinear p ~re ~im ~(y : Bvec.t) ~(x : Bvec.t) =
  check_values p re im;
  if Bvec.length x <> p.n || Bvec.length y <> p.n then
    invalid_arg "Csparse.abs_bilinear: dimension mismatch";
  let mag (a : plane) (b : plane) k = Float.abs (Array1.get a k) +. Float.abs (Array1.get b k) in
  let acc = ref 0.0 in
  for c = 0 to p.n - 1 do
    let xc = mag x.Bvec.re x.Bvec.im c in
    if xc <> 0.0 then
      for k = p.colptr.(c) to p.colptr.(c + 1) - 1 do
        acc := !acc +. (mag y.Bvec.re y.Bvec.im p.rowind.(k) *. mag re im k *. xc)
      done
  done;
  !acc

(* Densify into an off-heap matrix — the bridge to the dense fallback
   paths (full refactorization on a perturbed copy). *)
let dense_into p ~re ~im (m : Cmat.t) =
  check_values p re im;
  if Cmat.rows m <> p.n || Cmat.cols m <> p.n then
    invalid_arg "Csparse.dense_into: dimension mismatch";
  let mre = Cmat.re_plane m and mim = Cmat.im_plane m in
  Array1.fill mre 0.0;
  Array1.fill mim 0.0;
  let nc = p.n in
  for c = 0 to p.n - 1 do
    for k = p.colptr.(c) to p.colptr.(c + 1) - 1 do
      let i = Array.unsafe_get p.rowind k in
      Array1.unsafe_set mre ((i * nc) + c) (Array1.unsafe_get re k);
      Array1.unsafe_set mim ((i * nc) + c) (Array1.unsafe_get im k)
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

let tiny_of ~n ~scale_norm =
  1e-300 +. (scale_norm *. float_of_int n *. 4.0 *. epsilon_float)

(* A pivot candidate under the search's total order: the smaller
   Markowitz count, then the larger magnitude, then the smaller
   (row, column) pair. Candidate magnitudes exceed [tiny], so they are
   never NaN and the order is total. *)
module Candidate = struct
  type t = { cost : int; mag : float; row : int; col : int }

  let compare a b =
    if a.cost <> b.cost then Int.compare a.cost b.cost
    else if a.mag <> b.mag then Float.compare b.mag a.mag
    else if a.row <> b.row then Int.compare a.row b.row
    else Int.compare a.col b.col
end

module Candidates = Set.Make (Candidate)

let analyze_with ~partial p ~(re : plane) ~(im : plane) =
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
    (* Working sparse matrix with dynamic fill: column c maps each of
       its active rows to the slot of that entry's value in the growable
       [vre]/[vim] arrays, and row i holds its set of active columns
       (its Markowitz count). *)
    let col_tbl = Array.init n (fun _ -> Hashtbl.create 8) in
    let row_set = Array.init n (fun _ -> Hashtbl.create 8) in
    let cap = Int.max 16 (2 * p.nnz) in
    let vre = ref (Array.make cap 0.0) and vim = ref (Array.make cap 0.0) in
    let used = ref 0 in
    let new_slot i c ~re:x ~im:y =
      if !used = Array.length !vre then begin
        let grow a = Array.append a (Array.make (Array.length a) 0.0) in
        vre := grow !vre;
        vim := grow !vim
      end;
      let s = !used in
      incr used;
      !vre.(s) <- x;
      !vim.(s) <- y;
      Hashtbl.replace col_tbl.(c) i s;
      Hashtbl.replace row_set.(i) c ()
    in
    let scale_norm = ref 0.0 in
    for c = 0 to n - 1 do
      for k = p.colptr.(c) to p.colptr.(c + 1) - 1 do
        let x = Array1.get re k and y = Array1.get im k in
        new_slot p.rowind.(k) c ~re:x ~im:y;
        let m = Cmat.norm2 x y in
        if m > !scale_norm then scale_norm := m
      done
    done;
    let tiny = tiny_of ~n ~scale_norm:!scale_norm in
    let mag s = Cmat.norm2 !vre.(s) !vim.(s) in
    (* Column c's best acceptable candidate: magnitude at least
       [pivot_threshold] of the column's maximum, column maximum above
       [tiny]. It reads only the column's entries and the counts of its
       rows, so a pivot invalidates exactly the columns it touches. *)
    let best_in c =
      let tbl = col_tbl.(c) in
      let colmax =
        Hashtbl.fold (fun _ s acc -> if mag s > acc then mag s else acc) tbl 0.0
      in
      if colmax > tiny then begin
        let acceptable = pivot_threshold *. colmax in
        let clen = Hashtbl.length tbl in
        Hashtbl.fold
          (fun i s best ->
            let m = mag s in
            if m >= acceptable && m > tiny then begin
              let cand =
                {
                  Candidate.cost = (Hashtbl.length row_set.(i) - 1) * (clen - 1);
                  mag = m;
                  row = i;
                  col = c;
                }
              in
              match best with
              | Some b when Candidate.compare b cand <= 0 -> best
              | _ -> Some cand
            end
            else best)
          tbl None
      end
      else None
    in
    let cached = Array.make n None in
    let candidates = ref Candidates.empty in
    let reevaluate c =
      Option.iter (fun b -> candidates := Candidates.remove b !candidates) cached.(c);
      let best = best_in c in
      cached.(c) <- best;
      Option.iter (fun b -> candidates := Candidates.add b !candidates) best
    in
    if not partial then
      for c = 0 to n - 1 do
        reevaluate c
      done;
    let roworder = Array.make n 0 and colorder = Array.make n 0 in
    let lcols = Array.make n [] and urows = Array.make n [] in
    let touched = Array.make n (-1) in
    for k = 0 to n - 1 do
      (* The pivot is the least candidate over every active column: the
         minimum of the column minima under the same total order. With
         [partial], column k and its largest entry (the smaller row on
         a tie), as a dense partial-pivoted LU takes them. *)
      let r, c =
        if partial then begin
          let r, m =
            Hashtbl.fold
              (fun i s (br, bm) ->
                let m = mag s in
                if m > bm || (m = bm && i < br) then (i, m) else (br, bm))
              col_tbl.(k) (-1, 0.0)
          in
          if not (m > tiny) then raise Cmat.Singular;
          (r, k)
        end
        else begin
          match Candidates.min_elt_opt !candidates with
          | Some { Candidate.row; col; _ } ->
              candidates := Candidates.remove (Option.get cached.(col)) !candidates;
              cached.(col) <- None;
              (row, col)
          | None -> raise Cmat.Singular
        end
      in
      roworder.(k) <- r;
      colorder.(k) <- c;
      let lrows =
        Hashtbl.fold (fun i _ acc -> if i <> r then i :: acc else acc) col_tbl.(c) []
      in
      let ucols =
        Hashtbl.fold (fun j () acc -> if j <> c then j :: acc else acc) row_set.(r) []
      in
      lcols.(k) <- lrows;
      urows.(k) <- ucols;
      (* Numeric right-looking update, so later pivot choices see real
         magnitudes (fill entries are created here — this is the fill
         simulation the static pattern records). *)
      let ps = Hashtbl.find col_tbl.(c) r in
      let pr = !vre.(ps) and pi = !vim.(ps) in
      List.iter
        (fun i ->
          let s = Hashtbl.find col_tbl.(c) i in
          let ar = !vre.(s) and ai = !vim.(s) in
          (* f = a_ic / pivot, Smith division. *)
          let f_re, f_im =
            if Float.abs pr >= Float.abs pi then begin
              let q = pi /. pr in
              let d = pr +. (q *. pi) in
              ((ar +. (q *. ai)) /. d, (ai -. (q *. ar)) /. d)
            end
            else begin
              let q = pr /. pi in
              let d = pi +. (q *. pr) in
              (((q *. ar) +. ai) /. d, ((q *. ai) -. ar) /. d)
            end
          in
          List.iter
            (fun j ->
              let rs = Hashtbl.find col_tbl.(j) r in
              let rr = !vre.(rs) and ri = !vim.(rs) in
              match Hashtbl.find_opt col_tbl.(j) i with
              | Some s ->
                  !vre.(s) <- !vre.(s) -. ((f_re *. rr) -. (f_im *. ri));
                  !vim.(s) <- !vim.(s) -. ((f_re *. ri) +. (f_im *. rr))
              | None ->
                  (* fill *)
                  new_slot i j
                    ~re:(-.((f_re *. rr) -. (f_im *. ri)))
                    ~im:(-.((f_re *. ri) +. (f_im *. rr))))
            ucols)
        lrows;
      (* Detach the pivot row and column from the active structure. *)
      List.iter (fun j -> Hashtbl.remove col_tbl.(j) r) ucols;
      List.iter (fun i -> Hashtbl.remove row_set.(i) c) lrows;
      (* Re-evaluate the columns the pivot changed: those that lost row
         r or took fill, and every column holding a row whose count
         moved. *)
      let touch j =
        if (not partial) && touched.(j) <> k then begin
          touched.(j) <- k;
          reevaluate j
        end
      in
      List.iter touch ucols;
      List.iter (fun i -> Hashtbl.iter (fun j () -> touch j) row_set.(i)) lrows
    done;
    let rowpos = Array.make n 0 and colpos = Array.make n 0 in
    for k = 0 to n - 1 do
      rowpos.(roworder.(k)) <- k;
      colpos.(colorder.(k)) <- k
    done;
    (* L column k: eliminated rows in permuted coordinates, ascending. *)
    let l_cols =
      Array.map (fun rows -> List.map (fun i -> rowpos.(i)) rows |> List.sort compare) lcols
    in
    (* U is recorded by pivot row; regroup per permuted column. *)
    let u_cols = Array.make n [] in
    for k = n - 1 downto 0 do
      List.iter (fun j -> u_cols.(colpos.(j)) <- k :: u_cols.(colpos.(j))) urows.(k)
    done;
    let u_cols = Array.map (List.sort compare) u_cols in
    let compress cols =
      let colptr = Array.make (n + 1) 0 in
      Array.iteri (fun j l -> colptr.(j + 1) <- colptr.(j) + List.length l) cols;
      let rowind = Array.make colptr.(n) 0 in
      Array.iteri
        (fun j l -> List.iteri (fun o i -> rowind.(colptr.(j) + o) <- i) l)
        cols;
      (colptr, rowind)
    in
    let l_colptr, l_rowind = compress l_cols in
    let u_colptr, u_rowind = compress u_cols in
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
let analyze p ~re ~im =
  check_values p re im;
  try analyze_with ~partial:false p ~re ~im
  with Cmat.Singular -> analyze_with ~partial:true p ~re ~im

(* ---- numeric refactorization ---- *)

type numeric = {
  sym : symbolic;
  lre : plane;  (* aligned with sym.l_rowind *)
  lim : plane;
  ure : plane;  (* aligned with sym.u_rowind *)
  uim : plane;
  dre : plane;  (* U diagonal, length n *)
  dim_ : plane;
  wre : plane;  (* scatter workspace, length n, zero between columns *)
  wim : plane;
}

(* The eight planes live in one caller plane, in the order of the
   record: L's and U's values, the diagonal, then the scatter
   workspace, which {!refactor} needs zero between columns. *)
let numeric sym ~store =
  let nl = Array.length sym.l_rowind and nu = Array.length sym.u_rowind and n = sym.pat.n in
  let len = (2 * nl) + (2 * nu) + (4 * n) in
  let p = store len in
  if Array1.dim p < len then invalid_arg "Csparse.numeric: store shorter than the factors";
  let off = ref 0 in
  let next k =
    let v = Array1.sub p !off k in
    off := !off + k;
    v
  in
  let lre = next nl in
  let lim = next nl in
  let ure = next nu in
  let uim = next nu in
  let dre = next n in
  let dim_ = next n in
  let wre = next n in
  let wim = next n in
  Array1.fill wre 0.0;
  Array1.fill wim 0.0;
  { sym; lre; lim; ure; uim; dre; dim_; wre; wim }

(* Left-looking refactorization over the static filled pattern. The
   workspace planes are owned by the [numeric] value, so refactoring is
   single-writer — concurrent {!solve_into}/{!solve_block_into} readers
   are only safe once this returns (the engine factors per frequency at
   construction time, before any parallel phase). *)
let refactor num ~re ~im =
  let s = num.sym in
  let p = s.pat in
  check_values p re im;
  let n = p.n in
  let scale_norm = ref 0.0 in
  for k = 0 to p.nnz - 1 do
    let m = Cmat.norm2 (Array1.unsafe_get re k) (Array1.unsafe_get im k) in
    if m > !scale_norm then scale_norm := m
  done;
  let tiny = tiny_of ~n ~scale_norm:!scale_norm in
  let wre = num.wre and wim = num.wim in
  let lre = num.lre and lim = num.lim in
  let ure = num.ure and uim = num.uim in
  for j = 0 to n - 1 do
    let c = s.colorder.(j) in
    (* scatter A's column c into permuted positions *)
    for k = p.colptr.(c) to p.colptr.(c + 1) - 1 do
      let pi = Array.unsafe_get s.rowpos (Array.unsafe_get p.rowind k) in
      Array1.unsafe_set wre pi (Array1.unsafe_get re k);
      Array1.unsafe_set wim pi (Array1.unsafe_get im k)
    done;
    (* eliminate with the already-computed columns k < j *)
    for uix = s.u_colptr.(j) to s.u_colptr.(j + 1) - 1 do
      let k = Array.unsafe_get s.u_rowind uix in
      let uk_re = Array1.unsafe_get wre k and uk_im = Array1.unsafe_get wim k in
      Array1.unsafe_set ure uix uk_re;
      Array1.unsafe_set uim uix uk_im;
      if uk_re <> 0.0 || uk_im <> 0.0 then
        for lix = s.l_colptr.(k) to s.l_colptr.(k + 1) - 1 do
          let i = Array.unsafe_get s.l_rowind lix in
          let l_re = Array1.unsafe_get lre lix and l_im = Array1.unsafe_get lim lix in
          Array1.unsafe_set wre i
            (Array1.unsafe_get wre i -. ((l_re *. uk_re) -. (l_im *. uk_im)));
          Array1.unsafe_set wim i
            (Array1.unsafe_get wim i -. ((l_re *. uk_im) +. (l_im *. uk_re)))
        done
    done;
    let p_re = Array1.unsafe_get wre j and p_im = Array1.unsafe_get wim j in
    let clear () =
      for uix = s.u_colptr.(j) to s.u_colptr.(j + 1) - 1 do
        let k = Array.unsafe_get s.u_rowind uix in
        Array1.unsafe_set wre k 0.0;
        Array1.unsafe_set wim k 0.0
      done;
      Array1.unsafe_set wre j 0.0;
      Array1.unsafe_set wim j 0.0;
      for lix = s.l_colptr.(j) to s.l_colptr.(j + 1) - 1 do
        let i = Array.unsafe_get s.l_rowind lix in
        Array1.unsafe_set wre i 0.0;
        Array1.unsafe_set wim i 0.0
      done
    in
    if Cmat.norm2 p_re p_im <= tiny then begin
      (* leave the workspace clean for the next refactor attempt *)
      clear ();
      raise Cmat.Singular
    end;
    Array1.unsafe_set num.dre j p_re;
    Array1.unsafe_set num.dim_ j p_im;
    for lix = s.l_colptr.(j) to s.l_colptr.(j + 1) - 1 do
      let i = Array.unsafe_get s.l_rowind lix in
      let a_re = Array1.unsafe_get wre i and a_im = Array1.unsafe_get wim i in
      if Float.abs p_re >= Float.abs p_im then begin
        let r = p_im /. p_re in
        let d = p_re +. (r *. p_im) in
        Array1.unsafe_set lre lix ((a_re +. (r *. a_im)) /. d);
        Array1.unsafe_set lim lix ((a_im -. (r *. a_re)) /. d)
      end
      else begin
        let r = p_re /. p_im in
        let d = p_im +. (r *. p_re) in
        Array1.unsafe_set lre lix (((r *. a_re) +. a_im) /. d);
        Array1.unsafe_set lim lix (((r *. a_im) -. a_re) /. d)
      end
    done;
    clear ()
  done

(* ‖|L̂||Û|‖∞ of the last refactorization, |z| = |re| + |im|, in
   O(nnz(L + U)): |Û|·1 first (each row's diagonal plus its strictly
   upper entries), then |L̂|·(|Û|·1) with L̂'s implicit unit diagonal.
   Permuted coordinates, which no row-sum norm can tell apart from the
   original ones. [nan] once a row sum is. *)
let lu_abs_norm_inf num =
  let s = num.sym in
  let n = s.pat.n in
  let[@inline always] mag (re : plane) (im : plane) k =
    Float.abs (Array1.unsafe_get re k) +. Float.abs (Array1.unsafe_get im k)
  in
  let u_rows = Array.init n (fun i -> mag num.dre num.dim_ i) in
  for j = 0 to n - 1 do
    for uix = s.u_colptr.(j) to s.u_colptr.(j + 1) - 1 do
      let i = Array.unsafe_get s.u_rowind uix in
      Array.unsafe_set u_rows i (Array.unsafe_get u_rows i +. mag num.ure num.uim uix)
    done
  done;
  let rows = Array.copy u_rows in
  for k = 0 to n - 1 do
    let uk = Array.unsafe_get u_rows k in
    for lix = s.l_colptr.(k) to s.l_colptr.(k + 1) - 1 do
      let i = Array.unsafe_get s.l_rowind lix in
      Array.unsafe_set rows i (Array.unsafe_get rows i +. (mag num.lre num.lim lix *. uk))
    done
  done;
  max_row rows

(* ---- triangular solves ----

   Shared factors are read-only here, so concurrent solves from several
   domains are safe; the permuted intermediate lives in per-domain
   scratch (DLS), mirroring the engine-wide scratch discipline. Its
   planes only grow: a solve reads its first n entries. *)

type solve_scratch = { mutable len : int; mutable yre : plane; mutable yim : plane }

let solve_key =
  Domain.DLS.new_key (fun () -> { len = 0; yre = plane 0; yim = plane 0 })

let solve_scratch_for n =
  let s = Domain.DLS.get solve_key in
  if s.len < n then begin
    s.len <- n;
    s.yre <- plane n;
    s.yim <- plane n
  end;
  s

(* Forward/back substitution in permuted coordinates, column-oriented:
   processing columns in order finalizes y.(k) before it is used. [k]
   is the number of interleaved right-hand sides (stride). *)
let substitute_stride s ~(lre : plane) ~(lim : plane) ~(ure : plane) ~(uim : plane)
    ~(dre : plane) ~(dim_ : plane) (yre : plane) (yim : plane) ~k =
  let n = s.pat.n in
  (* L y = Pb, unit diagonal *)
  for kk = 0 to n - 1 do
    let rk = kk * k in
    for lix = s.l_colptr.(kk) to s.l_colptr.(kk + 1) - 1 do
      let i = Array.unsafe_get s.l_rowind lix in
      let l_re = Array1.unsafe_get lre lix and l_im = Array1.unsafe_get lim lix in
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
    let p_re = Array1.unsafe_get dre j and p_im = Array1.unsafe_get dim_ j in
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
      let u_re = Array1.unsafe_get ure uix and u_im = Array1.unsafe_get uim uix in
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
  if Bvec.length b <> n || Bvec.length x <> n then
    invalid_arg "Csparse.solve_into: dimension mismatch";
  let sc = solve_scratch_for n in
  let yre = sc.yre and yim = sc.yim in
  for kk = 0 to n - 1 do
    let p = Array.unsafe_get s.roworder kk in
    Array1.unsafe_set yre kk (Array1.unsafe_get b.Bvec.re p);
    Array1.unsafe_set yim kk (Array1.unsafe_get b.Bvec.im p)
  done;
  substitute_stride s ~lre:num.lre ~lim:num.lim ~ure:num.ure ~uim:num.uim ~dre:num.dre
    ~dim_:num.dim_ yre yim ~k:1;
  for j = 0 to n - 1 do
    let c = Array.unsafe_get s.colorder j in
    Array1.unsafe_set x.Bvec.re c (Array1.unsafe_get yre j);
    Array1.unsafe_set x.Bvec.im c (Array1.unsafe_get yim j)
  done

(* Aᵀ x = b through the same factors: with P·A·Q = L·U,
   Aᵀ = Q·Uᵀ·Lᵀ·P, so Uᵀ w = Qᵀ b runs forward and Lᵀ z = w backward,
   each reading one stored column per step as a dot product, and
   x = Pᵀ z. Off the hot paths: boxed arithmetic, O(fill). *)
let solve_transpose_into num ~(b : Bvec.t) ~(x : Bvec.t) =
  let s = num.sym in
  let n = s.pat.n in
  if Bvec.length b <> n || Bvec.length x <> n then
    invalid_arg "Csparse.solve_transpose_into: dimension mismatch";
  let entry (re : plane) (im : plane) k =
    { Complex.re = Array1.get re k; im = Array1.get im k }
  in
  let w = Array.init n (fun j -> Bvec.get b s.colorder.(j)) in
  for j = 0 to n - 1 do
    let acc = ref w.(j) in
    for uix = s.u_colptr.(j) to s.u_colptr.(j + 1) - 1 do
      acc := Complex.sub !acc (Complex.mul (entry num.ure num.uim uix) w.(s.u_rowind.(uix)))
    done;
    w.(j) <- Complex.div !acc (entry num.dre num.dim_ j)
  done;
  for kk = n - 1 downto 0 do
    let acc = ref w.(kk) in
    for lix = s.l_colptr.(kk) to s.l_colptr.(kk + 1) - 1 do
      acc := Complex.sub !acc (Complex.mul (entry num.lre num.lim lix) w.(s.l_rowind.(lix)))
    done;
    w.(kk) <- !acc
  done;
  Array.iteri (fun k z -> Bvec.set x s.roworder.(k) z) w

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
    substitute_stride s ~lre:num.lre ~lim:num.lim ~ure:num.ure ~uim:num.uim
      ~dre:num.dre ~dim_:num.dim_ yre yim ~k;
    for j = 0 to n - 1 do
      let c = Array.unsafe_get s.colorder j in
      let rj = j * k and rc = c * k in
      for r = 0 to k - 1 do
        Array1.unsafe_set xre (rc + r) (Array1.unsafe_get yre (rj + r));
        Array1.unsafe_set xim (rc + r) (Array1.unsafe_get yim (rj + r))
      done
    done
  end
