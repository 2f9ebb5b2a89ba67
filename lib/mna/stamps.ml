module Netlist = Circuit.Netlist
module Poly = Linalg.Poly
module Cmat = Linalg.Cmat

type t = {
  n : int;
  g : float array;  (* n*n row-major, s^0 coefficients *)
  c : float array;  (* n*n row-major, s^1 coefficients *)
  extra : (int * Poly.t) list;  (* flat index -> full polynomial, degree >= 2 *)
  rhs_g : float array;
  rhs_c : float array;
  rhs_extra : (int * Poly.t) list;
}

let split_into ~g ~c ~extra k p =
  g.(k) <- Poly.coeff p 0;
  c.(k) <- Poly.coeff p 1;
  if Poly.degree p > 1 then extra := (k, p) :: !extra

let build ?(sources = Assemble.Nominal) index netlist =
  Obs.Metrics.time "mna.assemble_s" @@ fun () ->
  let module A = Assemble.Make (Field.Polynomial) in
  let { A.matrix; rhs } = A.assemble ~sources index netlist in
  let n = Index.size index in
  let g = Array.make (n * n) 0.0
  and c = Array.make (n * n) 0.0
  and extra = ref [] in
  Array.iteri
    (fun i row -> Array.iteri (fun j p -> split_into ~g ~c ~extra ((i * n) + j) p) row)
    matrix;
  let rhs_g = Array.make n 0.0 and rhs_c = Array.make n 0.0 and rhs_extra = ref [] in
  Array.iteri (fun i p -> split_into ~g:rhs_g ~c:rhs_c ~extra:rhs_extra i p) rhs;
  { n; g; c; extra = !extra; rhs_g; rhs_c; rhs_extra = !rhs_extra }

let size t = t.n

let eval_at p omega = Poly.eval p Complex.{ re = 0.0; im = omega }

let fill t ~omega m =
  if Cmat.rows m <> t.n || Cmat.cols m <> t.n then
    invalid_arg "Stamps.fill: matrix dimension mismatch";
  Obs.Metrics.incr "mna.fills";
  Cmat.fill_parts m ~re:t.g ~im_scale:omega ~im:t.c;
  List.iter
    (fun (k, p) -> Cmat.set m (k / t.n) (k mod t.n) (eval_at p omega))
    t.extra

(* b(jω) from its split planes into the first n entries of [b];
   shared by the dense and sparse builds. *)
let write_rhs ~what ~g ~c ~extra ~omega (b : Cmat.Vec.t) =
  let n = Array.length g in
  if Cmat.Vec.length b < n then invalid_arg (what ^ ": vector shorter than the dimension");
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set b.Cmat.Vec.re i g.(i);
    Bigarray.Array1.unsafe_set b.Cmat.Vec.im i (omega *. c.(i))
  done;
  if extra <> [] then List.iter (fun (i, p) -> Cmat.Vec.set b i (eval_at p omega)) extra

let rhs_into t ~omega b =
  write_rhs ~what:"Stamps.rhs_into" ~g:t.rhs_g ~c:t.rhs_c ~extra:t.rhs_extra ~omega b

(* ---- sparse stamps ----

   The same one-pass assembly, kept per stamped position instead of in
   an n² plane. The callback layer of {!Assemble.Make} delivers stamps
   in element order; they are recorded as a flat run of (row, column,
   polynomial), {!Csparse.pattern_slots} gives each stamp its slot,
   and each slot's s⁰ and s¹ coefficients are summed in element order
   from 0.0: the arithmetic the dense build's polynomial sum does on
   them, so the sparse and dense A(jω) agree entry-for-entry (zeros
   elsewhere). Where a stamp is above degree 1 (no element model makes
   one), the slots take their whole polynomial sums, split as in
   {!build}, anything above s¹ kept exactly in a per-slot overflow
   list. The run also keeps the netlist's index, each slot's position
   and the rows each element stamps into, for {!signature}. *)

module Csparse = Linalg.Csparse

type sparse = {
  index : Index.t;
  sp_n : int;
  pattern : Csparse.pattern;
  slot_row : int array;  (* per pattern slot, its row *)
  slot_col : int array;  (* and its column *)
  sg : float array;  (* per pattern slot, s^0 coefficients *)
  sc : float array;  (* per pattern slot, s^1 coefficients *)
  s_extra : (int * Poly.t) list;  (* slot -> full polynomial, degree >= 2 *)
  srhs_g : float array;
  srhs_c : float array;
  srhs_extra : (int * Poly.t) list;
  elements : string array;  (* element names, in netlist order *)
  touch : int array;
      (* the rows element k stamps into, at touch_at.(k) to
         touch_at.(k + 1) - 1 *)
  touch_at : int array;
}

(* The matrix stamps of one assembly, in element order, and every row
   each element stamps into: matrix or excitation, ground columns
   included. Sized for six matrix stamps and seven rows per element,
   more than any element model makes, so they seldom grow. *)
type run = {
  mutable len : int;
  mutable row : int array;
  mutable col : int array;
  mutable polys : Poly.t array;
  mutable touched : int;
  mutable touch : int array;
}

let grow a len z =
  let b = Array.make (2 * Array.length a) z in
  Array.blit a 0 b 0 len;
  b

let record run i j p =
  if run.len = Array.length run.row then begin
    run.row <- grow run.row run.len 0;
    run.col <- grow run.col run.len 0;
    run.polys <- grow run.polys run.len Poly.zero
  end;
  run.row.(run.len) <- i;
  run.col.(run.len) <- j;
  run.polys.(run.len) <- p;
  run.len <- run.len + 1

let touch run i =
  if run.touched = Array.length run.touch then run.touch <- grow run.touch run.touched 0;
  run.touch.(run.touched) <- i;
  run.touched <- run.touched + 1

let build_sparse ?(sources = Assemble.Nominal) netlist =
  Obs.Metrics.time "mna.assemble_s" @@ fun () ->
  let module A = Assemble.Make (Field.Polynomial) in
  let index = Index.build netlist in
  let n = Index.size index in
  let elements = Array.of_list (Netlist.elements netlist) in
  let m = Array.length elements in
  let run =
    {
      len = 0;
      row = Array.make ((6 * m) + 1) 0;
      col = Array.make ((6 * m) + 1) 0;
      polys = Array.make ((6 * m) + 1) Poly.zero;
      touched = 0;
      touch = Array.make ((7 * m) + 1) 0;
    }
  in
  let rhs = Array.make n Poly.zero in
  let add_m i j v =
    match i with
    | None -> ()
    | Some i -> (
        touch run i;
        match j with Some j -> record run i j v | None -> ())
  in
  let add_b i v =
    match i with
    | Some i ->
        touch run i;
        rhs.(i) <- Poly.add rhs.(i) v
    | None -> ()
  in
  let touch_at = Array.make (m + 1) 0 in
  Array.iteri
    (fun k e ->
      touch_at.(k) <- run.touched;
      A.stamp_element ~sources ~add_m ~add_b index e)
    elements;
  touch_at.(m) <- run.touched;
  let len = run.len and polys = run.polys in
  let row = Array.sub run.row 0 len and col = Array.sub run.col 0 len in
  let pattern, slot = Csparse.pattern_slots ~n ~row ~col in
  let nnz = Csparse.nnz pattern in
  (* each slot's position and coefficients, summed in element order
     from 0.0 *)
  let slot_row = Array.make nnz 0 and slot_col = Array.make nnz 0 in
  let sg = Array.make nnz 0.0 and sc = Array.make nnz 0.0 and extra = ref [] in
  for e = 0 to len - 1 do
    let k = slot.(e) in
    slot_row.(k) <- row.(e);
    slot_col.(k) <- col.(e);
    sg.(k) <- sg.(k) +. Poly.coeff polys.(e) 0;
    sc.(k) <- sc.(k) +. Poly.coeff polys.(e) 1
  done;
  (* A stamp above degree 1: every slot's whole polynomial sum, split
     as {!build} splits (same s⁰ and s¹ bits, the rest kept). *)
  let above = ref false in
  for e = 0 to len - 1 do
    if Poly.degree polys.(e) > 1 then above := true
  done;
  if !above then begin
    let sums = Array.make nnz Poly.zero in
    for e = 0 to len - 1 do
      sums.(slot.(e)) <- Poly.add sums.(slot.(e)) polys.(e)
    done;
    Array.iteri (split_into ~g:sg ~c:sc ~extra) sums
  end;
  let srhs_g = Array.make n 0.0 and srhs_c = Array.make n 0.0 and srhs_extra = ref [] in
  Array.iteri (fun i p -> split_into ~g:srhs_g ~c:srhs_c ~extra:srhs_extra i p) rhs;
  {
    index;
    sp_n = n;
    pattern;
    slot_row;
    slot_col;
    sg;
    sc;
    s_extra = !extra;
    srhs_g;
    srhs_c;
    srhs_extra = !srhs_extra;
    elements = Array.map Circuit.Element.name elements;
    touch = Array.sub run.touch 0 run.touched;
    touch_at;
  }

let sparse_index t = t.index

(* ---- the value-exact signature ----

   Row flips are canonicalized because emulation produces them: an
   ideal opamp's test-mode nullor row [v(inp) − v(out) = 0] is the
   exact negation of the follower Vcvs row [v(out) − v(cpos) = 0] when
   they connect the same nodes. Scaling row i of both A and b by
   σᵢ = ±1 leaves x bitwise-identical under IEEE arithmetic (negation
   is exact, and the LU pivot choice sees identical magnitudes).

   The canonicalization must not cross fault injection: a
   Sherman–Morrison update α·uvᵀ added to a σ-flipped row would no
   longer commute with the flip. Every row a locked element stamps
   into keeps σ = +1 and is marked, so faulty responses coincide too,
   for rank-1 updates and for structural re-assemblies alike.

   The bytes are those of a dense n×n scan of the polynomial system:
   each slot's coefficients are the element-order sums from zero of
   its stamps, rows are walked in order and each row's slots by
   ascending column, and a slot or excitation entry whose sum is zero
   is left out. *)
(* A slot's (or an excitation row's) coefficients: [g] and [c] for s⁰
   and s¹, and [p], the whole sum where a stamp is above s¹ (else
   zero), for the rest. Small enough to inline, so no float is boxed. *)
let[@inline] nonzero g c p = g <> 0.0 || c <> 0.0 || not (Poly.is_zero p)

let rec lowest_above p d =
  if d > Poly.degree p then 0.0
  else
    let c = Poly.coeff p d in
    if c <> 0.0 then c else lowest_above p (d + 1)

let[@inline] lowest_nonzero g c p =
  if g <> 0.0 then g else if c <> 0.0 then c else lowest_above p 2

(* 'C', the power and the bits of σ·c, for a nonzero c. *)
let[@inline] add_coeff buf sigma d c =
  if c <> 0.0 then begin
    Buffer.add_char buf 'C';
    Buffer.add_int32_le buf (Int32.of_int d);
    Buffer.add_int64_le buf (Int64.bits_of_float (sigma *. c))
  end

let add_above buf sigma p =
  for d = 2 to Poly.degree p do
    add_coeff buf sigma d (Poly.coeff p d)
  done

let[@inline] add_coeffs buf sigma g c p =
  add_coeff buf sigma 0 g;
  add_coeff buf sigma 1 c;
  if Poly.degree p >= 2 then add_above buf sigma p

let signature t ~locked =
  let n = t.sp_n and nnz = Array.length t.sg in
  let lock = Array.make n false in
  Array.iteri
    (fun k name ->
      if locked name then
        for p = t.touch_at.(k) to t.touch_at.(k + 1) - 1 do
          lock.(t.touch.(p)) <- true
        done)
    t.elements;
  (* the slots by row; each row's by ascending column, as a CSC slot
     order sorted stably by row leaves them *)
  let row_at = Array.make (n + 1) 0 in
  Array.iter (fun i -> row_at.(i + 1) <- row_at.(i + 1) + 1) t.slot_row;
  for i = 1 to n do
    row_at.(i) <- row_at.(i) + row_at.(i - 1)
  done;
  let by_row = Array.make nnz 0 and next = Array.sub row_at 0 n in
  for k = 0 to nnz - 1 do
    let i = t.slot_row.(k) in
    by_row.(next.(i)) <- k;
    next.(i) <- next.(i) + 1
  done;
  (* coefficients above s¹, where a stamp has any *)
  let higher extra len =
    if extra = [] then [||]
    else begin
      let a = Array.make len Poly.zero in
      List.iter (fun (k, p) -> a.(k) <- p) extra;
      a
    end
  in
  let high = higher t.s_extra nnz and rhs_high = higher t.srhs_extra n in
  let above high k = if Array.length high = 0 then Poly.zero else high.(k) in
  (* Binary tokens, each a tag byte and a fixed-width payload, so the
     encoding decodes one way and equal strings mean equal systems:
     'R'/'L' opens row i (locked or not; i is the count of rows
     opened), 'E' j an entry in column j, 'B' the excitation entry, and
     'C' d bits one nonzero coefficient of s^d. An unlocked row is
     negated when its first nonzero coefficient (by column, then
     power, the excitation last) is negative. *)
  let buf = Buffer.create (32 * n) in
  for i = 0 to n - 1 do
    let sigma =
      if lock.(i) then 1.0
      else begin
        let first = ref 0.0 and r = ref row_at.(i) in
        while !first = 0.0 && !r < row_at.(i + 1) do
          let k = by_row.(!r) in
          first := lowest_nonzero t.sg.(k) t.sc.(k) (above high k);
          incr r
        done;
        if !first = 0.0 then
          first := lowest_nonzero t.srhs_g.(i) t.srhs_c.(i) (above rhs_high i);
        if !first < 0.0 then -1.0 else 1.0
      end
    in
    Buffer.add_char buf (if lock.(i) then 'L' else 'R');
    for r = row_at.(i) to row_at.(i + 1) - 1 do
      let k = by_row.(r) in
      let g = t.sg.(k) and c = t.sc.(k) and p = above high k in
      if nonzero g c p then begin
        Buffer.add_char buf 'E';
        Buffer.add_int32_le buf (Int32.of_int t.slot_col.(k));
        add_coeffs buf sigma g c p
      end
    done;
    let g = t.srhs_g.(i) and c = t.srhs_c.(i) and p = above rhs_high i in
    if nonzero g c p then begin
      Buffer.add_char buf 'B';
      add_coeffs buf sigma g c p
    end
  done;
  Buffer.contents buf

let sparse_pattern t = t.pattern
let sparse_nnz t = Csparse.nnz t.pattern

(* Out of line, so that {!fill_sparse} holds no call through another
   module's closure: one count per fill. *)
let[@inline never] count_fill () = Obs.Metrics.incr "mna.fills"

let[@inline never] fill_extra t ~omega (vals : Csparse.plane) =
  let nnz = Array.length t.sg in
  List.iter
    (fun (k, p) ->
      let z = eval_at p omega in
      Bigarray.Array1.set vals k z.Complex.re;
      Bigarray.Array1.set vals (nnz + k) z.Complex.im)
    t.s_extra

let fill_sparse t ~omega (vals : Csparse.plane) =
  let nnz = Array.length t.sg in
  if Bigarray.Array1.dim vals < 2 * nnz then
    invalid_arg "Stamps.fill_sparse: value plane shorter than the pattern";
  count_fill ();
  for k = 0 to nnz - 1 do
    Bigarray.Array1.unsafe_set vals k (Array.unsafe_get t.sg k);
    Bigarray.Array1.unsafe_set vals (nnz + k) (omega *. Array.unsafe_get t.sc k)
  done;
  if t.s_extra <> [] then fill_extra t ~omega vals

let sparse_rhs_into t ~omega b =
  write_rhs ~what:"Stamps.sparse_rhs_into" ~g:t.srhs_g ~c:t.srhs_c ~extra:t.srhs_extra
    ~omega b
