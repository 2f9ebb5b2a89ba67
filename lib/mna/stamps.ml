module Netlist = Circuit.Netlist
module Cmat = Linalg.Cmat
module Csparse = Linalg.Csparse

(* ---- the stamp run ----

   {!Assemble.stamp_element} delivers stamps in element order as
   (row, column, s⁰, s¹); they are recorded as a flat run,
   {!Csparse.pattern_slots} gives each stamp its slot, and each slot's
   s⁰ and s¹ coefficients are summed in element order from 0.0. The
   run also keeps the netlist's index, each slot's position and the
   rows each element stamps into, for {!signature}. *)

type sparse = {
  index : Index.t;
  n : int;
  pattern : Csparse.pattern;
  slot_row : int array;  (* per pattern slot, its row *)
  slot_col : int array;  (* and its column *)
  sg : float array;  (* per pattern slot, s^0 coefficients *)
  sc : float array;  (* per pattern slot, s^1 coefficients *)
  rhs_g : float array;
  rhs_c : float array;
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
  mutable g : float array;
  mutable c : float array;
  mutable touched : int;
  mutable touch : int array;
}

let grow a len z =
  let b = Array.make (2 * Array.length a) z in
  Array.blit a 0 b 0 len;
  b

let record run i j g c =
  if run.len = Array.length run.row then begin
    run.row <- grow run.row run.len 0;
    run.col <- grow run.col run.len 0;
    run.g <- grow run.g run.len 0.0;
    run.c <- grow run.c run.len 0.0
  end;
  run.row.(run.len) <- i;
  run.col.(run.len) <- j;
  run.g.(run.len) <- g;
  run.c.(run.len) <- c;
  run.len <- run.len + 1

let touch run i =
  if run.touched = Array.length run.touch then run.touch <- grow run.touch run.touched 0;
  run.touch.(run.touched) <- i;
  run.touched <- run.touched + 1

let build_sparse ?(sources = Assemble.Nominal) netlist =
  Obs.Metrics.time "mna.assemble_s" @@ fun () ->
  let index = Index.build netlist in
  let n = Index.size index in
  let elements = Array.of_list (Netlist.elements netlist) in
  let m = Array.length elements in
  let run =
    {
      len = 0;
      row = Array.make ((6 * m) + 1) 0;
      col = Array.make ((6 * m) + 1) 0;
      g = Array.make ((6 * m) + 1) 0.0;
      c = Array.make ((6 * m) + 1) 0.0;
      touched = 0;
      touch = Array.make ((7 * m) + 1) 0;
    }
  in
  let rhs_g = Array.make n 0.0 and rhs_c = Array.make n 0.0 in
  let add_m i j g c =
    match i with
    | None -> ()
    | Some i -> (
        touch run i;
        match j with Some j -> record run i j g c | None -> ())
  in
  let add_b i g c =
    match i with
    | Some i ->
        touch run i;
        rhs_g.(i) <- rhs_g.(i) +. g;
        rhs_c.(i) <- rhs_c.(i) +. c
    | None -> ()
  in
  let touch_at = Array.make (m + 1) 0 in
  Array.iteri
    (fun k e ->
      touch_at.(k) <- run.touched;
      Assemble.stamp_element ~sources ~add_m ~add_b index e)
    elements;
  touch_at.(m) <- run.touched;
  let len = run.len in
  let row = Array.sub run.row 0 len and col = Array.sub run.col 0 len in
  let pattern, slot = Csparse.pattern_slots ~n ~row ~col in
  let nnz = Csparse.nnz pattern in
  (* each slot's position and coefficients, summed in element order
     from 0.0 *)
  let slot_row = Array.make nnz 0 and slot_col = Array.make nnz 0 in
  let sg = Array.make nnz 0.0 and sc = Array.make nnz 0.0 in
  for e = 0 to len - 1 do
    let k = slot.(e) in
    slot_row.(k) <- row.(e);
    slot_col.(k) <- col.(e);
    sg.(k) <- sg.(k) +. run.g.(e);
    sc.(k) <- sc.(k) +. run.c.(e)
  done;
  {
    index;
    n;
    pattern;
    slot_row;
    slot_col;
    sg;
    sc;
    rhs_g;
    rhs_c;
    elements = Array.map Circuit.Element.name elements;
    touch = Array.sub run.touch 0 run.touched;
    touch_at;
  }

let sparse_index t = t.index

let iter_slots t f =
  for k = 0 to Array.length t.sg - 1 do
    f t.slot_row.(k) t.slot_col.(k) t.sg.(k) t.sc.(k)
  done

let iter_rhs t f =
  for i = 0 to t.n - 1 do
    f i t.rhs_g.(i) t.rhs_c.(i)
  done

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

   The bytes are those of a dense n×n scan of the system: each slot's
   coefficients are the element-order sums from zero of its stamps,
   rows are walked in order and each row's slots by ascending column,
   and a slot or excitation entry whose sums are zero is left out. *)

(* 'C', the power and the bits of σ·c, for a nonzero c. Small enough
   to inline, so no float is boxed. *)
let[@inline] add_coeff buf sigma d c =
  if c <> 0.0 then begin
    Buffer.add_char buf 'C';
    Buffer.add_int32_le buf (Int32.of_int d);
    Buffer.add_int64_le buf (Int64.bits_of_float (sigma *. c))
  end

let signature t ~locked =
  let n = t.n and nnz = Array.length t.sg in
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
          first := if t.sg.(k) <> 0.0 then t.sg.(k) else t.sc.(k);
          incr r
        done;
        if !first = 0.0 then
          first := if t.rhs_g.(i) <> 0.0 then t.rhs_g.(i) else t.rhs_c.(i);
        if !first < 0.0 then -1.0 else 1.0
      end
    in
    Buffer.add_char buf (if lock.(i) then 'L' else 'R');
    for r = row_at.(i) to row_at.(i + 1) - 1 do
      let k = by_row.(r) in
      let g = t.sg.(k) and c = t.sc.(k) in
      if g <> 0.0 || c <> 0.0 then begin
        Buffer.add_char buf 'E';
        Buffer.add_int32_le buf (Int32.of_int t.slot_col.(k));
        add_coeff buf sigma 0 g;
        add_coeff buf sigma 1 c
      end
    done;
    let g = t.rhs_g.(i) and c = t.rhs_c.(i) in
    if g <> 0.0 || c <> 0.0 then begin
      Buffer.add_char buf 'B';
      add_coeff buf sigma 0 g;
      add_coeff buf sigma 1 c
    end
  done;
  Buffer.contents buf

let sparse_pattern t = t.pattern
let sparse_nnz t = Csparse.nnz t.pattern

(* Out of line, so that {!fill_sparse} holds no call through another
   module's closure: one count per fill. *)
let[@inline never] count_fill () = Obs.Metrics.incr "mna.fills"

let fill_sparse t ~omega (vals : Csparse.plane) =
  let nnz = Array.length t.sg in
  if Bigarray.Array1.dim vals < 2 * nnz then
    invalid_arg "Stamps.fill_sparse: value plane shorter than the pattern";
  count_fill ();
  for k = 0 to nnz - 1 do
    Bigarray.Array1.unsafe_set vals k (Array.unsafe_get t.sg k);
    Bigarray.Array1.unsafe_set vals (nnz + k) (omega *. Array.unsafe_get t.sc k)
  done

let sparse_rhs_into t ~omega (b : Cmat.Vec.t) =
  if Cmat.Vec.length b < t.n then
    invalid_arg "Stamps.sparse_rhs_into: vector shorter than the dimension";
  for i = 0 to t.n - 1 do
    Bigarray.Array1.unsafe_set b.Cmat.Vec.re i t.rhs_g.(i);
    Bigarray.Array1.unsafe_set b.Cmat.Vec.im i (omega *. t.rhs_c.(i))
  done
