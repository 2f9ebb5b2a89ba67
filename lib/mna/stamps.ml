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
   list. *)

module Csparse = Linalg.Csparse

type sparse = {
  sp_n : int;
  pattern : Csparse.pattern;
  sg : float array;  (* per pattern slot, s^0 coefficients *)
  sc : float array;  (* per pattern slot, s^1 coefficients *)
  s_extra : (int * Poly.t) list;  (* slot -> full polynomial, degree >= 2 *)
  srhs_g : float array;
  srhs_c : float array;
  srhs_extra : (int * Poly.t) list;
}

(* The matrix stamps of one assembly, in element order. *)
type run = {
  mutable len : int;
  mutable row : int array;
  mutable col : int array;
  mutable polys : Poly.t array;
}

let record run i j p =
  if run.len = Array.length run.row then begin
    let grow a z =
      let b = Array.make (2 * Array.length a) z in
      Array.blit a 0 b 0 run.len;
      b
    in
    run.row <- grow run.row 0;
    run.col <- grow run.col 0;
    run.polys <- grow run.polys Poly.zero
  end;
  run.row.(run.len) <- i;
  run.col.(run.len) <- j;
  run.polys.(run.len) <- p;
  run.len <- run.len + 1

let build_sparse ?(sources = Assemble.Nominal) index netlist =
  Obs.Metrics.time "mna.assemble_s" @@ fun () ->
  let module A = Assemble.Make (Field.Polynomial) in
  let n = Index.size index in
  let run =
    { len = 0; row = Array.make 64 0; col = Array.make 64 0; polys = Array.make 64 Poly.zero }
  in
  let rhs = Array.make n Poly.zero in
  let add_m i j v = match (i, j) with Some i, Some j -> record run i j v | _ -> () in
  let add_b i v =
    match i with Some i -> rhs.(i) <- Poly.add rhs.(i) v | None -> ()
  in
  A.stamp_into ~sources ~add_m ~add_b index netlist;
  let m = run.len in
  let pattern, slot =
    Csparse.pattern_slots ~n ~row:(Array.sub run.row 0 m) ~col:(Array.sub run.col 0 m)
  in
  let nnz = Csparse.nnz pattern in
  (* each slot's coefficients, summed in element order from 0.0 *)
  let sg = Array.make nnz 0.0 and sc = Array.make nnz 0.0 and extra = ref [] in
  for e = 0 to m - 1 do
    let k = slot.(e) in
    sg.(k) <- sg.(k) +. Poly.coeff run.polys.(e) 0;
    sc.(k) <- sc.(k) +. Poly.coeff run.polys.(e) 1
  done;
  (* A stamp above degree 1: every slot's whole polynomial sum, split
     as {!build} splits (same s⁰ and s¹ bits, the rest kept). *)
  if Array.exists (fun p -> Poly.degree p > 1) (Array.sub run.polys 0 m) then begin
    let sums = Array.make nnz Poly.zero in
    for e = 0 to m - 1 do
      sums.(slot.(e)) <- Poly.add sums.(slot.(e)) run.polys.(e)
    done;
    Array.iteri (split_into ~g:sg ~c:sc ~extra) sums
  end;
  let srhs_g = Array.make n 0.0 and srhs_c = Array.make n 0.0 and srhs_extra = ref [] in
  Array.iteri (fun i p -> split_into ~g:srhs_g ~c:srhs_c ~extra:srhs_extra i p) rhs;
  {
    sp_n = n;
    pattern;
    sg;
    sc;
    s_extra = !extra;
    srhs_g;
    srhs_c;
    srhs_extra = !srhs_extra;
  }

let sparse_size t = t.sp_n
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
