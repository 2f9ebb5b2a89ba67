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

(* b(jω) from its split planes; shared by the dense and sparse builds. *)
let write_rhs ~what ~g ~c ~extra ~omega (b : Cmat.Vec.t) =
  let n = Array.length g in
  if Cmat.Vec.length b <> n then invalid_arg (what ^ ": dimension mismatch");
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set b.Cmat.Vec.re i g.(i);
    Bigarray.Array1.unsafe_set b.Cmat.Vec.im i (omega *. c.(i))
  done;
  List.iter (fun (i, p) -> Cmat.Vec.set b i (eval_at p omega)) extra

let rhs_into t ~omega b =
  write_rhs ~what:"Stamps.rhs_into" ~g:t.rhs_g ~c:t.rhs_c ~extra:t.rhs_extra ~omega b

(* ---- sparse stamps ----

   The same one-pass polynomial assembly, accumulated per stamped
   position instead of into an n² plane: the callback layer of
   {!Assemble.Make} delivers stamps in element order, so each stored
   entry holds the identical polynomial sum the dense build computes —
   the sparse and dense A(jω) agree entry-for-entry (zeros elsewhere).
   Splitting then mirrors {!build}: s⁰ → [sg], s¹ → [sc], anything
   higher kept exactly in a per-slot overflow list. *)

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

let build_sparse ?(sources = Assemble.Nominal) index netlist =
  Obs.Metrics.time "mna.assemble_s" @@ fun () ->
  let module A = Assemble.Make (Field.Polynomial) in
  let n = Index.size index in
  let tbl : (int, Poly.t) Hashtbl.t = Hashtbl.create 64 in
  let rhs = Array.make n Poly.zero in
  let add_m i j v =
    match (i, j) with
    | Some i, Some j ->
        let key = (i * n) + j in
        let prev = Option.value (Hashtbl.find_opt tbl key) ~default:Poly.zero in
        Hashtbl.replace tbl key (Poly.add prev v)
    | _ -> ()
  in
  let add_b i v =
    match i with Some i -> rhs.(i) <- Poly.add rhs.(i) v | None -> ()
  in
  A.stamp_into ~sources ~add_m ~add_b index netlist;
  let entries =
    Hashtbl.fold (fun key _ acc -> (key / n, key mod n) :: acc) tbl []
    |> Array.of_list
  in
  let pattern = Csparse.pattern ~n entries in
  let nnz = Csparse.nnz pattern in
  let sg = Array.make nnz 0.0 and sc = Array.make nnz 0.0 and extra = ref [] in
  Hashtbl.iter
    (fun key p ->
      let k = Csparse.slot pattern ~row:(key / n) ~col:(key mod n) in
      split_into ~g:sg ~c:sc ~extra k p)
    tbl;
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

let fill_sparse t ~omega ~(re : Csparse.plane) ~(im : Csparse.plane) =
  if Bigarray.Array1.dim re <> Array.length t.sg || Bigarray.Array1.dim im <> Array.length t.sc
  then invalid_arg "Stamps.fill_sparse: value plane length mismatch";
  Obs.Metrics.incr "mna.fills";
  for k = 0 to Array.length t.sg - 1 do
    Bigarray.Array1.unsafe_set re k (Array.unsafe_get t.sg k);
    Bigarray.Array1.unsafe_set im k (omega *. Array.unsafe_get t.sc k)
  done;
  List.iter
    (fun (k, p) ->
      let z = eval_at p omega in
      Bigarray.Array1.set re k z.Complex.re;
      Bigarray.Array1.set im k z.Complex.im)
    t.s_extra

let sparse_rhs_into t ~omega b =
  write_rhs ~what:"Stamps.sparse_rhs_into" ~g:t.srhs_g ~c:t.srhs_c ~extra:t.srhs_extra
    ~omega b
