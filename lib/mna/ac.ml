module Netlist = Circuit.Netlist
module Cmat = Linalg.Cmat
module Csparse = Linalg.Csparse
exception Singular_circuit of string

type solution = { index : Index.t; x : Complex.t array }

(* A(jω) and b(jω) of the stamp run into a dense matrix and vector,
   through the caller's value plane. *)
let fill_dense stamps ~omega vals m b =
  Stamps.fill_sparse stamps ~omega vals;
  Csparse.dense_into (Stamps.sparse_pattern stamps) vals m;
  Stamps.sparse_rhs_into stamps ~omega b

let plane_of stamps = Csparse.plane (2 * Stamps.sparse_nnz stamps)

let solve ?(sources = Assemble.Nominal) netlist ~omega =
  let stamps = Stamps.build_sparse ~sources netlist in
  let index = Stamps.sparse_index stamps in
  let n = Index.size index in
  let m = Cmat.create n n and b = Cmat.Vec.create n and x = Cmat.Vec.create n in
  fill_dense stamps ~omega (plane_of stamps) m b;
  match
    Obs.Metrics.time "mna.solve_s" (fun () -> Cmat.lu_solve_into (Cmat.lu_factor m) ~b ~x)
  with
  | () -> { index; x = Cmat.Vec.to_complex x }
  | exception Cmat.Singular ->
      raise
        (Singular_circuit
           (Printf.sprintf "MNA matrix singular at omega = %g rad/s for %S" omega
              (Netlist.title netlist)))

let voltage sol n =
  match Index.node sol.index n with
  | None -> Complex.zero
  | Some i -> sol.x.(i)

let current sol name = sol.x.(Index.branch sol.index name)

let transfer ~source ~output netlist ~omega =
  let sol = solve ~sources:(Assemble.Only source) netlist ~omega in
  voltage sol output

let sweep ~source ~output netlist ~freqs_hz =
  (* The stamp run is frequency-independent; build it once per sweep,
     form A(jω) per point with one pass into a reused value plane,
     densify it into a reused off-heap buffer and factorize into a
     reused LU workspace — the per-point cost is the factorization
     alone, with zero GC-visible allocation per point. *)
  Obs.Trace.span "mna.sweep" @@ fun () ->
  let stamps = Stamps.build_sparse ~sources:(Assemble.Only source) netlist in
  let index = Stamps.sparse_index stamps in
  let n = Index.size index in
  let vals = plane_of stamps and buf = Cmat.create n n in
  let b = Cmat.Vec.create n and x = Cmat.Vec.create n in
  let ws = Cmat.lu_create n in
  let out = Index.node index output in
  Array.map
    (fun f ->
      let omega = 2.0 *. Float.pi *. f in
      fill_dense stamps ~omega vals buf b;
      match
        Obs.Metrics.time "mna.solve_s" (fun () ->
            Cmat.lu_factor_into ws buf;
            Cmat.lu_solve_into ws ~b ~x)
      with
      | () -> ( match out with None -> Complex.zero | Some i -> Cmat.Vec.get x i)
      | exception Cmat.Singular ->
          raise
            (Singular_circuit
               (Printf.sprintf "MNA matrix singular at f = %g Hz for %S" f
                  (Netlist.title netlist))))
    freqs_hz

let magnitude_db z =
  let m = Complex.norm z in
  if m = 0.0 then neg_infinity else 20.0 *. log10 m
