module Netlist = Circuit.Netlist
module Cmat = Linalg.Cmat
exception Singular_circuit of string

type solution = { index : Index.t; x : Complex.t array }

let solve ?(sources = Assemble.Nominal) netlist ~omega =
  let index = Index.build netlist in
  let stamps = Stamps.build ~sources index netlist in
  let n = Stamps.size stamps in
  let m = Cmat.create n n and b = Cmat.Vec.create n and x = Cmat.Vec.create n in
  Stamps.fill stamps ~omega m;
  Stamps.rhs_into stamps ~omega b;
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
  (* The index and the split stamp planes are frequency-independent;
     build them once per sweep, form A(jω) per point with one fused
     pass into a reused off-heap buffer and factorize into a reused LU
     workspace — the per-point cost is the factorization alone, with
     zero GC-visible allocation per point. *)
  Obs.Trace.span "mna.sweep" @@ fun () ->
  let index = Index.build netlist in
  let stamps = Stamps.build ~sources:(Assemble.Only source) index netlist in
  let n = Stamps.size stamps in
  let buf = Cmat.create n n in
  let b = Cmat.Vec.create n and x = Cmat.Vec.create n in
  let ws = Cmat.lu_create n in
  let out = Index.node index output in
  Array.map
    (fun f ->
      let omega = 2.0 *. Float.pi *. f in
      Stamps.fill stamps ~omega buf;
      Stamps.rhs_into stamps ~omega b;
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
