module Netlist = Circuit.Netlist
module Element = Circuit.Element

type t = {
  element : string;
  d_transfer : Complex.t;
  normalized : Complex.t;
  rel_magnitude : float;
}

module Cmat = Linalg.Cmat

(* Reusable per-sweep off-heap workspace: one A(jω) buffer, its
   transpose for the adjoint system, and one LU factor — so a
   frequency sweep re-assembles and re-factorizes without allocating
   per point. *)
type ws = { wa : Cmat.t; wat : Cmat.t; wlu : Cmat.lu; wb : Cmat.Vec.t; wx : Cmat.Vec.t }

let make_ws n =
  { wa = Cmat.create n n; wat = Cmat.create n n;
    wlu = Cmat.lu_create n; wb = Cmat.Vec.create n; wx = Cmat.Vec.create n }

let transpose_into ~src ~dst n =
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Cmat.set dst j i (Cmat.get src i j)
    done
  done

(* dV_out/dp = -xi^T (dA/dp) x  with  A^T xi = e_out.  The stamp
   derivative of a two-terminal admittance y(p) between n1 and n2
   contracts to  (xi_n1 - xi_n2)(x_n1 - x_n2) * dy/dp, so each element
   needs only its own terminal values of x and xi. Assembly goes
   through the frequency-split Stamps planes (built once per netlist
   by the caller) instead of re-running the stamping functor at every
   frequency. *)
let analyze ws index stamps ~output netlist ~omega =
  let n = Index.size index in
  Stamps.fill stamps ~omega ws.wa;
  Stamps.rhs_into stamps ~omega ws.wb;
  let x =
    match
      Cmat.lu_factor_into ws.wlu ws.wa;
      Cmat.lu_solve_into ws.wlu ~b:ws.wb ~x:ws.wx
    with
    | () -> Cmat.Vec.to_complex ws.wx
    | exception Cmat.Singular ->
        raise (Ac.Singular_circuit "Sensitivity.at_omega: singular system")
  in
  let out_idx =
    match Index.node index output with
    | Some i -> i
    | None -> invalid_arg "Sensitivity.at_omega: output node is ground"
  in
  transpose_into ~src:ws.wa ~dst:ws.wat n;
  Cmat.Vec.fill_zero ws.wb;
  Cmat.Vec.set ws.wb out_idx Complex.one;
  let xi =
    match
      Cmat.lu_factor_into ws.wlu ws.wat;
      Cmat.lu_solve_into ws.wlu ~b:ws.wb ~x:ws.wx
    with
    | () -> Cmat.Vec.to_complex ws.wx
    | exception Cmat.Singular ->
        raise (Ac.Singular_circuit "Sensitivity.at_omega: singular adjoint system")
  in
  let value_at n =
    match Index.node index n with None -> Complex.zero | Some i -> x.(i)
  in
  let adjoint_at n =
    match Index.node index n with None -> Complex.zero | Some i -> xi.(i)
  in
  let s = Complex.{ re = 0.0; im = omega } in
  let transfer = x.(out_idx) in
  let pattern n1 n2 =
    Complex.mul
      (Complex.sub (adjoint_at n1) (adjoint_at n2))
      (Complex.sub (value_at n1) (value_at n2))
  in
  let sensitivity e =
    match e with
    | Element.Resistor { name; n1; n2; value } ->
        (* y = 1/R, dy/dR = -1/R^2; dV/dR = -pattern * dy/dR *)
        let d = Complex.div (pattern n1 n2) { Complex.re = value *. value; im = 0.0 } in
        Some (name, value, d)
    | Element.Capacitor { name; n1; n2; value } ->
        (* y = s C, dy/dC = s; dV/dC = -pattern * s *)
        let d = Complex.neg (Complex.mul s (pattern n1 n2)) in
        Some (name, value, d)
    | Element.Inductor { name; value; _ } ->
        (* branch equation entry -sL at (b,b): dV/dL = s xi_b x_b *)
        let b = Index.branch index name in
        let d = Complex.mul s (Complex.mul xi.(b) x.(b)) in
        Some (name, value, d)
    | Element.Vsource _ | Element.Isource _ | Element.Vcvs _ | Element.Vccs _
    | Element.Ccvs _ | Element.Cccs _ | Element.Opamp _ -> None
  in
  List.filter_map
    (fun e ->
      Option.map
        (fun (element, value, d_transfer) ->
          let normalized =
            if Complex.norm transfer = 0.0 then Complex.zero
            else
              Complex.div
                (Complex.mul { Complex.re = value; im = 0.0 } d_transfer)
                transfer
          in
          { element; d_transfer; normalized; rel_magnitude = normalized.Complex.re })
        (sensitivity e))
    (Netlist.elements netlist)

let at_omega ~source ~output netlist ~omega =
  let index = Index.build netlist in
  let stamps = Stamps.build ~sources:(Assemble.Only source) index netlist in
  analyze (make_ws (Index.size index)) index stamps ~output netlist ~omega

let magnitude_sweep ~source ~output netlist ~freqs_hz =
  (* One index + stamp build — and one off-heap workspace — for the
     whole sweep. *)
  let index = Index.build netlist in
  let stamps = Stamps.build ~sources:(Assemble.Only source) index netlist in
  let ws = make_ws (Index.size index) in
  let per_freq =
    Array.map
      (fun f -> analyze ws index stamps ~output netlist ~omega:(2.0 *. Float.pi *. f))
      freqs_hz
  in
  match Array.length per_freq with
  | 0 -> []
  | _ ->
      List.mapi
        (fun k (first : t) ->
          ( first.element,
            Array.map (fun results -> Complex.norm (List.nth results k).normalized) per_freq ))
        per_freq.(0)
