module Netlist = Circuit.Netlist
module Element = Circuit.Element

type contribution = { element : string; psd : float }

let boltzmann = 1.380649e-23

module Cmat = Linalg.Cmat

(* Reusable per-sweep off-heap workspace: A(jω), its transpose for
   the adjoint solve, and one LU factor. *)
type ws = { wa : Cmat.t; wat : Cmat.t; wlu : Cmat.lu; wb : Cmat.Vec.t; wx : Cmat.Vec.t }

let make_ws n =
  { wa = Cmat.create n n; wat = Cmat.create n n;
    wlu = Cmat.lu_create n; wb = Cmat.Vec.create n; wx = Cmat.Vec.create n }

(* Assembly goes through the frequency-split Stamps planes so a
   frequency sweep builds the stamps once (see integrated_rms). *)
let analyze ws index stamps ?(temperature = 300.0) ~output netlist ~omega =
  let n = Index.size index in
  Stamps.fill stamps ~omega ws.wa;
  let out_idx =
    match Index.node index output with
    | Some i -> i
    | None -> invalid_arg "Noise.at_omega: output node is ground"
  in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Cmat.set ws.wat j i (Cmat.get ws.wa i j)
    done
  done;
  Cmat.Vec.fill_zero ws.wb;
  Cmat.Vec.set ws.wb out_idx Complex.one;
  let xi =
    match
      Cmat.lu_factor_into ws.wlu ws.wat;
      Cmat.lu_solve_into ws.wlu ~b:ws.wb ~x:ws.wx
    with
    | () -> Cmat.Vec.to_complex ws.wx
    | exception Cmat.Singular ->
        raise (Ac.Singular_circuit "Noise.at_omega: singular adjoint system")
  in
  let adjoint_at n =
    match Index.node index n with None -> Complex.zero | Some i -> xi.(i)
  in
  let contributions =
    List.filter_map
      (fun e ->
        match e with
        | Element.Resistor { name; n1; n2; value } ->
            (* current noise 4kT/R across (n1, n2); output PSD is
               |transimpedance|^2 times that *)
            let z = Complex.sub (adjoint_at n1) (adjoint_at n2) in
            let psd =
              4.0 *. boltzmann *. temperature /. value *. (Complex.norm z ** 2.0)
            in
            Some { element = name; psd }
        | Element.Capacitor _ | Element.Inductor _ | Element.Vsource _
        | Element.Isource _ | Element.Vcvs _ | Element.Vccs _ | Element.Ccvs _
        | Element.Cccs _ | Element.Opamp _ -> None)
      (Netlist.elements netlist)
  in
  let total = List.fold_left (fun acc c -> acc +. c.psd) 0.0 contributions in
  (contributions, total)

let at_omega ?temperature ~output netlist ~omega =
  let index = Index.build netlist in
  let stamps = Stamps.build ~sources:Assemble.Zeroed index netlist in
  analyze (make_ws (Index.size index)) index stamps ?temperature ~output netlist ~omega

let integrated_rms ?temperature ~output netlist ~freqs_hz =
  let n = Array.length freqs_hz in
  if n < 2 then invalid_arg "Noise.integrated_rms: need at least two frequencies";
  (* One index + stamp build — and one off-heap workspace — for the
     whole integration grid. *)
  let index = Index.build netlist in
  let stamps = Stamps.build ~sources:Assemble.Zeroed index netlist in
  let ws = make_ws (Index.size index) in
  let psd =
    Array.map
      (fun f ->
        snd
          (analyze ws index stamps ?temperature ~output netlist
             ~omega:(2.0 *. Float.pi *. f)))
      freqs_hz
  in
  let variance = ref 0.0 in
  for i = 0 to n - 2 do
    let df = freqs_hz.(i + 1) -. freqs_hz.(i) in
    variance := !variance +. ((psd.(i) +. psd.(i + 1)) /. 2.0 *. df)
  done;
  sqrt !variance
