module Netlist = Circuit.Netlist
module Element = Circuit.Element
type source_mode = Nominal | Only of string

module Make (F : Field.S) = struct
  type system = { matrix : F.t array array; rhs : F.t array }

  (* One element's stamps, delivered through callbacks so the same
     stamping rules serve every storage layout: the dense [array array]
     system below and the sparse stamp run in {!Stamps}, from which
     the campaign's class key is read. [add_m]/[add_b] receive
     [None] for ground, exactly as the accumulating closures always
     did. *)
  let stamp_element ~sources ~add_m ~add_b index e =
    let node = Index.node index in
    let br name = Some (Index.branch index name) in
    let source_amplitude name declared =
      match sources with
      | Nominal -> declared
      | Only s -> if String.equal s name then 1.0 else 0.0
    in
    (* Conductance-style stamp between two nodes. *)
    let stamp_admittance n1 n2 y =
      let i1 = node n1 and i2 = node n2 in
      add_m i1 i1 y;
      add_m i2 i2 y;
      add_m i1 i2 (F.neg y);
      add_m i2 i1 (F.neg y)
    in
    (* Branch current [bi] flowing out of [npos] into [nneg]. *)
    let stamp_branch_kcl npos nneg bi =
      add_m (node npos) bi F.one;
      add_m (node nneg) bi (F.neg F.one)
    in
    match e with
    | Element.Resistor { n1; n2; value; _ } ->
        stamp_admittance n1 n2 (F.of_float (1.0 /. value))
    | Element.Capacitor { n1; n2; value; _ } ->
        stamp_admittance n1 n2 (F.mul F.s (F.of_float value))
    | Element.Inductor { name; n1; n2; value } ->
        let bi = br name in
        stamp_branch_kcl n1 n2 bi;
        (* branch equation: v1 - v2 - s L i = 0 *)
        add_m bi (node n1) F.one;
        add_m bi (node n2) (F.neg F.one);
        add_m bi bi (F.neg (F.mul F.s (F.of_float value)))
    | Element.Vsource { name; npos; nneg; value } ->
        let bi = br name in
        stamp_branch_kcl npos nneg bi;
        add_m bi (node npos) F.one;
        add_m bi (node nneg) (F.neg F.one);
        add_b bi (F.of_float (source_amplitude name value))
    | Element.Isource { name; npos; nneg; value } ->
        let amplitude = source_amplitude name value in
        (* positive current flows from npos through the source to nneg *)
        add_b (node npos) (F.of_float (-.amplitude));
        add_b (node nneg) (F.of_float amplitude)
    | Element.Vcvs { name; npos; nneg; cpos; cneg; gain } ->
        let bi = br name in
        stamp_branch_kcl npos nneg bi;
        (* v(npos) - v(nneg) - gain (v(cpos) - v(cneg)) = 0 *)
        add_m bi (node npos) F.one;
        add_m bi (node nneg) (F.neg F.one);
        add_m bi (node cpos) (F.of_float (-.gain));
        add_m bi (node cneg) (F.of_float gain)
    | Element.Vccs { npos; nneg; cpos; cneg; gm; _ } ->
        let g = F.of_float gm in
        add_m (node npos) (node cpos) g;
        add_m (node npos) (node cneg) (F.neg g);
        add_m (node nneg) (node cpos) (F.neg g);
        add_m (node nneg) (node cneg) g
    | Element.Ccvs { name; npos; nneg; vsense; r } ->
        let bi = br name in
        let bsense = Some (Index.branch index vsense) in
        stamp_branch_kcl npos nneg bi;
        add_m bi (node npos) F.one;
        add_m bi (node nneg) (F.neg F.one);
        add_m bi bsense (F.of_float (-.r))
    | Element.Cccs { npos; nneg; vsense; gain; _ } ->
        let bsense = Some (Index.branch index vsense) in
        add_m (node npos) bsense (F.of_float gain);
        add_m (node nneg) bsense (F.of_float (-.gain))
    | Element.Opamp { name; inp; inn; out; model } -> (
        let bi = br name in
        (* output drives [out] through the branch current *)
        add_m (node out) bi F.one;
        match model with
        | Element.Ideal ->
            (* nullor: v(inp) = v(inn) *)
            add_m bi (node inp) F.one;
            add_m bi (node inn) (F.neg F.one)
        | Element.Single_pole { dc_gain; pole_hz } ->
            (* (1 + s/wp) v(out) - A0 (v(inp) - v(inn)) = 0; the row is
               multiplied through by (1 + s/wp) to stay polynomial. *)
            let wp = 2.0 *. Float.pi *. pole_hz in
            let one_plus_s_over_wp =
              F.add F.one (F.mul F.s (F.of_float (1.0 /. wp)))
            in
            add_m bi (node out) one_plus_s_over_wp;
            add_m bi (node inp) (F.of_float (-.dc_gain));
            add_m bi (node inn) (F.of_float dc_gain))

  let assemble ?(sources = Nominal) index netlist =
    let n = Index.size index in
    let matrix = Array.make_matrix n n F.zero in
    let rhs = Array.make n F.zero in
    let add_m i j v =
      match (i, j) with
      | Some i, Some j -> matrix.(i).(j) <- F.add matrix.(i).(j) v
      | _ -> ()
    in
    let add_b i v =
      match i with Some i -> rhs.(i) <- F.add rhs.(i) v | None -> ()
    in
    List.iter (stamp_element ~sources ~add_m ~add_b index) (Netlist.elements netlist);
    { matrix; rhs }
end
