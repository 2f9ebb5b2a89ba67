module Element = Circuit.Element
type source_mode = Nominal | Only of string

let source_amplitude sources name declared =
  match sources with
  | Nominal -> declared
  | Only s -> if String.equal s name then 1.0 else 0.0

(* Conductance-style stamp y = g + s·c between nodes [i1] and [i2]. *)
let stamp_admittance add_m i1 i2 g c =
  add_m i1 i1 g c;
  add_m i2 i2 g c;
  add_m i1 i2 (-.g) (-.c);
  add_m i2 i1 (-.g) (-.c)

(* Branch current [bi] flowing out of node [ipos] into [ineg]. *)
let stamp_branch_kcl add_m ipos ineg bi =
  add_m ipos bi 1.0 0.0;
  add_m ineg bi (-1.0) 0.0

(* Every stamp is affine in s: the callbacks receive its s⁰ and s¹
   coefficients. [add_m]/[add_b] receive [None] for ground, and the
   caller drops those. The helpers above take [add_m] as an argument,
   so no closure is built for them per element. *)
let stamp_element ~sources ~add_m ~add_b index e =
  let node n = Index.node index n in
  let br name = Some (Index.branch index name) in
  match e with
  | Element.Resistor { n1; n2; value; _ } ->
      stamp_admittance add_m (node n1) (node n2) (1.0 /. value) 0.0
  | Element.Capacitor { n1; n2; value; _ } ->
      stamp_admittance add_m (node n1) (node n2) 0.0 value
  | Element.Inductor { name; n1; n2; value } ->
      let bi = br name in
      stamp_branch_kcl add_m (node n1) (node n2) bi;
      (* branch equation: v1 - v2 - s L i = 0 *)
      add_m bi (node n1) 1.0 0.0;
      add_m bi (node n2) (-1.0) 0.0;
      add_m bi bi 0.0 (-.value)
  | Element.Vsource { name; npos; nneg; value } ->
      let bi = br name in
      stamp_branch_kcl add_m (node npos) (node nneg) bi;
      add_m bi (node npos) 1.0 0.0;
      add_m bi (node nneg) (-1.0) 0.0;
      add_b bi (source_amplitude sources name value) 0.0
  | Element.Isource { name; npos; nneg; value } ->
      let amplitude = source_amplitude sources name value in
      (* positive current flows from npos through the source to nneg *)
      add_b (node npos) (-.amplitude) 0.0;
      add_b (node nneg) amplitude 0.0
  | Element.Vcvs { name; npos; nneg; cpos; cneg; gain } ->
      let bi = br name in
      stamp_branch_kcl add_m (node npos) (node nneg) bi;
      (* v(npos) - v(nneg) - gain (v(cpos) - v(cneg)) = 0 *)
      add_m bi (node npos) 1.0 0.0;
      add_m bi (node nneg) (-1.0) 0.0;
      add_m bi (node cpos) (-.gain) 0.0;
      add_m bi (node cneg) gain 0.0
  | Element.Vccs { npos; nneg; cpos; cneg; gm; _ } ->
      add_m (node npos) (node cpos) gm 0.0;
      add_m (node npos) (node cneg) (-.gm) 0.0;
      add_m (node nneg) (node cpos) (-.gm) 0.0;
      add_m (node nneg) (node cneg) gm 0.0
  | Element.Ccvs { name; npos; nneg; vsense; r } ->
      let bi = br name in
      let bsense = Some (Index.branch index vsense) in
      stamp_branch_kcl add_m (node npos) (node nneg) bi;
      add_m bi (node npos) 1.0 0.0;
      add_m bi (node nneg) (-1.0) 0.0;
      add_m bi bsense (-.r) 0.0
  | Element.Cccs { npos; nneg; vsense; gain; _ } ->
      let bsense = Some (Index.branch index vsense) in
      add_m (node npos) bsense gain 0.0;
      add_m (node nneg) bsense (-.gain) 0.0
  | Element.Opamp { name; inp; inn; out; model } -> (
      let bi = br name in
      (* output drives [out] through the branch current *)
      add_m (node out) bi 1.0 0.0;
      match model with
      | Element.Ideal ->
          (* nullor: v(inp) = v(inn) *)
          add_m bi (node inp) 1.0 0.0;
          add_m bi (node inn) (-1.0) 0.0
      | Element.Single_pole { dc_gain; pole_hz } ->
          (* (1 + s/wp) v(out) - A0 (v(inp) - v(inn)) = 0; the row is
             multiplied through by (1 + s/wp) to stay affine in s. *)
          let wp = 2.0 *. Float.pi *. pole_hz in
          add_m bi (node out) 1.0 (1.0 /. wp);
          add_m bi (node inp) (-.dc_gain) 0.0;
          add_m bi (node inn) dc_gain 0.0)
