type node = string

type opamp_model =
  | Ideal
  | Single_pole of { dc_gain : float; pole_hz : float }

type t =
  | Resistor of { name : string; n1 : node; n2 : node; value : float }
  | Capacitor of { name : string; n1 : node; n2 : node; value : float }
  | Inductor of { name : string; n1 : node; n2 : node; value : float }
  | Vsource of { name : string; npos : node; nneg : node; value : float }
  | Isource of { name : string; npos : node; nneg : node; value : float }
  | Vcvs of { name : string; npos : node; nneg : node; cpos : node; cneg : node; gain : float }
  | Vccs of { name : string; npos : node; nneg : node; cpos : node; cneg : node; gm : float }
  | Ccvs of { name : string; npos : node; nneg : node; vsense : string; r : float }
  | Cccs of { name : string; npos : node; nneg : node; vsense : string; gain : float }
  | Opamp of { name : string; inp : node; inn : node; out : node; model : opamp_model }

let ground = "0"

let name = function
  | Resistor { name; _ }
  | Capacitor { name; _ }
  | Inductor { name; _ }
  | Vsource { name; _ }
  | Isource { name; _ }
  | Vcvs { name; _ }
  | Vccs { name; _ }
  | Ccvs { name; _ }
  | Cccs { name; _ }
  | Opamp { name; _ } -> name

let nodes = function
  | Resistor { n1; n2; _ } | Capacitor { n1; n2; _ } | Inductor { n1; n2; _ } ->
      [ n1; n2 ]
  | Vsource { npos; nneg; _ } | Isource { npos; nneg; _ } -> [ npos; nneg ]
  | Vcvs { npos; nneg; cpos; cneg; _ } | Vccs { npos; nneg; cpos; cneg; _ } ->
      [ npos; nneg; cpos; cneg ]
  | Ccvs { npos; nneg; _ } | Cccs { npos; nneg; _ } -> [ npos; nneg ]
  | Opamp { inp; inn; out; _ } -> [ inp; inn; out ]

let value = function
  | Resistor { value; _ } | Capacitor { value; _ } | Inductor { value; _ }
  | Vsource { value; _ } | Isource { value; _ } -> Some value
  | Vcvs { gain; _ } -> Some gain
  | Vccs { gm; _ } -> Some gm
  | Ccvs { r; _ } -> Some r
  | Cccs { gain; _ } -> Some gain
  | Opamp { model = Single_pole { dc_gain; _ }; _ } -> Some dc_gain
  | Opamp { model = Ideal; _ } -> None

let with_value e v =
  match e with
  | Resistor r -> Resistor { r with value = v }
  | Capacitor c -> Capacitor { c with value = v }
  | Inductor l -> Inductor { l with value = v }
  | Vsource s -> Vsource { s with value = v }
  | Isource s -> Isource { s with value = v }
  | Vcvs s -> Vcvs { s with gain = v }
  | Vccs s -> Vccs { s with gm = v }
  | Ccvs s -> Ccvs { s with r = v }
  | Cccs s -> Cccs { s with gain = v }
  | Opamp ({ model = Single_pole sp; _ } as o) ->
      Opamp { o with model = Single_pole { sp with dc_gain = v } }
  | Opamp { model = Ideal; _ } ->
      invalid_arg "Element.with_value: ideal opamp has no scalar parameter"

let is_passive = function
  | Resistor _ | Capacitor _ | Inductor _ -> true
  | Vsource _ | Isource _ | Vcvs _ | Vccs _ | Ccvs _ | Cccs _ | Opamp _ -> false
