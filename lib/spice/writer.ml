module Netlist = Circuit.Netlist
module Element = Circuit.Element

(* The engineering form when it reads back as exactly [v], otherwise
   the fewest plain digits that do, so a written netlist reparses bit
   for bit. *)
let value v =
  let candidates =
    Util.Quantity.to_string v :: List.map (fun d -> Printf.sprintf "%.*g" d v) [ 15; 16 ]
  in
  match List.find_opt (fun s -> Util.Quantity.parse s = Ok v) candidates with
  | Some s -> s
  | None -> Printf.sprintf "%.17g" v

let card e =
  let q = value in
  match e with
  | Element.Resistor { name; n1; n2; value } -> Printf.sprintf "%s %s %s %s" name n1 n2 (q value)
  | Element.Capacitor { name; n1; n2; value } -> Printf.sprintf "%s %s %s %s" name n1 n2 (q value)
  | Element.Inductor { name; n1; n2; value } -> Printf.sprintf "%s %s %s %s" name n1 n2 (q value)
  | Element.Vsource { name; npos; nneg; value } ->
      Printf.sprintf "%s %s %s AC %s" name npos nneg (q value)
  | Element.Isource { name; npos; nneg; value } ->
      Printf.sprintf "%s %s %s AC %s" name npos nneg (q value)
  | Element.Vcvs { name; npos; nneg; cpos; cneg; gain } ->
      Printf.sprintf "%s %s %s %s %s %s" name npos nneg cpos cneg (q gain)
  | Element.Vccs { name; npos; nneg; cpos; cneg; gm } ->
      Printf.sprintf "%s %s %s %s %s %s" name npos nneg cpos cneg (q gm)
  | Element.Ccvs { name; npos; nneg; vsense; r } ->
      Printf.sprintf "%s %s %s %s %s" name npos nneg vsense (q r)
  | Element.Cccs { name; npos; nneg; vsense; gain } ->
      Printf.sprintf "%s %s %s %s %s" name npos nneg vsense (q gain)
  | Element.Opamp { name; inp; inn; out; model } -> (
      match model with
      | Element.Ideal -> Printf.sprintf "%s %s %s %s OPAMP" name inp inn out
      | Element.Single_pole { dc_gain; pole_hz } ->
          Printf.sprintf "%s %s %s %s OPAMP A0=%s FP=%s" name inp inn out (q dc_gain)
            (q pole_hz))

let to_string netlist =
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("* " ^ Netlist.title netlist ^ "\n");
  List.iter
    (fun e ->
      Buffer.add_string buf (card e);
      Buffer.add_char buf '\n')
    (Netlist.elements netlist);
  Buffer.add_string buf ".end\n";
  Buffer.contents buf

let to_file path netlist =
  let oc = open_out path in
  output_string oc (to_string netlist);
  close_out oc
