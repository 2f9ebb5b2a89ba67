module Netlist = Circuit.Netlist
module Element = Circuit.Element

type kind = Deviation of float | Open_circuit | Short_circuit

type t = { id : string; element : string; kind : kind }

exception Unknown_element of string

let open_resistance = 1e9
let short_resistance = 1e-3

let deviation_id element factor =
  let pct = (factor -. 1.0) *. 100.0 in
  Printf.sprintf "%s%+g%%" element pct

let deviation ~element factor =
  { id = deviation_id element factor; element; kind = Deviation factor }

let deviation_faults ?(factor = 1.2) netlist =
  List.map
    (fun e -> deviation ~element:(Element.name e) factor)
    (Netlist.passives netlist)

let both_deviations ?(factor = 1.2) netlist =
  List.concat_map
    (fun e ->
      let name = Element.name e in
      [ deviation ~element:name factor; deviation ~element:name (2.0 -. factor) ])
    (Netlist.passives netlist)

let catastrophic_faults netlist =
  List.concat_map
    (fun e ->
      let element = Element.name e in
      [
        { id = element ^ "-open"; element; kind = Open_circuit };
        { id = element ^ "-short"; element; kind = Short_circuit };
      ])
    (Netlist.passives netlist)

(* An open or short keeps the element's terminals but swaps in an
   extreme resistance, so node connectivity (and hence the MNA index
   shape) is preserved. *)
let replace_with_resistance netlist element r =
  match Netlist.find netlist element with
  | None -> raise (Unknown_element element)
  | Some e -> (
      match Element.nodes e with
      | [ n1; n2 ] ->
          Netlist.add
            (Element.Resistor { name = element; n1; n2; value = r })
            (Netlist.remove element netlist)
      | _ ->
          invalid_arg
            (Printf.sprintf "Fault.inject: %s is not a two-terminal element" element))

let inject fault netlist =
  match fault.kind with
  | Deviation factor ->
      if not (Netlist.mem netlist fault.element) then
        raise (Unknown_element fault.element);
      Netlist.map_value ~name:fault.element ~f:(fun v -> v *. factor) netlist
  | Open_circuit -> replace_with_resistance netlist fault.element open_resistance
  | Short_circuit -> replace_with_resistance netlist fault.element short_resistance
