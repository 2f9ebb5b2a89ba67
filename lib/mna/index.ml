module Netlist = Circuit.Netlist
module Element = Circuit.Element
type t = {
  node_idx : (string, int) Hashtbl.t;
  branch_idx : (string, int) Hashtbl.t;
  names : string array;
  total : int;
}

let needs_branch = function
  | Element.Vsource _ | Element.Vcvs _ | Element.Ccvs _ | Element.Inductor _
  | Element.Opamp _ -> true
  | Element.Resistor _ | Element.Capacitor _ | Element.Isource _ | Element.Vccs _
  | Element.Cccs _ -> false

let build netlist =
  let nodes = Netlist.internal_nodes netlist in
  let node_idx = Hashtbl.create 16 in
  List.iteri (fun i n -> Hashtbl.replace node_idx n i) nodes;
  let n_nodes = List.length nodes in
  let branch_idx = Hashtbl.create 16 in
  let next = ref n_nodes in
  List.iter
    (fun e ->
      if needs_branch e then begin
        Hashtbl.replace branch_idx (Element.name e) !next;
        incr next
      end)
    (Netlist.elements netlist);
  { node_idx; branch_idx; names = Array.of_list nodes; total = !next }

let size t = t.total

let node t n =
  if n = Element.ground then None
  else
    match Hashtbl.find_opt t.node_idx n with
    | Some i -> Some i
    | None -> invalid_arg (Printf.sprintf "Index.node: unknown node %S" n)

let branch t name = Hashtbl.find t.branch_idx name
let has_branch t name = Hashtbl.mem t.branch_idx name
let node_names t = Array.copy t.names
