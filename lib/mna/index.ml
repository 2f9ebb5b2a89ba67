module Netlist = Circuit.Netlist
module Element = Circuit.Element
(* Keyed by name with [String.equal], which compares faster than the
   polymorphic [compare] of a plain [Hashtbl]. *)
module Names = Hashtbl.Make (String)

type t = {
  node_idx : int Names.t;
  branch_idx : int Names.t;
  names : string array;
  total : int;
}

let needs_branch = function
  | Element.Vsource _ | Element.Vcvs _ | Element.Ccvs _ | Element.Inductor _
  | Element.Opamp _ -> true
  | Element.Resistor _ | Element.Capacitor _ | Element.Isource _ | Element.Vccs _
  | Element.Cccs _ -> false

(* Node voltages in name order, ground excluded (the order of
   {!Netlist.internal_nodes}), then one branch per group-2 element in
   netlist order. The distinct nodes are collected in the node table
   and sorted once. *)
let build netlist =
  let elements = Netlist.elements netlist in
  let node_idx = Names.create 64 in
  let distinct = ref [] in
  List.iter
    (fun e ->
      List.iter
        (fun n ->
          if n <> Element.ground && not (Names.mem node_idx n) then begin
            Names.replace node_idx n 0;
            distinct := n :: !distinct
          end)
        (Element.nodes e))
    elements;
  let names = Array.of_list !distinct in
  Array.sort String.compare names;
  Array.iteri (fun i n -> Names.replace node_idx n i) names;
  let branch_idx = Names.create 16 in
  let next = ref (Array.length names) in
  List.iter
    (fun e ->
      if needs_branch e then begin
        Names.replace branch_idx (Element.name e) !next;
        incr next
      end)
    elements;
  { node_idx; branch_idx; names; total = !next }

let size t = t.total

let node t n =
  if n = Element.ground then None
  else
    match Names.find_opt t.node_idx n with
    | Some _ as i -> i
    | None -> invalid_arg (Printf.sprintf "Index.node: unknown node %S" n)

let branch t name = Names.find t.branch_idx name
let has_branch t name = Names.mem t.branch_idx name
let node_names t = Array.copy t.names
