module StringSet = Set.Make (String)
module StringMap = Map.Make (String)

type t = {
  title : string;
  rev_elements : Element.t list;
  index : Element.t StringMap.t;
}
(* Elements kept in reverse insertion order; [index] maps each name to
   its element, so lookups and the uniqueness check are O(log n). *)

let empty ?(title = "untitled") () =
  { title; rev_elements = []; index = StringMap.empty }

let title t = t.title
let elements t = List.rev t.rev_elements

let add e t =
  let n = Element.name e in
  if StringMap.mem n t.index then
    invalid_arg (Printf.sprintf "Netlist.add: duplicate element name %S" n);
  { t with rev_elements = e :: t.rev_elements; index = StringMap.add n e t.index }

let of_elements ?title es =
  List.fold_left (fun acc e -> add e acc) (empty ?title ()) es

let resistor ~name n1 n2 value t = add (Element.Resistor { name; n1; n2; value }) t
let capacitor ~name n1 n2 value t = add (Element.Capacitor { name; n1; n2; value }) t
let inductor ~name n1 n2 value t = add (Element.Inductor { name; n1; n2; value }) t
let vsource ~name npos nneg value t = add (Element.Vsource { name; npos; nneg; value }) t

let opamp ?(model = Element.Ideal) ~name ~inp ~inn ~out t =
  add (Element.Opamp { name; inp; inn; out; model }) t

let find t n = StringMap.find_opt n t.index
let find_exn t n = StringMap.find n t.index
let mem t n = StringMap.mem n t.index

let nodes t =
  let all =
    List.fold_left
      (fun acc e -> List.fold_left (fun acc n -> StringSet.add n acc) acc (Element.nodes e))
      StringSet.empty t.rev_elements
  in
  StringSet.elements all

let internal_nodes t = List.filter (fun n -> n <> Element.ground) (nodes t)

let opamps t =
  List.filter (function Element.Opamp _ -> true | _ -> false) (elements t)

let passives t = List.filter Element.is_passive (elements t)
let size t = List.length t.rev_elements

let replace e t =
  let n = Element.name e in
  if not (StringMap.mem n t.index) then raise Not_found;
  let swap e' = if Element.name e' = n then e else e' in
  { t with rev_elements = List.map swap t.rev_elements; index = StringMap.add n e t.index }

let remove n t =
  if not (StringMap.mem n t.index) then raise Not_found;
  { t with
    rev_elements = List.filter (fun e -> Element.name e <> n) t.rev_elements;
    index = StringMap.remove n t.index }

let map_value ~name ~f t =
  let e = find_exn t name in
  match Element.value e with
  | None ->
      invalid_arg
        (Printf.sprintf "Netlist.map_value: element %S has no scalar parameter" name)
  | Some v -> replace (Element.with_value e (f v)) t
