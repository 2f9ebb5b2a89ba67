module Netlist = Circuit.Netlist
module Element = Circuit.Element

type regime = Generic | Dc | High_frequency

type deficiency = {
  regime : regime;
  rank : int;
  size : int;
  equations : string list;
  unknowns : string list;
  elements : string list;
}

type t = {
  size : int;
  generic : deficiency option;
  dc : deficiency option;
  hf : deficiency option;
  hf_floating : string list;
  disconnected : string list;
}

(* ---- bipartite maximum matching (Kuhn's augmenting paths) ----

   Systems are tens of unknowns, so the O(V·E) bound is far below the
   cost of a single LU; no need for Hopcroft–Karp here. *)

let max_matching n adj =
  let match_of_col = Array.make n (-1) in
  let match_of_row = Array.make n (-1) in
  let rec augment visited i =
    List.exists
      (fun j ->
        if visited.(j) then false
        else begin
          visited.(j) <- true;
          if match_of_col.(j) = -1 || augment visited match_of_col.(j) then begin
            match_of_col.(j) <- i;
            match_of_row.(i) <- j;
            true
          end
          else false
        end)
      adj.(i)
  in
  let rank = ref 0 in
  for i = 0 to n - 1 do
    if augment (Array.make n false) i then incr rank
  done;
  (!rank, match_of_row, match_of_col)

(* Hall violator: rows reachable from the unmatched rows by alternating
   paths form a set R* whose whole neighborhood C* is matched inside
   R*, so |C*| = |R*| - deficiency — a witness that |R*| equations
   constrain only |C*| unknowns. *)
let hall_violator n adj match_of_row match_of_col =
  let row_seen = Array.make n false and col_seen = Array.make n false in
  let rec visit_row i =
    if not row_seen.(i) then begin
      row_seen.(i) <- true;
      List.iter
        (fun j ->
          if not col_seen.(j) then begin
            col_seen.(j) <- true;
            if match_of_col.(j) >= 0 then visit_row match_of_col.(j)
          end)
        adj.(i)
    end
  in
  for i = 0 to n - 1 do
    if match_of_row.(i) = -1 then visit_row i
  done;
  (row_seen, col_seen)

(* ---- naming rows and columns of the MNA system ---- *)

type naming = {
  n_nodes : int;
  node_names : string array;
  branch_names : string array;  (* indexed from n_nodes *)
}

let naming_of index netlist =
  let node_names = Mna.Index.node_names index in
  let n_nodes = Array.length node_names in
  let branch_names = Array.make (Mna.Index.size index - n_nodes) "" in
  List.iter
    (fun e ->
      let name = Element.name e in
      if Mna.Index.has_branch index name then
        branch_names.(Mna.Index.branch index name - n_nodes) <- name)
    (Netlist.elements netlist);
  { n_nodes; node_names; branch_names }

let equation_name nm i =
  if i < nm.n_nodes then Printf.sprintf "KCL at node %s" nm.node_names.(i)
  else Printf.sprintf "branch equation of %s" nm.branch_names.(i - nm.n_nodes)

let unknown_name nm j =
  if j < nm.n_nodes then Printf.sprintf "V(%s)" nm.node_names.(j)
  else Printf.sprintf "I(%s)" nm.branch_names.(j - nm.n_nodes)

let violator_elements nm netlist row_seen col_seen =
  let names = ref [] in
  let push n = if not (List.mem n !names) then names := n :: !names in
  Array.iteri
    (fun i seen -> if seen && i >= nm.n_nodes then push nm.branch_names.(i - nm.n_nodes))
    row_seen;
  Array.iteri
    (fun j seen -> if seen && j >= nm.n_nodes then push nm.branch_names.(j - nm.n_nodes))
    col_seen;
  (* elements touching a violator node are part of the story too, but
     keep the anchor list to branch elements plus passives on violator
     nodes — enough for file:line attribution without drowning it *)
  let violator_nodes =
    Array.to_list
      (Array.of_seq
         (Seq.filter_map
            (fun i -> if i < nm.n_nodes && row_seen.(i) then Some nm.node_names.(i) else None)
            (Seq.init (Array.length row_seen) Fun.id)))
  in
  List.iter
    (fun e ->
      if List.exists (fun n -> List.mem n violator_nodes) (Element.nodes e) then
        push (Element.name e))
    (Netlist.elements netlist);
  List.rev !names

(* ---- pattern extraction ---- *)

(* [present g c] decides whether an entry with s⁰ and s¹ coefficients
   [g] and [c] is structurally nonzero in the regime: either
   coefficient (generic) or the constant one (DC). The stamp run's slot
   sums cancel exactly (an opamp with both inputs on one node
   assembles +1 - 1 = 0), so such an entry is absent from the pattern,
   which is what makes the verdict sound. *)
let check_pattern ~regime ~present netlist =
  match Netlist.internal_nodes netlist with
  | [] -> None
  | _ ->
      let stamps = Mna.Stamps.build_sparse netlist in
      let index = Mna.Stamps.sparse_index stamps in
      let n = Mna.Index.size index in
      let adj = Array.make n [] in
      Mna.Stamps.iter_slots stamps (fun i j g c ->
          if present g c then adj.(i) <- j :: adj.(i));
      let adj = Array.map (List.sort Int.compare) adj in
      let rank, match_of_row, match_of_col = max_matching n adj in
      if rank = n then None
      else begin
        let row_seen, col_seen = hall_violator n adj match_of_row match_of_col in
        let nm = naming_of index netlist in
        let collect seen name =
          List.filter_map
            (fun i -> if seen.(i) then Some (name nm i) else None)
            (List.init n Fun.id)
        in
        Some
          {
            regime;
            rank;
            size = n;
            equations = collect row_seen equation_name;
            unknowns = collect col_seen unknown_name;
            elements = violator_elements nm netlist row_seen col_seen;
          }
      end

(* ω→∞ limit netlist: capacitors become shorts (a 0 V source keeps the
   branch-current structure of a short), inductors become opens, a
   finite-GBW opamp's gain rolls off to zero so its output collapses
   to ground. Ideal opamps (nullors) are frequency-independent. *)
let hf_limit netlist =
  List.fold_left
    (fun acc e ->
      match e with
      | Element.Capacitor { name; n1; n2; _ } ->
          Netlist.add (Element.Vsource { name; npos = n1; nneg = n2; value = 0.0 }) acc
      | Element.Inductor _ -> acc
      | Element.Opamp { name; out; model = Element.Single_pole _; _ } ->
          Netlist.add
            (Element.Vsource { name; npos = out; nneg = Element.ground; value = 0.0 })
            acc
      | e -> Netlist.add e acc)
    (Netlist.empty ~title:(Netlist.title netlist) ())
    (Netlist.elements netlist)

let disconnected_nodes netlist =
  match Circuit.Validate.check netlist with
  | Ok () -> []
  | Error issues ->
      List.concat_map
        (function
          | Circuit.Validate.Disconnected ns -> ns
          | Circuit.Validate.No_ground -> Netlist.internal_nodes netlist
          | _ -> [])
        issues

let analyse netlist =
  let size =
    match Netlist.internal_nodes netlist with
    | [] -> 0
    | _ -> Mna.Index.size (Mna.Index.build netlist)
  in
  let either g c = g <> 0.0 || c <> 0.0 in
  let generic = check_pattern ~regime:Generic ~present:either netlist in
  let dc = check_pattern ~regime:Dc ~present:(fun g _ -> g <> 0.0) netlist in
  let hf_netlist = hf_limit netlist in
  let hf = check_pattern ~regime:High_frequency ~present:either hf_netlist in
  let hf_floating =
    let surviving = Netlist.nodes hf_netlist in
    List.filter (fun n -> not (List.mem n surviving)) (Netlist.internal_nodes netlist)
  in
  { size; generic; dc; hf; hf_floating; disconnected = disconnected_nodes netlist }

let is_singular t = t.generic <> None || t.disconnected <> []

let regime_to_string = function
  | Generic -> "at every frequency"
  | Dc -> "at DC (omega = 0)"
  | High_frequency -> "in the omega -> infinity limit"

let deficiency_message d =
  let list l = String.concat ", " l in
  let plural n word = Printf.sprintf "%d %s%s" n word (if n = 1 then "" else "s") in
  Printf.sprintf
    "structurally singular %s: %s constrain only %s — {%s} vs {%s} (structural rank %d \
     of %d)"
    (regime_to_string d.regime)
    (plural (List.length d.equations) "equation")
    (plural (List.length d.unknowns) "unknown")
    (list d.equations) (list d.unknowns) d.rank d.size

let findings ?config ~loc_of t =
  let finding code severity (d : deficiency) =
    let element = match d.elements with e :: _ -> Some e | [] -> None in
    let loc = Option.bind element loc_of in
    Finding.make ?element ?config ?loc ~code ~severity (deficiency_message d)
  in
  List.filter_map Fun.id
    [
      Option.map (finding "S001" Finding.Error) t.generic;
      Option.map (finding "S002" Finding.Warning) t.dc;
      Option.map (finding "S003" Finding.Warning) t.hf;
      (match t.hf_floating with
      | [] -> None
      | ns ->
          Some
            (Finding.make ?config ~node:(List.hd ns) ~code:"S003"
               ~severity:Finding.Warning
               (Printf.sprintf
                  "node%s %s connect%s to the circuit only through inductors — \
                   floating in the omega -> infinity limit"
                  (if List.length ns = 1 then "" else "s")
                  (String.concat ", " ns)
                  (if List.length ns = 1 then "s" else ""))));
    ]
