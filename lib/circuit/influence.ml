module StringSet = Set.Make (String)

type t = {
  netlist : Netlist.t;
  output : string;
  influential : StringSet.t;  (* nodes *)
  stiff : StringSet.t;  (* ideally driven nodes *)
}

(* A node is stiff when an ideal source pins its voltage against
   ground: the positive terminal of a ground-referenced V source or
   VCVS, or an opamp output (always ground-referenced here). Elements
   hanging on a stiff node cannot influence it. *)
let stiff_nodes netlist =
  List.fold_left
    (fun acc e ->
      match e with
      | Element.Vsource { npos; nneg; _ } | Element.Vcvs { npos; nneg; _ } ->
          if nneg = Element.ground then StringSet.add npos acc
          else if npos = Element.ground then StringSet.add nneg acc
          else acc
      | Element.Ccvs { npos; nneg; _ } ->
          if nneg = Element.ground then StringSet.add npos acc
          else if npos = Element.ground then StringSet.add nneg acc
          else acc
      | Element.Opamp { out; _ } -> StringSet.add out acc
      | Element.Resistor _ | Element.Capacitor _ | Element.Inductor _
      | Element.Isource _ | Element.Vccs _ | Element.Cccs _ -> acc)
    StringSet.empty
    (Netlist.elements netlist)

(* The nodes whose entry into the influential set can enable an
   element's propagation rule (see [fire] below). *)
let trigger_nodes = function
  | Element.Resistor { n1; n2; _ } | Element.Capacitor { n1; n2; _ }
  | Element.Inductor { n1; n2; _ } -> [ n1; n2 ]
  | Element.Opamp { out; _ } -> [ out ]
  | Element.Vcvs { npos; _ } | Element.Ccvs { npos; _ } -> [ npos ]
  | Element.Vccs { npos; nneg; _ } | Element.Cccs { npos; nneg; _ } -> [ npos; nneg ]
  | Element.Vsource _ | Element.Isource _ -> []

(* Least fixpoint of the propagation rules, by worklist: every rule is
   monotone in the influential set and only reads its element's
   trigger nodes, so re-firing an element exactly when one of its
   triggers joins reaches the same fixpoint as sweeping the whole
   element list until nothing changes — in one pass over the graph
   instead of one sweep per hop (a long ladder listed input-first is
   hundreds of hops deep). *)
let analyse ~output netlist =
  let stiff = stiff_nodes netlist in
  let influential = Hashtbl.create 64 in
  let queue = Queue.create () in
  let enter n =
    Hashtbl.replace influential n ();
    Queue.add n queue
  in
  let add n = if n <> Element.ground && not (Hashtbl.mem influential n) then enter n in
  let in_set n = Hashtbl.mem influential n in
  let soft n = in_set n && not (StringSet.mem n stiff) in
  let add_sensing vsense =
    match Netlist.find netlist vsense with
    | Some (Element.Vsource { npos; nneg; _ }) ->
        add npos;
        add nneg
    | _ -> ()
  in
  let fire e =
    match e with
    | Element.Resistor { n1; n2; _ } | Element.Capacitor { n1; n2; _ }
    | Element.Inductor { n1; n2; _ } ->
        (* conduction couples the terminals wherever the node is not
           ideally driven *)
        if soft n1 then add n2;
        if soft n2 then add n1
    | Element.Opamp { inp; inn; out; _ } ->
        if in_set out then begin
          add inp;
          add inn
        end
    | Element.Vcvs { npos; cpos; cneg; _ } ->
        if in_set npos then begin
          add cpos;
          add cneg
        end
    | Element.Vccs { npos; nneg; cpos; cneg; _ } ->
        if soft npos || soft nneg then begin
          add cpos;
          add cneg
        end
    | Element.Ccvs { npos; vsense; _ } -> if in_set npos then add_sensing vsense
    | Element.Cccs { npos; nneg; vsense; _ } ->
        if soft npos || soft nneg then add_sensing vsense
    | Element.Vsource _ | Element.Isource _ -> ()
  in
  let triggered = Hashtbl.create 64 in
  List.iter
    (fun e -> List.iter (fun n -> Hashtbl.add triggered n e) (trigger_nodes e))
    (Netlist.elements netlist);
  enter output;
  while not (Queue.is_empty queue) do
    List.iter fire (Hashtbl.find_all triggered (Queue.pop queue))
  done;
  let influential =
    Hashtbl.fold (fun n () acc -> StringSet.add n acc) influential StringSet.empty
  in
  { netlist; output; influential; stiff }

let influential_nodes t = StringSet.elements t.influential

let can_affect_output t element =
  let e = Netlist.find_exn t.netlist element in
  List.exists
    (fun n ->
      n <> Element.ground
      && StringSet.mem n t.influential
      && not (StringSet.mem n t.stiff))
    (Element.nodes e)

let influential_passives t =
  List.filter_map
    (fun e ->
      let name = Element.name e in
      if can_affect_output t name then Some name else None)
    (Netlist.passives t.netlist)

let drives_output t source =
  match Netlist.find_exn t.netlist source with
  | Element.Vsource { npos; nneg; _ } ->
      List.exists
        (fun n -> n <> Element.ground && StringSet.mem n t.influential)
        [ npos; nneg ]
  | _ -> can_affect_output t source

(* ---- the output cone ----

   The MNA rows that fix the output are closed over the cone's
   unknowns: the KCL row of a soft influential node reads only
   influential voltages (every element on it is kept, and the
   propagation rules put its far terminals in the set) and the
   currents of the inductors on it; the branch equation of a driver
   (a ground-referenced V source or VCVS, or an opamp, whose output is
   an influential stiff node) and of a kept inductor reads only
   influential voltages and its own current. The KCL row of a stiff
   node only fixes its driver's current, which no cone row reads. With
   one driver per stiff node the full system is block-triangular,
   [A = [A₁₁ 0; A₂₁ A₂₂]], and the cone netlist assembles
   [[A₁₁ 0; A₂₁' P]] with [P] the drivers' ±1 incidence: the same A₁₁,
   so the output is exact in exact arithmetic. Anything the argument
   does not cover — a floating or wrongly controlled source, a
   current-controlled source, a stiff node with two drivers, a
   terminal left outside the set — leaves the view uncertified. *)
exception Uncertified

let cone t =
  let infl n = StringSet.mem n t.influential in
  let stiff n = StringSet.mem n t.stiff in
  let soft n = infl n && not (stiff n) in
  let inside n = n = Element.ground || infl n in
  let tie n = if inside n then n else Element.ground in
  let touches nodes = List.exists infl nodes in
  let require ok = if not ok then raise Uncertified in
  let drivers = Hashtbl.create 16 in
  let drive n =
    if Hashtbl.mem drivers n then raise Uncertified;
    Hashtbl.add drivers n ()
  in
  (* a ground-referenced driver: the stiff terminal it pins *)
  let driven npos nneg =
    if nneg = Element.ground then npos
    else if npos = Element.ground then nneg
    else raise Uncertified
  in
  let keep e =
    match e with
    | Element.Resistor { n1; n2; _ } | Element.Capacitor { n1; n2; _ }
    | Element.Inductor { n1; n2; _ } ->
        if soft n1 || soft n2 then begin
          require (inside n1 && inside n2);
          Some e
        end
        else None
    | Element.Opamp { inp; inn; out; _ } ->
        if infl out then begin
          require (inside inp && inside inn);
          drive out;
          Some e
        end
        else None
    | Element.Vsource { npos; nneg; _ } ->
        if touches [ npos; nneg ] then begin
          drive (driven npos nneg);
          Some e
        end
        else None
    | Element.Vcvs { npos; nneg; cpos; cneg; _ } ->
        if touches [ npos; nneg ] then begin
          require (inside cpos && inside cneg);
          drive (driven npos nneg);
          Some e
        end
        else None
    | Element.Isource ({ npos; nneg; _ } as r) ->
        if touches [ npos; nneg ] then
          Some (Element.Isource { r with npos = tie npos; nneg = tie nneg })
        else None
    | Element.Vccs ({ npos; nneg; cpos; cneg; _ } as r) ->
        if soft npos || soft nneg then begin
          require (inside cpos && inside cneg);
          Some (Element.Vccs { r with npos = tie npos; nneg = tie nneg })
        end
        else None
    | Element.Ccvs { npos; nneg; _ } | Element.Cccs { npos; nneg; _ } ->
        if touches [ npos; nneg ] then raise Uncertified else None
  in
  match List.filter_map keep (Netlist.elements t.netlist) with
  | exception Uncertified -> None
  | kept ->
      let cone = Netlist.of_elements ~title:(Netlist.title t.netlist) kept in
      if List.mem t.output (Netlist.nodes cone) then Some cone else None
