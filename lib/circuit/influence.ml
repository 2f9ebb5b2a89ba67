(* Tables keyed by name with [String.equal], which compares faster than
   the polymorphic [compare] of a plain [Hashtbl]. *)
module Names = Hashtbl.Make (String)

(* Every pass below works on integer node ids: [analyse] numbers the
   view's nodes once (ground is id 0, the output is numbered after the
   elements' terminals even when no element touches it), and each
   element's terminals are kept as ids, [term.(term_at.(k) + i)] being
   the id of the [i]-th node of {!Element.nodes} of element [k]. The
   influential and stiff sets are bool arrays over ids. *)
type t = {
  netlist : Netlist.t;
  elements : Element.t array;  (* in netlist order *)
  position : int Names.t;  (* element name -> its position *)
  names : string array;  (* node id -> name *)
  term : int array;
  term_at : int array;  (* [term] offset of element k; one past the last at the end *)
  out : int;  (* the output's id *)
  influential : bool array;
  stiff : bool array;  (* ideally driven nodes *)
}

let ground = 0

(* A node is stiff when an ideal source pins its voltage against
   ground: the positive terminal of a ground-referenced V source or
   VCVS, or an opamp output (always ground-referenced here). Elements
   hanging on a stiff node cannot influence it. *)
let mark_stiff stiff e ~at term =
  match e with
  | Element.Vsource _ | Element.Vcvs _ | Element.Ccvs _ ->
      let npos = term.(at) and nneg = term.(at + 1) in
      if nneg = ground then stiff.(npos) <- true
      else if npos = ground then stiff.(nneg) <- true
  | Element.Opamp _ -> stiff.(term.(at + 2)) <- true
  | Element.Resistor _ | Element.Capacitor _ | Element.Inductor _ | Element.Isource _
  | Element.Vccs _ | Element.Cccs _ -> ()

(* The terminals, as positions in {!Element.nodes}, whose entry into
   the influential set can enable the element's propagation rule (see
   [fire] below). *)
let triggers = function
  | Element.Resistor _ | Element.Capacitor _ | Element.Inductor _ | Element.Vccs _
  | Element.Cccs _ -> [ 0; 1 ]
  | Element.Opamp _ -> [ 2 ]
  | Element.Vcvs _ | Element.Ccvs _ -> [ 0 ]
  | Element.Vsource _ | Element.Isource _ -> []

(* Least fixpoint of the propagation rules, by worklist: every rule is
   monotone in the influential set and only reads its element's
   trigger nodes, so re-firing an element exactly when one of its
   triggers joins reaches the same fixpoint as sweeping the whole
   element list until nothing changes — in one pass over the graph
   instead of one sweep per hop (a long ladder listed input-first is
   hundreds of hops deep). Each node enters the set once, so the
   worklist is a stack of at most one slot per node. *)
let analyse ~output netlist =
  let elements = Array.of_list (Netlist.elements netlist) in
  let m = Array.length elements in
  let ids = Names.create (2 * m) and names = ref [ Element.ground ] and n_nodes = ref 1 in
  Names.replace ids Element.ground ground;
  let id name =
    match Names.find ids name with
    | i -> i
    | exception Not_found ->
        let i = !n_nodes in
        Names.replace ids name i;
        names := name :: !names;
        incr n_nodes;
        i
  in
  let position = Names.create m in
  let term = Array.make (4 * m) 0 and term_at = Array.make (m + 1) 0 in
  Array.iteri
    (fun k e ->
      Names.replace position (Element.name e) k;
      term_at.(k + 1) <-
        List.fold_left
          (fun at n ->
            term.(at) <- id n;
            at + 1)
          term_at.(k) (Element.nodes e))
    elements;
  let out = id output in
  let n = !n_nodes in
  let stiff = Array.make n false in
  Array.iteri (fun k e -> mark_stiff stiff e ~at:term_at.(k) term) elements;
  let triggered = Array.make n [] in
  Array.iteri
    (fun k e ->
      List.iter
        (fun i ->
          let v = term.(term_at.(k) + i) in
          triggered.(v) <- k :: triggered.(v))
        (triggers e))
    elements;
  let influential = Array.make n false in
  let stack = Array.make n 0 and top = ref 0 in
  let enter v =
    influential.(v) <- true;
    stack.(!top) <- v;
    incr top
  in
  let add v = if v <> ground && not influential.(v) then enter v in
  let soft v = influential.(v) && not stiff.(v) in
  let add_sensing vsense =
    match Netlist.find netlist vsense with
    | Some (Element.Vsource { npos; nneg; _ }) ->
        add (Names.find ids npos);
        add (Names.find ids nneg)
    | _ -> ()
  in
  let fire k =
    let a = term_at.(k) in
    match elements.(k) with
    | Element.Resistor _ | Element.Capacitor _ | Element.Inductor _ ->
        (* conduction couples the terminals wherever the node is not
           ideally driven *)
        let n1 = term.(a) and n2 = term.(a + 1) in
        if soft n1 then add n2;
        if soft n2 then add n1
    | Element.Opamp _ ->
        if influential.(term.(a + 2)) then begin
          add term.(a);
          add term.(a + 1)
        end
    | Element.Vcvs _ ->
        if influential.(term.(a)) then begin
          add term.(a + 2);
          add term.(a + 3)
        end
    | Element.Vccs _ ->
        if soft term.(a) || soft term.(a + 1) then begin
          add term.(a + 2);
          add term.(a + 3)
        end
    | Element.Ccvs { vsense; _ } -> if influential.(term.(a)) then add_sensing vsense
    | Element.Cccs { vsense; _ } ->
        if soft term.(a) || soft term.(a + 1) then add_sensing vsense
    | Element.Vsource _ | Element.Isource _ -> ()
  in
  enter out;
  while !top > 0 do
    decr top;
    List.iter fire triggered.(stack.(!top))
  done;
  let names = Array.of_list (List.rev !names) in
  { netlist; elements; position; names; term; term_at; out; influential; stiff }

let influential_nodes t =
  let acc = ref [] in
  Array.iteri (fun v infl -> if infl then acc := t.names.(v) :: !acc) t.influential;
  List.sort String.compare !acc

(* Whether element [k] has a soft influential terminal. *)
let affects t k =
  let rec go i =
    i < t.term_at.(k + 1)
    &&
    let v = t.term.(i) in
    (v <> ground && t.influential.(v) && not t.stiff.(v)) || go (i + 1)
  in
  go t.term_at.(k)

let can_affect_output t element = affects t (Names.find t.position element)

let influential_passives t =
  let acc = ref [] in
  Array.iteri
    (fun k e -> if Element.is_passive e && affects t k then acc := Element.name e :: !acc)
    t.elements;
  List.rev !acc

let drives_output t source =
  let k = Names.find t.position source in
  match t.elements.(k) with
  | Element.Vsource _ ->
      let a = t.term_at.(k) in
      List.exists
        (fun v -> v <> ground && t.influential.(v))
        [ t.term.(a); t.term.(a + 1) ]
  | _ -> affects t k

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
   terminal left outside the set — leaves the view uncertified. The
   keep pass notes whether a kept element, its terminals tied as kept,
   touches the output: the cone's node set holds the output exactly
   then. *)
exception Uncertified

let cone t =
  let infl v = t.influential.(v) in
  let soft v = infl v && not t.stiff.(v) in
  let inside v = v = ground || infl v in
  let require ok = if not ok then raise Uncertified in
  let drivers = Array.make (Array.length t.influential) false in
  let drive v =
    if drivers.(v) then raise Uncertified;
    drivers.(v) <- true
  in
  (* a ground-referenced driver: the stiff terminal it pins *)
  let driven npos nneg =
    if nneg = ground then npos else if npos = ground then nneg else raise Uncertified
  in
  let reaches = ref false in
  let hits v = if v = t.out then reaches := true in
  let keep k e =
    let a = t.term_at.(k) in
    let term i = t.term.(a + i) in
    (* [e] kept; with [~tied], its first two terminals are tied to
       ground where they leave the set *)
    let kept ?(tied = false) e =
      for i = a to t.term_at.(k + 1) - 1 do
        let v = t.term.(i) in
        hits (if tied && i < a + 2 && not (inside v) then ground else v)
      done;
      Some e
    in
    let tie i n = if inside (term i) then n else Element.ground in
    match e with
    | Element.Resistor _ | Element.Capacitor _ | Element.Inductor _ ->
        if soft (term 0) || soft (term 1) then begin
          require (inside (term 0) && inside (term 1));
          kept e
        end
        else None
    | Element.Opamp _ ->
        if infl (term 2) then begin
          require (inside (term 0) && inside (term 1));
          drive (term 2);
          kept e
        end
        else None
    | Element.Vsource _ ->
        if infl (term 0) || infl (term 1) then begin
          drive (driven (term 0) (term 1));
          kept e
        end
        else None
    | Element.Vcvs _ ->
        if infl (term 0) || infl (term 1) then begin
          require (inside (term 2) && inside (term 3));
          drive (driven (term 0) (term 1));
          kept e
        end
        else None
    | Element.Isource r ->
        if infl (term 0) || infl (term 1) then
          kept ~tied:true
            (Element.Isource { r with npos = tie 0 r.npos; nneg = tie 1 r.nneg })
        else None
    | Element.Vccs r ->
        if soft (term 0) || soft (term 1) then begin
          require (inside (term 2) && inside (term 3));
          kept ~tied:true
            (Element.Vccs { r with npos = tie 0 r.npos; nneg = tie 1 r.nneg })
        end
        else None
    | Element.Ccvs _ | Element.Cccs _ ->
        if infl (term 0) || infl (term 1) then raise Uncertified else None
  in
  let kept = ref [] in
  match
    Array.iteri
      (fun k e -> match keep k e with Some e -> kept := e :: !kept | None -> ())
      t.elements
  with
  | exception Uncertified -> None
  | () ->
      if !reaches then
        Some (Netlist.of_elements ~title:(Netlist.title t.netlist) (List.rev !kept))
      else None
