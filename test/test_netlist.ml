module Element = Circuit.Element
module Netlist = Circuit.Netlist
module Validate = Circuit.Validate

let divider () =
  Netlist.empty ~title:"divider" ()
  |> Netlist.vsource ~name:"V1" "in" "0" 1.0
  |> Netlist.resistor ~name:"R1" "in" "out" 1000.0
  |> Netlist.resistor ~name:"R2" "out" "0" 1000.0

let test_builder () =
  let n = divider () in
  Alcotest.(check int) "size" 3 (Netlist.size n);
  Alcotest.(check (list string)) "nodes" [ "0"; "in"; "out" ] (Netlist.nodes n);
  Alcotest.(check (list string)) "internal" [ "in"; "out" ] (Netlist.internal_nodes n);
  Alcotest.(check bool) "mem R1" true (Netlist.mem n "R1");
  Alcotest.(check bool) "mem R9" false (Netlist.mem n "R9")

let test_duplicate_name () =
  let n = divider () in
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Netlist.add: duplicate element name \"R1\"") (fun () ->
      ignore (Netlist.resistor ~name:"R1" "a" "0" 1.0 n))

let test_find () =
  let n = divider () in
  (match Netlist.find n "R2" with
  | Some (Element.Resistor { value; _ }) ->
      Alcotest.(check (float 0.0)) "value" 1000.0 value
  | _ -> Alcotest.fail "R2 not found");
  Alcotest.(check bool) "absent" true (Netlist.find n "zz" = None)

let test_map_value () =
  let n = Netlist.map_value ~name:"R1" ~f:(fun v -> v *. 1.2) (divider ()) in
  match Netlist.find_exn n "R1" with
  | Element.Resistor { value; _ } -> Alcotest.(check (float 1e-9)) "bumped" 1200.0 value
  | _ -> Alcotest.fail "R1 missing"

let test_map_value_preserves_order () =
  let n = Netlist.map_value ~name:"V1" ~f:(fun v -> v *. 2.0) (divider ()) in
  let names = List.map Element.name (Netlist.elements n) in
  Alcotest.(check (list string)) "order" [ "V1"; "R1"; "R2" ] names

let test_remove_replace () =
  let n = Netlist.remove "R2" (divider ()) in
  Alcotest.(check int) "removed" 2 (Netlist.size n);
  let n2 =
    Netlist.replace (Element.Resistor { name = "R1"; n1 = "in"; n2 = "0"; value = 5.0 })
      (divider ())
  in
  match Netlist.find_exn n2 "R1" with
  | Element.Resistor { n2 = terminal; _ } -> Alcotest.(check string) "rewired" "0" terminal
  | _ -> Alcotest.fail "R1 missing"

let test_passives_opamps () =
  let n =
    divider () |> Netlist.opamp ~name:"OP1" ~inp:"out" ~inn:"0" ~out:"amp"
  in
  Alcotest.(check int) "passives" 2 (List.length (Netlist.passives n));
  Alcotest.(check int) "opamps" 1 (List.length (Netlist.opamps n))

let test_validate_ok () =
  match Validate.check (divider ()) with
  | Ok () -> ()
  | Error issues ->
      Alcotest.fail (String.concat "; " (List.map Validate.issue_to_string issues))

let test_validate_no_ground () =
  let n =
    Netlist.empty () |> Netlist.resistor ~name:"R1" "a" "b" 1.0
  in
  match Validate.check n with
  | Error issues ->
      Alcotest.(check bool) "no ground" true (List.mem Validate.No_ground issues)
  | Ok () -> Alcotest.fail "expected No_ground"

let test_validate_disconnected () =
  let n =
    divider () |> Netlist.resistor ~name:"R3" "x" "y" 1.0
  in
  match Validate.check n with
  | Error [ Validate.Disconnected ns ] ->
      Alcotest.(check (list string)) "stranded" [ "x"; "y" ] (List.sort compare ns)
  | Error issues ->
      Alcotest.fail (String.concat "; " (List.map Validate.issue_to_string issues))
  | Ok () -> Alcotest.fail "expected Disconnected"

let test_validate_nonpositive () =
  let n = divider () |> Netlist.resistor ~name:"R3" "out" "0" (-5.0) in
  match Validate.check n with
  | Error issues ->
      Alcotest.(check bool) "nonpositive" true
        (List.mem (Validate.Nonpositive_value "R3") issues)
  | Ok () -> Alcotest.fail "expected Nonpositive_value"

let test_validate_missing_sense () =
  let n =
    divider ()
    |> Netlist.add (Element.Cccs { name = "F1"; npos = "out"; nneg = "0"; vsense = "VX"; gain = 2.0 })
  in
  match Validate.check n with
  | Error issues ->
      Alcotest.(check bool) "missing sense" true
        (List.mem (Validate.Missing_sense { element = "F1"; vsense = "VX" }) issues)
  | Ok () -> Alcotest.fail "expected Missing_sense"

let test_validate_self_loop () =
  let n = divider () |> Netlist.resistor ~name:"R3" "out" "out" 1.0 in
  match Validate.check n with
  | Error issues ->
      Alcotest.(check bool) "self loop" true (List.mem (Validate.Self_loop "R3") issues)
  | Ok () -> Alcotest.fail "expected Self_loop"

let test_validate_empty () =
  match Validate.check (Netlist.empty ()) with
  | Error [ Validate.Empty_netlist ] -> ()
  | _ -> Alcotest.fail "expected Empty_netlist"

(* The name index stays consistent with the element list: after any
   sequence of add/replace/remove/map_value (invalid steps raise and
   are skipped, as a caller would), [find], [find_exn] and [mem] agree
   with a scan of [elements] for every name in play. *)
type op = Add of int * float | Replace of int * float | Remove of int | Scale of int * float

let op_gen =
  QCheck2.Gen.(
    let name = int_bound 7 and value = float_range 1.0 1e4 in
    oneof
      [
        map2 (fun k v -> Add (k, v)) name value;
        map2 (fun k v -> Replace (k, v)) name value;
        map (fun k -> Remove k) name;
        map2 (fun k v -> Scale (k, v)) name value;
      ])

let element k v =
  let name = Printf.sprintf "E%d" k in
  if k land 1 = 0 then Element.Resistor { name; n1 = "a"; n2 = "0"; value = v }
  else Element.Capacitor { name; n1 = "a"; n2 = "b"; value = v }

let prop_index_consistent =
  QCheck2.Test.make ~name:"name index agrees with a scan of the elements" ~count:300
    QCheck2.Gen.(list_size (int_bound 40) op_gen)
    (fun ops ->
      let step n op =
        try
          match op with
          | Add (k, v) -> Netlist.add (element k v) n
          | Replace (k, v) -> Netlist.replace (element k v) n
          | Remove k -> Netlist.remove (Printf.sprintf "E%d" k) n
          | Scale (k, v) -> Netlist.map_value ~name:(Printf.sprintf "E%d" k) ~f:(( *. ) v) n
        with Invalid_argument _ | Not_found -> n
      in
      let n = List.fold_left step (Netlist.empty ()) ops in
      List.for_all
        (fun k ->
          let name = Printf.sprintf "E%d" k in
          let scan = List.find_opt (fun e -> Element.name e = name) (Netlist.elements n) in
          Netlist.find n name = scan
          && Netlist.mem n name = Option.is_some scan
          && (match Netlist.find_exn n name with
             | e -> Some e = scan
             | exception Not_found -> scan = None))
        (List.init 8 Fun.id))

let suite =
  [
    Alcotest.test_case "builder" `Quick test_builder;
    Alcotest.test_case "duplicate name" `Quick test_duplicate_name;
    Alcotest.test_case "find" `Quick test_find;
    Alcotest.test_case "map_value" `Quick test_map_value;
    Alcotest.test_case "map_value preserves order" `Quick test_map_value_preserves_order;
    Alcotest.test_case "remove/replace" `Quick test_remove_replace;
    Alcotest.test_case "passives/opamps" `Quick test_passives_opamps;
    Alcotest.test_case "validate ok" `Quick test_validate_ok;
    Alcotest.test_case "validate no ground" `Quick test_validate_no_ground;
    Alcotest.test_case "validate disconnected" `Quick test_validate_disconnected;
    Alcotest.test_case "validate nonpositive" `Quick test_validate_nonpositive;
    Alcotest.test_case "validate missing sense" `Quick test_validate_missing_sense;
    Alcotest.test_case "validate self loop" `Quick test_validate_self_loop;
    Alcotest.test_case "validate empty" `Quick test_validate_empty;
    QCheck_alcotest.to_alcotest prop_index_consistent;
  ]
