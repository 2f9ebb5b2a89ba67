module Netlist = Circuit.Netlist
module Configuration = Multiconfig.Configuration
module Transform = Multiconfig.Transform

(* --- configurations --- *)

let test_counts () =
  Alcotest.(check int) "all" 8 (List.length (Configuration.all ~n_opamps:3));
  Alcotest.(check int) "test configs" 7
    (List.length (Configuration.test_configurations ~n_opamps:3))

let followers c =
  List.filter (Configuration.follower c) (List.init (Configuration.n_opamps c) Fun.id)

let test_bit_convention () =
  (* the paper's C5 = (1 0 1): OP1 and OP3 in follower mode *)
  let c5 = Configuration.make ~n_opamps:3 5 in
  Alcotest.(check (list int)) "followers" [ 0; 2 ] (followers c5);
  Alcotest.(check string) "vector" "101" (Configuration.vector c5);
  (* C1 maps to OP1 (paper Table 3) *)
  let c1 = Configuration.make ~n_opamps:3 1 in
  Alcotest.(check (list int)) "C1 -> OP1" [ 0 ] (followers c1)

let test_functional_transparent () =
  let f = Configuration.make ~n_opamps:3 0 in
  Alcotest.(check bool) "functional" true (Configuration.is_functional f);
  Alcotest.(check int) "no followers" 0 (List.length (followers f));
  let t = Configuration.make ~n_opamps:3 7 in
  Alcotest.(check bool) "transparent" true (Configuration.is_transparent t);
  Alcotest.(check int) "all followers" 3 (List.length (followers t));
  Alcotest.(check bool) "transparent excluded" true
    (not (List.exists Configuration.is_transparent (Configuration.test_configurations ~n_opamps:3)))

let test_restriction () =
  (* The optimizer's objective B reaches a configuration only when
     every follower of it is configurable: one fault that only C5
     detects needs OP1 and OP3, one that only C3 detects needs OP1 and
     OP2, which reach C0..C3 (paper 4.3). *)
  let module O = Mcdft_core.Optimizer in
  let only c =
    let detect = Array.init 7 (fun i -> [| i = c |]) in
    let omega = Array.map (Array.map (fun d -> if d then 1.0 else 0.0)) detect in
    (O.optimize (O.input_of_matrices ~n_opamps:3 detect omega)).O.choice_b
  in
  let c5 = only 5 and c3 = only 3 in
  Alcotest.(check (list int)) "needs OP1 OP3" [ 0; 2 ] c5.O.opamps;
  Alcotest.(check (list int)) "C5 reached" [ 0; 1; 4; 5 ] c5.O.reachable_configs;
  Alcotest.(check (list int)) "needs OP1 OP2" [ 0; 1 ] c3.O.opamps;
  Alcotest.(check (list int)) "C0..C3" [ 0; 1; 2; 3 ] c3.O.reachable_configs

let test_vector_partial () =
  let c1 = Configuration.make ~n_opamps:3 1 in
  Alcotest.(check string) "paper's C1 (10-)" "10-"
    (Configuration.vector_partial ~subset:[ 0; 1 ] c1)

let test_make_invalid () =
  Alcotest.check_raises "out of range"
    (Invalid_argument "Configuration.make: index 8 out of range for 3 opamps") (fun () ->
      ignore (Configuration.make ~n_opamps:3 8))

(* --- transform --- *)

let tow_thomas_dft () =
  let b = Circuits.Tow_thomas.make () in
  Transform.make ~source:"Vin" ~output:"v2" b.Circuits.Benchmark.netlist

let test_transform_basics () =
  let dft = tow_thomas_dft () in
  Alcotest.(check int) "3 opamps" 3 (Transform.n_opamps dft);
  Alcotest.(check string) "chain order" "OP1" (Transform.opamp_label dft 0);
  Alcotest.(check string) "chain order" "OP3" (Transform.opamp_label dft 2)

let test_functional_view_is_identity () =
  let dft = tow_thomas_dft () in
  let view = Transform.emulate dft (Configuration.make ~n_opamps:3 0) in
  (* emulating C0 must not alter the response *)
  let base = dft.Transform.base in
  List.iter
    (fun f ->
      let w = 2.0 *. Float.pi *. f in
      let a = Mna.Ac.transfer ~source:"Vin" ~output:"v2" base ~omega:w in
      let b = Mna.Ac.transfer ~source:"Vin" ~output:"v2" view ~omega:w in
      Alcotest.(check (float 1e-12)) "same response" (Complex.norm a) (Complex.norm b))
    [ 10.0; 1000.0; 50_000.0 ]

let test_transparent_view_is_identity_function () =
  (* all opamps in follower mode: the circuit propagates the input to
     the primary output unchanged *)
  let dft = tow_thomas_dft () in
  let view = Transform.emulate dft (Configuration.make ~n_opamps:3 7) in
  List.iter
    (fun f ->
      let h = Mna.Ac.transfer ~source:"Vin" ~output:"v2" view ~omega:(2.0 *. Float.pi *. f) in
      Alcotest.(check (float 1e-9)) "unity" 1.0 (Complex.norm h))
    [ 1.0; 1000.0; 100_000.0 ]

let test_follower_buffers_chain_input () =
  (* with only OP1 in follower mode its output must equal the circuit
     input exactly *)
  let dft = tow_thomas_dft () in
  let view = Transform.emulate dft (Configuration.make ~n_opamps:3 1) in
  let sol = Mna.Ac.solve ~sources:(Mna.Assemble.Only "Vin") view ~omega:(2.0 *. Float.pi *. 500.0) in
  let v1 = Mna.Ac.voltage sol "v1" and vin = Mna.Ac.voltage sol "in" in
  Alcotest.(check (float 1e-12)) "buffered" (Complex.norm vin) (Complex.norm v1)

let test_all_views_solvable () =
  let dft = tow_thomas_dft () in
  List.iter
    (fun config ->
      let view = Transform.emulate dft config in
      let h = Mna.Ac.transfer ~source:"Vin" ~output:"v2" view ~omega:(2.0 *. Float.pi *. 777.0) in
      Alcotest.(check bool)
        (Printf.sprintf "%s finite" (Configuration.label config))
        true
        (Float.is_finite (Complex.norm h)))
    (Transform.configurations dft)

let test_views_differ () =
  (* different configurations implement different functions *)
  let dft = tow_thomas_dft () in
  let w = 2.0 *. Float.pi *. 100.0 in
  let response config =
    Complex.norm
      (Mna.Ac.transfer ~source:"Vin" ~output:"v2" (Transform.emulate dft config) ~omega:w)
  in
  let c0 = response (Configuration.make ~n_opamps:3 0) in
  let c2 = response (Configuration.make ~n_opamps:3 2) in
  Alcotest.(check bool) "C0 and C2 differ" true (Float.abs (c0 -. c2) > 1e-3)

let test_emulate_preserves_passives () =
  let dft = tow_thomas_dft () in
  List.iter
    (fun config ->
      let view = Transform.emulate dft config in
      Alcotest.(check int) "8 passives" 8 (List.length (Netlist.passives view)))
    (Transform.configurations dft)

let test_make_errors () =
  let b = Circuits.Tow_thomas.make () in
  let nl = b.Circuits.Benchmark.netlist in
  Alcotest.check_raises "unknown source"
    (Invalid_argument "Transform.make: no source \"VX\"") (fun () ->
      ignore (Transform.make ~source:"VX" ~output:"v2" nl));
  Alcotest.check_raises "bad chain"
    (Invalid_argument "Transform.make: chain is not a permutation of the circuit's opamps")
    (fun () -> ignore (Transform.make ~chain:[ "OP1" ] ~source:"Vin" ~output:"v2" nl))

let qcheck_followers_match_bits =
  QCheck.Test.make ~name:"followers = set bits of the index" ~count:200
    QCheck.(pair (int_range 1 10) (int_range 0 1023))
    (fun (n, i) ->
      let i = i mod (1 lsl n) in
      let c = Configuration.make ~n_opamps:n i in
      let from_bits =
        List.filter (fun k -> i land (1 lsl k) <> 0) (List.init n Fun.id)
      in
      followers c = from_bits)

let suite =
  [
    Alcotest.test_case "configuration counts" `Quick test_counts;
    Alcotest.test_case "bit convention" `Quick test_bit_convention;
    Alcotest.test_case "functional/transparent" `Quick test_functional_transparent;
    Alcotest.test_case "restriction" `Quick test_restriction;
    Alcotest.test_case "vector partial" `Quick test_vector_partial;
    Alcotest.test_case "make invalid" `Quick test_make_invalid;
    Alcotest.test_case "transform basics" `Quick test_transform_basics;
    Alcotest.test_case "functional view identity" `Quick test_functional_view_is_identity;
    Alcotest.test_case "transparent propagates input" `Quick test_transparent_view_is_identity_function;
    Alcotest.test_case "follower buffers chain input" `Quick test_follower_buffers_chain_input;
    Alcotest.test_case "all views solvable" `Quick test_all_views_solvable;
    Alcotest.test_case "views differ" `Quick test_views_differ;
    Alcotest.test_case "passives preserved" `Quick test_emulate_preserves_passives;
    Alcotest.test_case "make errors" `Quick test_make_errors;
    QCheck_alcotest.to_alcotest qcheck_followers_match_bits;
  ]

(* --- configuration sequencing --- *)

let test_switch_cost () =
  Alcotest.(check int) "empty" 0 (Multiconfig.Sequence.switch_cost []);
  (* from C0: 0->1 (1 bit), 1->3 (1 bit), 3->2 (1 bit) *)
  Alcotest.(check int) "gray path" 3 (Multiconfig.Sequence.switch_cost [ 1; 3; 2 ]);
  (* a bad order pays more *)
  Alcotest.(check int) "bad order" 5 (Multiconfig.Sequence.switch_cost [ 3; 1; 2 ])

let test_order_improves () =
  let configs = [ 7; 1; 6; 2; 5; 3; 4 ] in
  let ordered = Multiconfig.Sequence.order configs in
  Alcotest.(check (list int)) "permutation" (List.sort compare configs)
    (List.sort compare ordered);
  Alcotest.(check bool) "never worse" true
    (Multiconfig.Sequence.switch_cost ordered
    <= Multiconfig.Sequence.switch_cost configs)

let test_order_full_space_is_gray_like () =
  (* visiting all 7 test configurations of a 3-opamp circuit can be
     done with 7 switches (a Gray walk); the heuristic should find it *)
  let ordered = Multiconfig.Sequence.order [ 1; 2; 3; 4; 5; 6; 7 ] in
  Alcotest.(check int) "7 single-bit switches" 7
    (Multiconfig.Sequence.switch_cost ordered)

let qcheck_order_is_permutation =
  QCheck.Test.make ~name:"sequence order is a cost-no-worse permutation" ~count:100
    QCheck.(list_of_size Gen.(int_range 0 10) (int_range 0 255))
    (fun configs ->
      let configs = List.sort_uniq compare configs in
      let ordered = Multiconfig.Sequence.order configs in
      List.sort compare ordered = List.sort compare configs
      && Multiconfig.Sequence.switch_cost ordered
         <= Multiconfig.Sequence.switch_cost configs)

let suite =
  suite
  @ [
      Alcotest.test_case "switch cost" `Quick test_switch_cost;
      Alcotest.test_case "order improves" `Quick test_order_improves;
      Alcotest.test_case "order full space" `Quick test_order_full_space_is_gray_like;
      QCheck_alcotest.to_alcotest qcheck_order_is_permutation;
    ]
