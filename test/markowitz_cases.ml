(* The sparse patterns whose Markowitz pivot order
   test/fixtures/markowitz_order.txt pins: the output cones of every
   test view of two bigladders, every live cone engine of the registry
   circuits (leapfrog5 among them), seeded generator circuits, and random
   sparse matrices with many exact magnitude ties (so the search's
   tie-break order is exercised, not only its Markowitz counts). Each
   case renders to one line — label, row order, column order and an
   MD5 of the filled L/U patterns, or "singular" — so a regenerated
   fixture diffs line by line. *)

module Csparse = Linalg.Csparse
module Gen = Conformance.Gen

type case = {
  label : string;
  pattern : Csparse.pattern;
  vals : Csparse.plane;
}

let of_netlist ~label ~source ~omega netlist =
  let sp =
    Mna.Stamps.build_sparse ~sources:(Mna.Assemble.Only source) netlist
  in
  let pattern = Mna.Stamps.sparse_pattern sp in
  let vals = Csparse.plane (2 * Csparse.nnz pattern) in
  Mna.Stamps.fill_sparse sp ~omega vals;
  { label; pattern; vals }

(* Every distinct test-view cone of a bigladder, at the grid's centre. *)
let bigladder_cones stages =
  let netlist, output = Gen.bigladder ~stages (Random.State.make [| 0x5bad; stages |]) in
  let dft = Multiconfig.Transform.make ~source:"V1" ~output netlist in
  let probe = { Testability.Detect.source = "V1"; output } in
  let faults = Fault.deviation_faults netlist in
  List.map
    (fun config ->
      let view = Multiconfig.Transform.emulate dft config in
      let s = Testability.Detect.structure ~faults probe view in
      of_netlist
        ~label:
          (Printf.sprintf "bigladder-%d/%s" stages (Multiconfig.Configuration.label config))
        ~source:"V1" ~omega:(2.0 *. Float.pi *. 10_000.0)
        (Testability.Detect.engine_netlist s))
    (Multiconfig.Transform.test_configurations dft)

(* Every live engine a registry circuit's campaign builds (the output
   cone, or the whole view where the cone is not certified), at the
   values {!Testability.Fastsim} analyzes: the middle frequency of the
   campaign's grid at 10 points per decade. An engine several views
   share is listed once, under its first view. *)
let registry_cones () =
  let seen = Hashtbl.create 256 in
  List.concat_map
    (fun (b : Circuits.Benchmark.t) ->
      let freqs =
        Testability.Grid.freqs_hz
          (Testability.Grid.around ~points_per_decade:10 ~center_hz:b.center_hz ())
      in
      let omega = 2.0 *. Float.pi *. freqs.(Array.length freqs / 2) in
      let dft = Multiconfig.Transform.make ~source:b.source ~output:b.output b.netlist in
      let probe = { Testability.Detect.source = b.source; output = b.output } in
      let faults = Fault.deviation_faults b.netlist in
      List.filter_map
        (fun config ->
          let view = Multiconfig.Transform.emulate dft config in
          let s = Testability.Detect.structure ~faults probe view in
          let engine = Testability.Detect.engine_netlist s in
          let key = Spice.Writer.to_string engine in
          if Testability.Detect.engine_dim s = 0 || Hashtbl.mem seen key then None
          else begin
            Hashtbl.add seen key ();
            Some
              (of_netlist
                 ~label:
                   (Printf.sprintf "%s/%s" b.name (Multiconfig.Configuration.label config))
                 ~source:b.source ~omega engine)
          end)
        (Multiconfig.Transform.test_configurations dft))
    (Circuits.Registry.all ())

let generated family seeds =
  List.filter_map
    (fun seed ->
      let s = Gen.generate family ~seed in
      match
        of_netlist ~label:s.Gen.label ~source:s.Gen.source
          ~omega:(2.0 *. Float.pi *. 1_000.0) s.Gen.netlist
      with
      | c -> Some c
      | exception (Not_found | Invalid_argument _) -> None)
    seeds

(* A random n×n pattern with a full diagonal and about [per_col] more
   entries per column; values are drawn from a few integers so equal
   magnitudes (and equal Markowitz counts) are common. *)
let random_soup seed =
  let rng = Random.State.make [| 0x6d6b; seed |] in
  let n = 2 + Random.State.int rng 40 in
  let per_col = 1 + Random.State.int rng 3 in
  let tbl = Hashtbl.create 64 in
  for i = 0 to n - 1 do
    Hashtbl.replace tbl (i, i) ()
  done;
  for _ = 1 to n * per_col do
    Hashtbl.replace tbl (Random.State.int rng n, Random.State.int rng n) ()
  done;
  let entries = Hashtbl.fold (fun k () acc -> k :: acc) tbl [] |> List.sort compare in
  let pattern = Csparse.pattern ~n (Array.of_list entries) in
  let nnz = Csparse.nnz pattern in
  let vals = Csparse.plane (2 * nnz) in
  let draw () =
    let v = [| -2.0; -1.0; 1.0; 2.0 |].(Random.State.int rng 4) in
    if Random.State.int rng 8 = 0 then v *. 1e-6 else v
  in
  for k = 0 to Csparse.nnz pattern - 1 do
    Bigarray.Array1.set vals k (draw ());
    if Random.State.bool rng then Bigarray.Array1.set vals (nnz + k) (draw ())
  done;
  { label = Printf.sprintf "soup-matrix#%d" seed; pattern; vals }

let cases () =
  bigladder_cones 40 @ bigladder_cones 200 @ registry_cones ()
  @ generated Gen.Ladder (List.init 20 Fun.id)
  @ generated Gen.Soup (List.init 30 Fun.id)
  @ generated Gen.Near_singular (List.init 15 Fun.id)
  @ generated Gen.Active_chain (List.init 10 Fun.id)
  @ List.init 60 random_soup

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))

let render { label; pattern; vals } =
  match Csparse.analyze pattern vals with
  | exception Linalg.Cmat.Singular -> Printf.sprintf "%s singular" label
  | sym ->
      let roworder, colorder = Csparse.pivot_order sym in
      let lp, li, up, ui = Csparse.factor_pattern sym in
      let lu =
        Digest.to_hex (Digest.string (String.concat ";" (List.map ints [ lp; li; up; ui ])))
      in
      Printf.sprintf "%s %s %s %s" label (ints roworder) (ints colorder) lu
