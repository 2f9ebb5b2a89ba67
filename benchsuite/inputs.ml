(* Seeded SPICE inputs. The program under test sees only the generated
   text: every unit of work parses it again, exactly as a CLI user's
   run would. Seed 0 writes the registry circuits at their nominal
   values; seed s > 0 scales every passive by its own log-uniform
   factor in [1/1.02, 1.02] — a 2 % tolerance draw, small enough that
   the campaign's size and structure stay those of the nominal circuit
   while its verdicts and solve counts move with the seed. *)

module Netlist = Circuit.Netlist
module Element = Circuit.Element

type circuit = {
  name : string;
  source : string;
  output : string;
  center_hz : float;
  text : string;  (** The SPICE netlist the unit of work parses. *)
}

let tolerance = 1.02

(* the constant keys the stream away from the fuzzer's and tests' own
   Random.State.make [| seed |] streams *)
let rng_of ~seed = Random.State.make [| 0x6d63_6266; seed |]

let scale_passives rng netlist =
  let ln_tol = log tolerance in
  List.fold_left
    (fun n e ->
      let factor = exp (Random.State.float rng (2.0 *. ln_tol) -. ln_tol) in
      Netlist.map_value ~name:(Element.name e) ~f:(fun v -> v *. factor) n)
    netlist (Netlist.passives netlist)

let registry ~seed names =
  let rng = rng_of ~seed in
  List.map
    (fun name ->
      let b =
        match Circuits.Registry.find name with
        | Some b -> b
        | None -> invalid_arg ("Inputs.registry: unknown circuit " ^ name)
      in
      let netlist =
        if seed = 0 then b.Circuits.Benchmark.netlist
        else scale_passives rng b.Circuits.Benchmark.netlist
      in
      {
        name;
        source = b.Circuits.Benchmark.source;
        output = b.Circuits.Benchmark.output;
        center_hz = b.Circuits.Benchmark.center_hz;
        text = Spice.Writer.to_string netlist;
      })
    names

(* Spice.Writer prints an opamp card under the element's own name, and
   the parser only reads opamp cards whose name starts with X or O, so
   Gen.bigladder's U1..U3 would not parse back. Rename them here
   instead of changing the writer. *)
let x_named_opamps netlist =
  Netlist.of_elements ~title:(Netlist.title netlist)
    (List.map
       (function
         | Element.Opamp o
           when not (String.length o.name > 0 && (o.name.[0] = 'X' || o.name.[0] = 'O')) ->
             Element.Opamp { o with name = "X" ^ o.name }
         | e -> e)
       (Netlist.elements netlist))

let ladder ~seed ~stages =
  let netlist, output = Conformance.Gen.bigladder ~stages (rng_of ~seed) in
  {
    name = Printf.sprintf "bigladder-%d" stages;
    source = "V1";
    output;
    center_hz = 10_000.0;
    text = Spice.Writer.to_string (x_named_opamps netlist);
  }

let parse c =
  match Spice.Parser.parse_string c.text with
  | Error e -> failwith (Printf.sprintf "%s: %s" c.name (Spice.Parser.error_to_string e))
  | Ok netlist ->
      {
        Circuits.Benchmark.name = c.name;
        description = Netlist.title netlist;
        netlist;
        source = c.source;
        output = c.output;
        center_hz = c.center_hz;
      }
