module P = Mcdft_core.Pipeline
module D = Diagnosis.Dictionary
module T = Diagnosis.Trajectory
module CGen = Conformance.Gen
module Oracle = Conformance.Oracle

let pipeline = lazy (P.run ~points_per_decade:12 (Circuits.Tow_thomas.make ()))
let dict = lazy (D.build (Lazy.force pipeline))
let traj = lazy (T.of_pipeline (Lazy.force pipeline))

(* ---- binary pass/fail dictionary ---- *)

let test_dictionary_shape () =
  let d = Lazy.force dict in
  Alcotest.(check int) "7 configurations" 7 (List.length d.D.configs);
  Alcotest.(check int) "8 faults" 8 (Array.length d.D.faults);
  let expected_len = 7 * Array.length d.D.freqs_hz in
  Array.iter
    (fun s -> Alcotest.(check int) "signature length" expected_len (Array.length s))
    d.D.signatures

let test_groups_partition_faults () =
  let d = Lazy.force dict in
  let groups = D.ambiguity_groups d in
  let total = List.fold_left (fun acc g -> acc + List.length g) 0 groups in
  Alcotest.(check int) "partition" (Array.length d.D.faults) total;
  List.iter
    (fun g -> Alcotest.(check bool) "non-empty group" true (g <> []))
    groups

let test_multiconfig_improves_resolution () =
  let t = Lazy.force pipeline in
  let functional_only = D.build ~configs:[ 0 ] t in
  let all_configs = Lazy.force dict in
  Alcotest.(check bool)
    (Printf.sprintf "resolution %.2f (C0) <= %.2f (all)"
       (D.resolution functional_only) (D.resolution all_configs))
    true
    (D.resolution functional_only <= D.resolution all_configs);
  Alcotest.(check bool) "multi-config resolution is high" true
    (D.resolution all_configs >= 0.7)

let test_diagnose_identifies_injected_fault () =
  (* closed loop: each fault's re-simulated signature is exactly the
     one the dictionary stores for it *)
  let t = Lazy.force pipeline in
  let d = Lazy.force dict in
  Array.iteri
    (fun j fault ->
      Alcotest.(check (array bool))
        (fault.Fault.id ^ " signature") d.D.signatures.(j) (D.signature_of t d fault))
    d.D.faults

let test_resolution_bounds () =
  let d = Lazy.force dict in
  let r = D.resolution d in
  Alcotest.(check bool) "within [0,1]" true (r >= 0.0 && r <= 1.0)

(* ---- analog trajectory classifier ---- *)

let test_trajectory_shape () =
  let t = Lazy.force traj in
  Alcotest.(check int) "8 faults" 8 (List.length (T.faults t));
  Alcotest.(check int) "7 views" (7 * Testability.Grid.n_points (Lazy.force pipeline).P.grid)
    (T.n_measurements t);
  Alcotest.(check int) "signature length" (T.n_measurements t)
    (Array.length (T.signature t 0))

let test_trajectory_round_trip () =
  (* the trajectory a fault's own simulator produces must classify back
     to that fault (distance exactly 0) or to an ambiguity set
     containing it *)
  let t = Lazy.force traj in
  List.iter
    (fun (f : Fault.t) ->
      let v = T.classify t (T.simulate t f) in
      let hit =
        v.T.fault.Fault.id = f.Fault.id
        || List.exists (fun g -> g.Fault.id = f.Fault.id) v.T.ambiguous
      in
      Alcotest.(check bool) (f.Fault.id ^ " located") true hit;
      Alcotest.(check bool) "confidence within [0,1]" true
        (v.T.confidence >= 0.0 && v.T.confidence <= 1.0))
    (T.faults t)

(* A fixture benchmark: the netlist of test/fixtures/<file>, driven by
   V1 and probed at [output]. *)
let fixture_bench file ~output =
  match Spice.Parser.parse_file (Cli.fixture file) with
  | Error _ -> Alcotest.failf "cannot parse fixture %s" file
  | Ok netlist ->
      {
        Circuits.Benchmark.name = Filename.remove_extension file;
        description = "fixture";
        netlist;
        source = "V1";
        output;
        center_hz = 1_000.0;
      }

(* Reconstruct the tester-side |H| log for fault 0 from its deviation
   signature and the nominal magnitudes, with [garbage] logged at every
   masked point (recorded nominal 0); converting back must recover the
   signature — 0 at the masked points, whatever the tester logged
   there — and classify to the fault. Returns the masked point count. *)
let magnitude_round_trip t ~garbage =
  let nom = T.nominal_magnitudes t in
  let sig0 = T.signature t 0 in
  let mags =
    Array.mapi
      (fun i s ->
        if nom.(i) = 0.0 then garbage else nom.(i) +. (s *. Float.max nom.(i) 1e-12))
      sig0
  in
  let recovered = T.deviations_of_magnitudes t mags in
  Array.iteri
    (fun i s ->
      if nom.(i) = 0.0 then
        Alcotest.(check (float 0.0)) (Printf.sprintf "masked deviation %d" i) 0.0 s;
      Alcotest.(check (float 1e-9)) (Printf.sprintf "deviation %d" i) s recovered.(i))
    sig0;
  let v = T.classify t recovered in
  let f0 = List.hd (T.faults t) in
  Alcotest.(check bool) "classified to the reconstructed fault" true
    (v.T.fault.Fault.id = f0.Fault.id
    || List.exists (fun g -> g.Fault.id = f0.Fault.id) v.T.ambiguous);
  Array.fold_left (fun n x -> if x = 0.0 then n + 1 else n) 0 nom

let test_magnitude_round_trip () =
  ignore (magnitude_round_trip (Lazy.force traj) ~garbage:1.0);
  (* dead_singular's C2 is dead: its source cannot reach out1, so every
     point of it is masked *)
  let dead =
    T.of_pipeline
      (P.run ~points_per_decade:6 (fixture_bench "dead_singular.cir" ~output:"out1"))
  in
  Alcotest.(check bool) "the dead view's points are masked" true
    (magnitude_round_trip dead ~garbage:5.0 > 0)

let test_ambiguity_sets_partition () =
  let t = Lazy.force traj in
  let sets = T.ambiguity_sets t in
  let total = List.fold_left (fun acc g -> acc + List.length g) 0 sets in
  Alcotest.(check int) "partition" (List.length (T.faults t)) total;
  let r = T.resolution t in
  Alcotest.(check bool) "resolution within [0,1]" true (r >= 0.0 && r <= 1.0);
  (* an infinite tolerance collapses everything into one set *)
  Alcotest.(check int) "one set at infinite tolerance" 1
    (List.length (T.ambiguity_sets ~tolerance:infinity t))

let test_config_subset_no_better () =
  (* dropping measurements can only lose diagnostic power *)
  let p = Lazy.force pipeline in
  let t_all = Lazy.force traj in
  let t_sub = T.of_pipeline ~configs:[ 0 ] p in
  Alcotest.(check bool)
    (Printf.sprintf "resolution %.2f (C0) <= %.2f (all)" (T.resolution t_sub)
       (T.resolution t_all))
    true
    (T.resolution t_sub <= T.resolution t_all)

let test_trajectory_rejects_bad_input () =
  let t = Lazy.force traj in
  (match T.classify t [| 0.0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "classify accepted a short observation");
  (match T.deviations_of_magnitudes t [| 1.0; 2.0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "deviations_of_magnitudes accepted a short log");
  match T.of_pipeline ~configs:[ 99 ] (Lazy.force pipeline) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "of_pipeline accepted an out-of-range config"

let test_unknown_element_simulate () =
  let t = Lazy.force traj in
  match T.simulate t (Fault.deviation ~element:"RZZZ" 1.2) with
  | exception Fault.Unknown_element "RZZZ" -> ()
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "simulate accepted an unknown element"

(* ---- trajectories are the campaign's record ---- *)

module Fastsim = Testability.Fastsim
module Matrix = Testability.Matrix
module Detect = Testability.Detect

(* every registry circuit's pipeline at ppd 10, by name *)
let registry_pipelines =
  lazy
    (List.map
       (fun (b : Circuits.Benchmark.t) ->
         (b.Circuits.Benchmark.name, P.run ~points_per_decade:10 ~jobs:1 b))
       (Circuits.Registry.all ()))

(* The whole-view trajectories the dictionary once simulated on engines
   of its own, kept as the reference for the campaign's records: one
   engine per view, every fault's row in one unmasked sweep, the signed
   deviation (|H_f| − |H_0|)/max(|H_0|, 1e-12) at every point, 1e3
   where the faulty system is singular. Returns the nominal |H| row
   and one trajectory per fault. *)
let whole_view_trajectories grid (v : Matrix.view) faults =
  let freqs_hz = Testability.Grid.freqs_hz grid in
  let nf = Array.length freqs_hz in
  let { Detect.source; output } = v.Matrix.probe in
  let e = Fastsim.create ~source ~output ~freqs_hz v.Matrix.netlist in
  let nominal = Array.map Complex.norm (Fastsim.nominal e) in
  let rows = List.length faults in
  let re = Array.init rows (fun _ -> Array.make nf 0.0)
  and im = Array.init rows (fun _ -> Array.make nf 0.0)
  and ok = Array.init rows (fun _ -> Bytes.make nf '\000') in
  Fastsim.sweep e
    (Array.of_list (List.map (Fastsim.plan_of e) faults))
    ~skip:(Array.make rows (Bytes.make nf '\000'))
    ~re ~im ~ok;
  let trajectory r =
    Array.init nf (fun k ->
        if Bytes.get ok.(r) k = '\001' then
          (Float.hypot re.(r).(k) im.(r).(k) -. nominal.(k)) /. Float.max nominal.(k) 1e-12
        else 1e3)
  in
  (nominal, List.init rows trajectory)

(* On every point the campaign measures (recorded nominal not 0) of
   every live view whose engine solves its output cone, the recorded
   nominal and deviation rows equal the whole-view reference within
   1e-9 relative — class members included, whose rows are their
   representative's. An isolated fault's row is masked too: its fault
   moves the output by exactly 0. *)
let test_rows_match_whole_view () =
  let close ~what ~ctx a b =
    if Float.abs (a -. b) > 1e-9 *. Float.max 1.0 (Float.abs b) then
      Alcotest.failf "%s: %s %.17g, whole-view reference %.17g" ctx what a b
  in
  let compared = ref 0 in
  List.iter
    (fun (name, (p : P.t)) ->
      let m = p.P.matrix in
      Array.iteri
        (fun i (v : Matrix.view) ->
          let pv =
            Detect.prepare_view ~faults:p.P.faults v.Matrix.probe p.P.grid v.Matrix.netlist
          in
          if not (Detect.view_dead pv || Detect.view_fallback pv) then begin
            let nominal, rows = whole_view_trajectories p.P.grid v p.P.faults in
            let measured k = m.Matrix.nominal.(i).(k) <> 0.0 in
            let ctx k = Printf.sprintf "%s %s point %d" name v.Matrix.label k in
            Array.iteri
              (fun k nom ->
                if measured k then
                  close ~what:"nominal" ~ctx:(ctx k) m.Matrix.nominal.(i).(k) nom)
              nominal;
            List.iteri
              (fun j row ->
                let isolated =
                  Detect.plan_isolated (Detect.plan_fault pv m.Matrix.faults.(j))
                in
                Array.iteri
                  (fun k old ->
                    if measured k && not isolated then begin
                      incr compared;
                      close
                        ~what:(m.Matrix.faults.(j).Fault.id ^ " deviation")
                        ~ctx:(ctx k) m.Matrix.deviations.(i).(j).(k) old
                    end)
                  row)
              rows
          end)
        m.Matrix.views)
    (Lazy.force registry_pipelines);
  Alcotest.(check bool) "points compared" true (!compared > 0)

(* A one-fault campaign ({!T.simulate}) reproduces the fault's row in
   the pipeline's campaign bit for bit, although it locks only that
   fault's rows when it groups the views into cone classes: every fault
   of tow-thomas, tt-notch and leapfrog5 at ppd 10. *)
let test_simulate_equals_recorded () =
  let bits a b =
    Array.length a = Array.length b
    && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b
  in
  List.iter
    (fun name ->
      let t = T.of_pipeline (List.assoc name (Lazy.force registry_pipelines)) in
      List.iteri
        (fun j (f : Fault.t) ->
          if not (bits (T.simulate t f) (T.signature t j)) then
            Alcotest.failf "%s %s: simulated trajectory differs from the recorded one" name
              f.Fault.id)
        (T.faults t))
    [ "tow-thomas"; "tt-notch"; "leapfrog5" ]

(* leapfrog5's C196–C199 and C212–C215 cancel: their nominal output is
   round-off. A fault that breaks the cancellation lifts it by many
   decades (C214 × R4a+20 % at 100 Hz: faulty |H| ~1e3 against a
   nominal ~1e-15), which a trajectory once read as a 1e13 deviation.
   The campaign masks those points, and the trajectory reads 0 there. *)
let test_leapfrog_cancelling_views_read_zero () =
  let p = List.assoc "leapfrog5" (Lazy.force registry_pipelines) in
  let t = T.of_pipeline p in
  let nf = Testability.Grid.n_points p.P.grid in
  (* of_pipeline's views are the pipeline's, in order *)
  let labels =
    Array.map (fun v -> v.Testability.Matrix.label) p.P.matrix.Testability.Matrix.views
  in
  let nom = T.nominal_magnitudes t in
  let view label =
    let rec go i = if labels.(i) = label then i else go (i + 1) in
    go 0
  in
  let fault id =
    let rec go j = function
      | (f : Fault.t) :: rest -> if f.Fault.id = id then j else go (j + 1) rest
      | [] -> Alcotest.failf "no fault %s" id
    in
    go 0 (T.faults t)
  in
  let k100 =
    let freqs = Testability.Grid.freqs_hz p.P.grid in
    let rec go k = if Float.abs (freqs.(k) -. 100.0) < 1e-6 then k else go (k + 1) in
    go 0
  in
  let c214 = view "C214" in
  Alcotest.(check (float 0.0)) "C214 x R4a+20% at 100 Hz" 0.0
    (T.signature t (fault "R4a+20%")).((c214 * nf) + k100);
  let masked = ref 0 in
  List.iter
    (fun label ->
      let i = view label in
      for k = 0 to nf - 1 do
        if nom.((i * nf) + k) = 0.0 then begin
          incr masked;
          List.iteri
            (fun j (f : Fault.t) ->
              let d = (T.signature t j).((i * nf) + k) in
              if d <> 0.0 then
                Alcotest.failf "%s x %s, masked point %d reads %g" label f.Fault.id k d)
            (T.faults t)
        end
      done)
    [ "C196"; "C197"; "C198"; "C199"; "C212"; "C213"; "C214"; "C215" ];
  Alcotest.(check bool) "masked points checked" true (!masked > 0)

(* A view singular only outside its output cone (the opamp OP1 has no
   feedback; the cone V1-RB-RP1 is regular): the campaign solves the
   cone, and so does every trajectory, which are its records. *)
let test_singular_outside_cone () =
  let expected = Cli.fixture "shrunk/soup-3--diagnosis.expected.json" in
  match Conformance.Shrink.load ~expected with
  | Error e -> Alcotest.fail e
  | Ok repro ->
      let netlist = repro.Conformance.Shrink.netlist in
      Alcotest.check_raises "the whole view is singular"
        (Mna.Ac.Singular_circuit "MNA matrix singular at f = 10 Hz for \"soup\"")
        (fun () ->
          ignore
            (Fastsim.create ~source:repro.Conformance.Shrink.source
               ~output:repro.Conformance.Shrink.output ~freqs_hz:[| 10.0 |] netlist));
      let b =
        {
          Circuits.Benchmark.name = "soup";
          description = "fixture";
          netlist;
          source = repro.Conformance.Shrink.source;
          output = repro.Conformance.Shrink.output;
          center_hz = 1_000.0;
        }
      in
      let faults = Fault.both_deviations netlist in
      let t = T.of_pipeline (P.run ~points_per_decade:3 ~faults ~jobs:1 b) in
      Alcotest.(check int) "every fault has a trajectory" (List.length faults)
        (List.length (T.faults t));
      (match Conformance.Shrink.replay repro with
      | Ok Oracle.Pass -> ()
      | Ok v -> Alcotest.failf "diagnosis oracle: %s" (Oracle.verdict_to_string v)
      | Error e -> Alcotest.fail e)

(* ---- diagnosis round-trip over the conformance generators ---- *)

let qcheck_gen_family_round_trip =
  let diagnosis_oracle =
    match Oracle.find "diagnosis" with
    | Some o -> o
    | None -> failwith "diagnosis oracle not registered"
  in
  QCheck.Test.make ~count:12 ~name:"diagnosis round-trip over Gen families"
    QCheck.(pair (oneofl CGen.families) (int_bound 1000))
    (fun (family, seed) ->
      let s = CGen.generate family ~seed in
      match Oracle.run diagnosis_oracle s with
      | Oracle.Pass | Oracle.Skip _ -> true
      | Oracle.Fail m ->
          QCheck.Test.fail_reportf "%s seed %d: %s" (CGen.family_name family) seed m)

(* [mcdft diagnose --configs] without a fault to simulate prints both
   resolutions over the measured configurations: the dictionary's is
   built from those configurations too, not from all of them. On
   tow-thomas at ppd 10, C0 alone resolves 1 of 3 detectable faults
   where all seven configurations resolve 6 of 8. *)
let test_cli_configs_dictionary () =
  let t = P.run ~points_per_decade:10 (Circuits.Tow_thomas.make ()) in
  let line configs =
    Printf.sprintf "trajectory resolution: %.1f%%   (dictionary: %.1f%%)"
      (100.0 *. T.resolution (T.of_pipeline ?configs t))
      (100.0 *. D.resolution (D.build ?configs t))
  in
  List.iter
    (fun (args, configs) ->
      let code, out = Cli.capture ("diagnose tow-thomas --points-per-decade 10" ^ args) in
      Alcotest.(check int) ("exit code" ^ args) 0 code;
      let expected = line configs in
      if not (List.mem expected (String.split_on_char '\n' out)) then
        Alcotest.failf "diagnose%s: no line %S in\n%s" args expected out)
    [ ("", None); (" --configs 0", Some [ 0 ]) ];
  Alcotest.(check bool) "C0 alone resolves less than every configuration" true
    (D.resolution (D.build ~configs:[ 0 ] t) < D.resolution (D.build t))

let suite =
  [
    Alcotest.test_case "dictionary shape" `Quick test_dictionary_shape;
    Alcotest.test_case "groups partition" `Quick test_groups_partition_faults;
    Alcotest.test_case "multiconfig improves resolution" `Quick test_multiconfig_improves_resolution;
    Alcotest.test_case "closed-loop diagnosis" `Quick test_diagnose_identifies_injected_fault;
    Alcotest.test_case "resolution bounds" `Quick test_resolution_bounds;
    Alcotest.test_case "trajectory shape" `Quick test_trajectory_shape;
    Alcotest.test_case "trajectory round trip" `Quick test_trajectory_round_trip;
    Alcotest.test_case "magnitude round trip" `Quick test_magnitude_round_trip;
    Alcotest.test_case "ambiguity sets partition" `Quick test_ambiguity_sets_partition;
    Alcotest.test_case "config subset no better" `Quick test_config_subset_no_better;
    Alcotest.test_case "bad trajectory input rejected" `Quick
      test_trajectory_rejects_bad_input;
    Alcotest.test_case "unknown element on simulate" `Quick
      test_unknown_element_simulate;
    Alcotest.test_case "CLI diagnose --configs: dictionary over the measured set" `Quick
      test_cli_configs_dictionary;
    Alcotest.test_case "recorded rows = whole-view trajectories (registry, ppd 10)" `Quick
      test_rows_match_whole_view;
    Alcotest.test_case "simulate = recorded trajectory (tow-thomas, tt-notch, leapfrog5)"
      `Quick test_simulate_equals_recorded;
    Alcotest.test_case "leapfrog5 cancelling views read 0" `Quick
      test_leapfrog_cancelling_views_read_zero;
    Alcotest.test_case "singular only outside the cone" `Quick test_singular_outside_cone;
    QCheck_alcotest.to_alcotest qcheck_gen_family_round_trip;
  ]
