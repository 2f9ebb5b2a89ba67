(* The fault-simulation campaign engine against its oracles:
   - split stamp assembly vs the complex-field functor assembly;
   - rank-1 (Sherman–Morrison) faulty responses vs naive
     inject-and-resolve, including catastrophic and structural faults;
   - worker-count independence of the parallel campaign. *)

open Testability
module Netlist = Circuit.Netlist

let benchmarks = Circuits.Registry.all ()

let grid_of b =
  Grid.around ~points_per_decade:4 ~center_hz:b.Circuits.Benchmark.center_hz ()

(* [metered f] runs [f] with Obs.Metrics enabled from zero and returns
   its result with the counters it booked. *)
let metered f =
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ())
    (fun () ->
      let r = f () in
      (r, Obs.Metrics.snapshot ()))

let counter = Obs.Metrics.counter

(* (SMW, full) point solves booked in a snapshot. *)
let solves snap = (counter snap "fastsim.smw_solves", counter snap "fastsim.full_solves")

(* A passive RLC divider: the zoo is opamp-RC only, and the inductor
   branch is what exercises the engine's structural-fault fallback
   (an inductor open/short changes the MNA dimension). *)
let rlc =
  Netlist.empty ~title:"rlc divider" ()
  |> Netlist.vsource ~name:"Vin" "in" "0" 1.0
  |> Netlist.resistor ~name:"R1" "in" "out" 1_000.0
  |> Netlist.inductor ~name:"L1" "out" "0" 10e-3
  |> Netlist.capacitor ~name:"C1" "out" "0" 100e-9

let rlc_center_hz = 5_033.0 (* 1 / (2π√(LC)) *)

(* --- split assembly vs complex-field functor assembly ------------- *)

let functor_system ~source ~omega index netlist =
  let module F = (val Mna.Field.complex ~omega : Mna.Field.S with type t = Complex.t) in
  let module A = Mna.Assemble.Make (F) in
  let { A.matrix; rhs } = A.assemble ~sources:(Mna.Assemble.Only source) index netlist in
  (matrix, rhs)

let close ?(tol = 1e-12) a b =
  Complex.norm (Complex.sub a b) <= tol *. Float.max 1.0 (Complex.norm b)

let qcheck_split_assembly =
  QCheck.Test.make ~name:"split assembly matches functor assembly" ~count:60
    (QCheck.make QCheck.Gen.(pair (int_range 0 1000) (float_range 0.0 7.0)))
    (fun (pick, expo) ->
      let b = List.nth benchmarks (pick mod List.length benchmarks) in
      let netlist = b.Circuits.Benchmark.netlist
      and source = b.Circuits.Benchmark.source in
      let omega = 10.0 ** expo in
      let index = Mna.Index.build netlist in
      let stamps = Mna.Stamps.build ~sources:(Mna.Assemble.Only source) index netlist in
      let n = Mna.Stamps.size stamps in
      let m = Linalg.Cmat.create n n and b = Linalg.Cmat.Vec.create n in
      Mna.Stamps.fill stamps ~omega m;
      Mna.Stamps.rhs_into stamps ~omega b;
      let rhs = Linalg.Cmat.Vec.to_complex b in
      let f_matrix, f_rhs = functor_system ~source ~omega index netlist in
      let ok = ref (n = Array.length f_rhs) in
      for i = 0 to n - 1 do
        ok := !ok && close rhs.(i) f_rhs.(i);
        for j = 0 to n - 1 do
          ok := !ok && close (Linalg.Cmat.get m i j) f_matrix.(i).(j)
        done
      done;
      !ok)

(* --- rank-1 faulty responses vs naive inject-and-resolve ---------- *)

let naive_response ~source ~output ~freqs_hz fault netlist =
  let faulty = Fault.inject fault netlist in
  Array.map
    (fun f ->
      let omega = 2.0 *. Float.pi *. f in
      match Mna.Ac.transfer ~source ~output faulty ~omega with
      | t -> Some t
      | exception Mna.Ac.Singular_circuit _ -> None)
    freqs_hz

(* ±20 % deviations keep the faulty system as well-conditioned as the
   nominal one, and the refined rank-1 update matches a from-scratch
   resolve to machine precision — 1e-9 is generous. A catastrophic
   open/short rescales one conductance by ~10⁷, and the two paths'
   ulp-level assembly differences are amplified by the faulty system's
   condition number: agreement to ~1e-8 is all either path can claim
   against the other, so those are checked at 1e-6 (still far below
   any detection threshold). *)
let tol_for (fault : Fault.t) =
  match fault.Fault.kind with Fault.Deviation _ -> 1e-9 | _ -> 1e-6

let check_fault_equivalence ~source ~output ~freqs_hz sim fault netlist =
  let fast = Fastsim.response sim fault in
  let naive = naive_response ~source ~output ~freqs_hz fault netlist in
  Array.iteri
    (fun i fo ->
      match (fo, naive.(i)) with
      | None, None -> ()
      | Some a, Some b ->
          if not (close ~tol:(tol_for fault) a b) then
            Alcotest.fail
              (Printf.sprintf "%s at %g Hz: fast %g%+gi, naive %g%+gi"
                 fault.Fault.id
                 freqs_hz.(i) a.Complex.re a.Complex.im b.Complex.re b.Complex.im)
      | Some _, None | None, Some _ ->
          Alcotest.fail
            (Printf.sprintf "%s at %g Hz: singularity disagreement"
               fault.Fault.id
               freqs_hz.(i)))
    fast

let all_faults netlist =
  Fault.both_deviations netlist @ Fault.catastrophic_faults netlist

let test_fault_equivalence_zoo () =
  List.iter
    (fun b ->
      let netlist = b.Circuits.Benchmark.netlist
      and source = b.Circuits.Benchmark.source
      and output = b.Circuits.Benchmark.output in
      let freqs_hz = Grid.freqs_hz (grid_of b) in
      let sim = Fastsim.create ~source ~output ~freqs_hz netlist in
      List.iter
        (fun fault ->
          check_fault_equivalence ~source ~output ~freqs_hz sim fault netlist)
        (all_faults netlist))
    benchmarks

let test_fault_equivalence_rlc () =
  let freqs_hz =
    Grid.freqs_hz (Grid.around ~points_per_decade:4 ~center_hz:rlc_center_hz ())
  in
  let sim = Fastsim.create ~source:"Vin" ~output:"out" ~freqs_hz rlc in
  let (), snap =
    metered (fun () ->
        List.iter
          (fun fault ->
            check_fault_equivalence ~source:"Vin" ~output:"out" ~freqs_hz sim fault rlc)
          (all_faults rlc))
  in
  let smw, full = solves snap in
  if smw = 0 then Alcotest.fail "rank-1 path never used";
  (* the four L1 catastrophic/deviation point-solves include structural
     ones, which must not be claimed by the rank-1 counter *)
  if full = 0 then Alcotest.fail "structural fallback never used"

let test_smw_actually_used () =
  let b = Circuits.Tow_thomas.make () in
  let freqs_hz = Grid.freqs_hz (grid_of b) in
  let sim =
    Fastsim.create ~source:b.Circuits.Benchmark.source
      ~output:b.Circuits.Benchmark.output ~freqs_hz b.Circuits.Benchmark.netlist
  in
  let (), snap =
    metered (fun () ->
        List.iter
          (fun fault -> ignore (Fastsim.response sim fault))
          (Fault.both_deviations b.Circuits.Benchmark.netlist))
  in
  let smw, full = solves snap in
  Alcotest.(check bool) "rank-1 dominates" true (smw > 10 * Stdlib.max 1 full)

let test_nominal_matches_sweep () =
  List.iter
    (fun b ->
      let netlist = b.Circuits.Benchmark.netlist
      and source = b.Circuits.Benchmark.source
      and output = b.Circuits.Benchmark.output in
      let freqs_hz = Grid.freqs_hz (grid_of b) in
      let sim = Fastsim.create ~source ~output ~freqs_hz netlist in
      let sweep = Mna.Ac.sweep ~source ~output netlist ~freqs_hz in
      Array.iteri
        (fun i t ->
          if Fastsim.nominal sim |> fun n -> n.(i) <> t then
            Alcotest.fail
              (Printf.sprintf "%s: nominal differs from sweep at %g Hz"
                 b.Circuits.Benchmark.name freqs_hz.(i)))
        sweep)
    benchmarks

(* --- batched metrics flushes -------------------------------------- *)

(* The engine batches its Obs.Metrics increments into per-domain
   locals and flushes them once per response call, so the hot loop
   never touches the shared counter table. The batching must be
   invisible at call boundaries: every solved point is booked once, as
   an SMW or a full solve (no tow-thomas fault is structural or leaves
   the system unchanged). On a deviation campaign the a-priori
   residual bound clears points, and every cleared point is one of the
   SMW solves. *)
let test_metrics_batching_exact () =
  let b = Circuits.Tow_thomas.make () in
  let freqs_hz = Grid.freqs_hz (grid_of b) in
  let run faults =
    let sim =
      Fastsim.create ~source:b.Circuits.Benchmark.source
        ~output:b.Circuits.Benchmark.output ~freqs_hz b.Circuits.Benchmark.netlist
    in
    let (), snap =
      metered (fun () ->
          List.iter (fun fault -> ignore (Fastsim.response sim fault)) faults)
    in
    let smw, full = solves snap in
    Alcotest.(check int) "one solve booked per point"
      (List.length faults * Array.length freqs_hz)
      (smw + full);
    (smw, counter snap "fastsim.smw_cleared")
  in
  ignore (run (all_faults b.Circuits.Benchmark.netlist));
  let smw, cleared = run (Fault.deviation_faults b.Circuits.Benchmark.netlist) in
  if not (0 < cleared && cleared <= smw) then
    Alcotest.failf "smw_cleared %d outside (0, smw_solves = %d]" cleared smw

(* --- the sweep: every row of a view, one block per frequency ------- *)

let response_bits sim fault =
  Array.map
    (Option.map (fun (z : Complex.t) ->
         (Int64.bits_of_float z.Complex.re, Int64.bits_of_float z.Complex.im)))
    (Fastsim.response sim fault)

(* The column a fault's row reads at each point it solves: its
   element's stamp pattern, keyed like the engine's slots by ordered
   node pair (or an inductor's branch), so faults on one node pair
   share it; [None] for a row that reads none — a structural fault, or
   one that leaves the system unchanged. *)
let column_key netlist (fault : Fault.t) =
  match (fault.Fault.kind, Netlist.find netlist fault.Fault.element) with
  | Fault.Deviation 1.0, _ -> None
  | _, Some (Circuit.Element.Resistor { n1; n2; _ } | Circuit.Element.Capacitor { n1; n2; _ })
    when n1 <> n2 ->
      Some (n1, n2)
  | Fault.Deviation _, Some (Circuit.Element.Inductor { name; _ }) -> Some ("branch", name)
  | _ -> None

(* Sweep [rows] — (fault, skip mask) pairs — in one call and hold it to
   one [Fastsim.response] per row: bitwise equal at every unskipped
   slot, untouched at every skipped one. The counters are the sweep's:
   at each frequency a miss per distinct column its rows read, a hit
   for every other read. Returns the sweep's counter snapshot. *)
let check_sweep ~label sim netlist rows =
  let nf = Array.length (Fastsim.nominal sim) in
  let m = List.length rows in
  let plans = Array.of_list (List.map (fun (fault, _) -> Fastsim.plan_of sim fault) rows) in
  let re = Array.init m (fun _ -> Array.make nf 42.0)
  and im = Array.init m (fun _ -> Array.make nf (-7.0))
  and ok = Array.init m (fun _ -> Bytes.make nf 'x') in
  let (), snap =
    metered (fun () ->
        Fastsim.sweep sim plans ~skip:(Array.of_list (List.map snd rows)) ~re ~im ~ok)
  in
  List.iteri
    (fun r ((fault : Fault.t), mask) ->
      let expected = response_bits sim fault in
      for k = 0 to nf - 1 do
        if Bytes.get mask k = '\001' then begin
          if not (re.(r).(k) = 42.0 && im.(r).(k) = -7.0 && Bytes.get ok.(r) k = 'x') then
            Alcotest.failf "%s, %s, slot %d: skipped slot written" label fault.Fault.id k
        end
        else
          let got =
            if Bytes.get ok.(r) k = '\000' then None
            else Some (Int64.bits_of_float re.(r).(k), Int64.bits_of_float im.(r).(k))
          in
          if got <> expected.(k) then
            Alcotest.failf "%s, %s, slot %d: differs from its one-fault response" label
              fault.Fault.id k
      done)
    rows;
  let misses = ref 0 and hits = ref 0 in
  for k = 0 to nf - 1 do
    let keys =
      List.filter_map
        (fun (fault, mask) -> if Bytes.get mask k = '\000' then column_key netlist fault else None)
        rows
    in
    let distinct = List.length (List.sort_uniq compare keys) in
    misses := !misses + distinct;
    hits := !hits + List.length keys - distinct
  done;
  Alcotest.(check (pair int int))
    (label ^ ": misses = distinct (slot, f) columns read, hits = the other reads")
    (!misses, !hits)
    (counter snap "fastsim.wcache_misses", counter snap "fastsim.wcache_hits");
  snap

(* A view's rows as the campaign sweeps them: a +5 % drift of every
   passive at every point, then the view's faults under its
   measurement mask. *)
let view_rows ~label ~sparse ~source ~output grid netlist =
  let freqs_hz = Grid.freqs_hz grid in
  let nf = Array.length freqs_hz in
  let pv =
    Detect.prepare_view ~criterion:(Detect.Fixed_tolerance 0.1) { Detect.source; output } grid
      netlist
  in
  let mask = Bytes.init nf (fun k -> if Detect.below_floor pv k then '\001' else '\000') in
  let every = Bytes.make nf '\000' in
  let sim = Fastsim.create ~source ~output ~freqs_hz netlist in
  Alcotest.(check bool) (label ^ ": sparse backend") sparse (Fastsim.uses_sparse sim);
  let drifts =
    List.map
      (fun e -> (Fault.deviation ~element:(Circuit.Element.name e) 1.05, every))
      (Netlist.passives netlist)
  in
  let faults = List.map (fun f -> (f, mask)) (all_faults netlist) in
  (sim, mask, drifts @ faults)

let lf5_view k =
  let b = Option.get (Circuits.Registry.find "leapfrog5") in
  let dft =
    Multiconfig.Transform.make ~source:b.Circuits.Benchmark.source
      ~output:b.Circuits.Benchmark.output b.Circuits.Benchmark.netlist
  in
  let config = List.nth (Multiconfig.Transform.test_configurations dft) k in
  (b, Multiconfig.Configuration.label config, Multiconfig.Transform.emulate dft config)

(* Dense views with envelope drifts: tow-thomas, two leapfrog5
   configurations and the numerically dead C198, whose mask covers
   every point, so only its drifts are solved. R2 ‖ C1 share a node
   pair on tow-thomas, so its drifts alone already read shared
   columns. *)
let test_sweep_dense () =
  let tt = Circuits.Tow_thomas.make () in
  let subject (b : Circuits.Benchmark.t) label netlist =
    let grid = grid_of b in
    let sim, mask, rows =
      view_rows ~label ~sparse:false ~source:b.Circuits.Benchmark.source
        ~output:b.Circuits.Benchmark.output grid netlist
    in
    (mask, check_sweep ~label sim netlist rows)
  in
  let _, tt_snap = subject tt "tow-thomas" tt.Circuits.Benchmark.netlist in
  Alcotest.(check bool) "tow-thomas: rows share columns" true
    (counter tt_snap "fastsim.wcache_hits" > 0);
  List.iter
    (fun k ->
      let b, label, netlist = lf5_view k in
      ignore (subject b ("leapfrog5 " ^ label) netlist))
    [ 0; 100 ];
  let b, _, _ = lf5_view 0 in
  let dft =
    Multiconfig.Transform.make ~source:b.Circuits.Benchmark.source
      ~output:b.Circuits.Benchmark.output b.Circuits.Benchmark.netlist
  in
  let c198 =
    List.find
      (fun c -> Multiconfig.Configuration.label c = "C198")
      (Multiconfig.Transform.test_configurations dft)
  in
  let mask, _ =
    subject b "leapfrog5 C198" (Multiconfig.Transform.emulate dft c198)
  in
  Alcotest.(check bool) "C198: every point masked" true
    (Bytes.for_all (fun c -> c = '\001') mask)

(* The a-priori bound serves sparse engines too: on the ladder's
   drifts and faults it clears points, every one of them an SMW
   solve. *)
let test_sweep_sparse () =
  let netlist, output = Conformance.Gen.bigladder ~stages:70 (Random.State.make [| 7 |]) in
  let grid = Grid.make ~points_per_decade:2 ~f_lo:10.0 ~f_hi:1e6 () in
  let sim, _, rows = view_rows ~label:"bigladder-70" ~sparse:true ~source:"V1" ~output grid netlist in
  let snap = check_sweep ~label:"bigladder-70" sim netlist rows in
  let smw, _ = solves snap and cleared = counter snap "fastsim.smw_cleared" in
  if not (0 < cleared && cleared <= smw) then
    Alcotest.failf "bigladder-70: smw_cleared %d outside (0, smw_solves = %d]" cleared smw

(* A mixed mask on the RLC divider, whose faults cover rank-1 and
   structural plans (an inductor open or short changes the dimension),
   plus an unchanged one (a deviation by 1.0). Each kind of row solves
   exactly its unskipped slots, and only the rank-1 rows read
   columns. *)
let test_sweep_skip () =
  let freqs_hz =
    Grid.freqs_hz (Grid.around ~points_per_decade:4 ~center_hz:rlc_center_hz ())
  in
  let nf = Array.length freqs_hz in
  let skip = Bytes.init nf (fun k -> if k mod 3 = 1 then '\001' else '\000') in
  let solved = Bytes.fold_left (fun a c -> if c = '\000' then a + 1 else a) 0 skip in
  let sim = Fastsim.create ~source:"Vin" ~output:"out" ~freqs_hz rlc in
  let faults = Fault.deviation ~element:"R1" 1.0 :: all_faults rlc in
  let rows = List.map (fun f -> (f, skip)) faults in
  let smw, full = solves (check_sweep ~label:"rlc" sim rlc rows) in
  Alcotest.(check int) "one solve booked per unskipped slot of a row that moves the system"
    ((List.length faults - 1) * solved)
    (smw + full);
  Alcotest.(check bool) "structural rows solved in full" true (full > 0)

(* --- recycled engine storage ---------------------------------------- *)

(* Engines built one after another inside brackets on one pool reuse
   its workspace for their dimension. A sequence whose MNA dimension
   grows, shrinks and repeats — tow-thomas, leapfrog5 views and a
   sparse bigladder — must leave no trace of an earlier engine in a
   later one: every response equals a fresh engine's bit for bit. The
   pool allocates one workspace per distinct dimension, however many
   brackets reuse it. *)
let test_recycled_storage () =
  let tt = Circuits.Tow_thomas.make () in
  let lf5 = Option.get (Circuits.Registry.find "leapfrog5") in
  let lf5_view k =
    let _, label, netlist = lf5_view k in
    ("leapfrog5 " ^ label, netlist)
  in
  let ladder, ladder_out = Conformance.Gen.bigladder ~stages:70 (Random.State.make [| 11 |]) in
  let ladder_freqs = Grid.freqs_hz (Grid.make ~points_per_decade:2 ~f_lo:10.0 ~f_hi:1e6 ()) in
  let bench_subject (b : Circuits.Benchmark.t) (label, netlist) =
    ( label,
      b.Circuits.Benchmark.source,
      b.Circuits.Benchmark.output,
      Grid.freqs_hz (grid_of b),
      netlist )
  in
  let tt_subject = bench_subject tt ("tow-thomas", tt.Circuits.Benchmark.netlist) in
  let ladder_subject = ("bigladder-70", "V1", ladder_out, ladder_freqs, ladder) in
  let sequence =
    [
      tt_subject;
      bench_subject lf5 (lf5_view 0);
      ladder_subject;
      bench_subject lf5 (lf5_view 100);
      tt_subject;
      ladder_subject;
      bench_subject lf5 (lf5_view 0);
    ]
  in
  let pool = Fastsim.pool ~dim:0 in
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  let dims =
    List.map
      (fun (label, source, output, freqs_hz, netlist) ->
        let faults = Fault.both_deviations netlist @ Fault.catastrophic_faults netlist in
        let fresh = Fastsim.create ~source ~output ~freqs_hz netlist in
        let expected = List.map (response_bits fresh) faults in
        let got =
          Fastsim.with_engine ~pool ~source ~output ~freqs_hz netlist (fun sim ->
              Alcotest.(check bool)
                (label ^ ": same backend as a fresh engine")
                (Fastsim.uses_sparse fresh) (Fastsim.uses_sparse sim);
              List.map (response_bits sim) faults)
        in
        Alcotest.(check bool)
          (label ^ ": recycled responses bitwise equal a fresh engine's")
          true (got = expected);
        Mna.Index.size (Mna.Index.build netlist))
      sequence
  in
  let allocs = Obs.Metrics.counter (Obs.Metrics.snapshot ()) "fastsim.workspace_allocs" in
  Obs.Metrics.set_enabled false;
  Obs.Metrics.reset ();
  Alcotest.(check int) "one workspace allocation per distinct dimension"
    (List.length (List.sort_uniq compare dims))
    allocs;
  Alcotest.(check bool) "the dimension grows, shrinks and repeats" true
    (match dims with
    | [ a; b; c; d; e; f; g ] -> a < b && b < c && d < c && e < d && f = c && g = b
    | _ -> false);
  Alcotest.(check bool) "the bigladder runs sparse with n >= 64" true
    (List.nth dims 2 >= 64
    && Fastsim.uses_sparse
         (Fastsim.create ~source:"V1" ~output:ladder_out ~freqs_hz:ladder_freqs ladder))

(* The per-domain scratch only grows: an engine smaller than one the
   domain solved before runs on prefix views of the larger one's
   storage — the SMW residual and refinement vectors, the fallback
   workspace of a structural fault (the RLC divider's inductor) and the
   sparse solves' permuted intermediate (the bigladder). One domain
   sweeping engines of alternating dimensions must reproduce, bit for
   bit, what each engine gives in a fresh domain, whose scratch holds
   exactly its dimension. *)
let test_scratch_prefix_views () =
  let b, _, view = lf5_view 0 in
  let ladder, ladder_out = Conformance.Gen.bigladder ~stages:70 (Random.State.make [| 11 |]) in
  let rlc_grid = Grid.around ~points_per_decade:4 ~center_hz:rlc_center_hz () in
  let ladder_grid = Grid.make ~points_per_decade:2 ~f_lo:10.0 ~f_hi:1e6 () in
  let subjects =
    [|
      ("rlc", ("Vin", "out", Grid.freqs_hz rlc_grid), rlc);
      ( "leapfrog5 C0",
        (b.Circuits.Benchmark.source, b.Circuits.Benchmark.output, Grid.freqs_hz (grid_of b)),
        view );
      ("bigladder-70", ("V1", ladder_out, Grid.freqs_hz ladder_grid), ladder);
    |]
  in
  let run i =
    let _, (source, output, freqs_hz), netlist = subjects.(i) in
    let sim = Fastsim.create ~source ~output ~freqs_hz netlist in
    List.map (response_bits sim) (all_faults netlist)
  in
  let in_fresh_domain f = Domain.join (Domain.spawn f) in
  let expected = Array.init (Array.length subjects) (fun i -> in_fresh_domain (fun () -> run i)) in
  let sequence = [ 2; 0; 1; 0; 2; 1; 0 ] in
  let got = in_fresh_domain (fun () -> List.map run sequence) in
  List.iter2
    (fun i responses ->
      let label, _, _ = subjects.(i) in
      Alcotest.(check bool) (label ^ ": bitwise equal to a fresh domain's") true
        (responses = expected.(i)))
    sequence got;
  let dims = Array.map (fun (_, _, n) -> Mna.Index.size (Mna.Index.build n)) subjects in
  Alcotest.(check bool) "dimensions rlc < leapfrog5 C0 < bigladder" true
    (dims.(0) < dims.(1) && dims.(1) < dims.(2))

(* An engine lives only inside its bracket: afterwards every use raises
   [Invalid_argument], and so does scoring a live row of a bracketed
   view — also once a later bracket has taken over its storage. A
   bracket nested on the same dimension builds on storage of its own
   and leaves the outer engine intact. *)
let test_engine_after_bracket () =
  let b = Circuits.Tow_thomas.make () in
  let source = b.Circuits.Benchmark.source and output = b.Circuits.Benchmark.output in
  let netlist = b.Circuits.Benchmark.netlist in
  let grid = grid_of b in
  let freqs_hz = Grid.freqs_hz grid in
  let fault = Fault.deviation ~element:"R1" 1.2 in
  let dead = Invalid_argument "Fastsim: engine used after its with_engine bracket ended" in
  let pool = Fastsim.pool ~dim:0 in
  let escaped = Fastsim.with_engine ~pool ~source ~output ~freqs_hz netlist Fun.id in
  Alcotest.check_raises "response" dead (fun () -> ignore (Fastsim.response escaped fault));
  Alcotest.check_raises "plan_of" dead (fun () -> ignore (Fastsim.plan_of escaped fault));
  Alcotest.check_raises "nominal" dead (fun () -> ignore (Fastsim.nominal escaped));
  Alcotest.check_raises "sweep" dead (fun () ->
      Fastsim.sweep escaped [||] ~skip:[||] ~re:[||] ~im:[||] ~ok:[||]);
  let fresh = Fastsim.create ~source ~output ~freqs_hz netlist in
  let expected = response_bits fresh fault in
  Fastsim.with_engine ~pool ~source ~output ~freqs_hz netlist (fun outer ->
      Alcotest.check_raises "escaped engine while its storage is reused" dead (fun () ->
          ignore (Fastsim.response escaped fault));
      let inner =
        Fastsim.with_engine ~pool ~source ~output ~freqs_hz netlist (fun inner ->
            Alcotest.(check bool) "nested engine" true (response_bits inner fault = expected);
            inner)
      in
      Alcotest.check_raises "nested engine after its bracket" dead (fun () ->
          ignore (Fastsim.response inner fault));
      Alcotest.(check bool) "outer engine intact" true (response_bits outer fault = expected));
  let probe = { Detect.source; output } in
  let pv, plan =
    Detect.with_view ~pool probe grid (Detect.structure probe netlist) (fun pv ->
        (pv, Detect.plan_fault pv fault))
  in
  Alcotest.check_raises "score_rows after Detect.with_view" dead (fun () ->
      ignore (Detect.score_rows pv [| plan |]))

(* --- the a-priori residual bound ------------------------------------ *)

(* A point skips the residual gate when an LU backward-error bound
   proves the gate would pass. Soundness, on either backend: on random
   complex systems and rank-1 updates — mild and catastrophic |α|,
   denominators cancelling to within 1e-10 — every point the bound
   clears is one whose computed residual passes the 1024·ε·scale gate
   at once, and the two runs write the same bits. The sample must
   exercise both sides: points cleared, and points the gate sends to
   refinement.

   Dense systems have up to 12 unknowns, any density, entries over 12
   decades and catastrophic |α| up to 1e9. Sparse ones are stamped like
   an MNA matrix of up to 60 unknowns: two-terminal admittances over 6
   decades (a spanning tree of the nodes, more branches, a few shunts),
   controlled-source gains up to 1e5 off the diagonal, and
   voltage-source branch rows whose diagonal is zero; catastrophic |α|
   reaches 1e12. Csparse's Markowitz order then fills, takes
   off-diagonal pivots and, under its 1e-3 threshold, lets entries
   grow. *)
let random_rank1_case ~sparse st =
  let module Cmat = Linalg.Cmat in
  let float_in lo hi = lo +. Random.State.float st (hi -. lo) in
  let decades = if sparse then 3.0 else 6.0 in
  let magnitude () = 10.0 ** float_in (-.decades) decades in
  let complex m =
    match Random.State.int st 4 with
    | 0 -> { Complex.re = (if Random.State.bool st then m else -.m); im = 0.0 }
    | 1 -> { Complex.re = 0.0; im = (if Random.State.bool st then m else -.m) }
    | _ -> Complex.polar m (float_in 0.0 (2.0 *. Float.pi))
  in
  let dense () =
    let n = 2 + Random.State.int st 11 in
    let density = float_in 0.2 1.0 in
    let a = Cmat.create n n in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i = j || Random.State.float st 1.0 < density then
          Cmat.set a i j (complex (magnitude ()))
      done
    done;
    a
  in
  let mna () =
    let nodes = 6 + Random.State.int st 47 in
    let branches = Random.State.int st (1 + (nodes / 6)) in
    let n = nodes + branches in
    let a = Cmat.create n n in
    let add i j z = Cmat.set a i j (Complex.add (Cmat.get a i j) z) in
    let admittance i j =
      let y = complex (magnitude ()) in
      add i i y;
      if j >= 0 then begin
        add j j y;
        add i j (Complex.neg y);
        add j i (Complex.neg y)
      end
    in
    for i = 1 to nodes - 1 do
      admittance i (Random.State.int st i)
    done;
    for _ = 1 to nodes / 2 do
      admittance (Random.State.int st nodes) (Random.State.int st nodes - 1)
    done;
    for _ = 0 to Random.State.int st 3 do
      admittance (Random.State.int st nodes) (-1)
    done;
    for _ = 1 to Random.State.int st (1 + (nodes / 4)) do
      add (Random.State.int st nodes) (Random.State.int st nodes)
        (complex (10.0 ** float_in 0.0 5.0))
    done;
    for k = nodes to n - 1 do
      let p = Random.State.int st nodes in
      add k p Complex.one;
      add p k Complex.one
    done;
    a
  in
  let a = if sparse then mna () else dense () in
  let n = Cmat.rows a in
  let b = Cmat.Vec.create n in
  for i = 0 to n - 1 do
    if i = 0 || Random.State.float st 1.0 < 0.3 then
      Cmat.Vec.set b i (complex (magnitude ()))
  done;
  let i = Random.State.int st n in
  let u =
    let j = Random.State.int st n in
    if j = i then [ (i, 1.0) ] else [ (i, 1.0); (j, -1.0) ]
  in
  let alpha () =
    match Random.State.int st 3 with
    | 0 -> complex (magnitude ())
    | 1 -> complex (10.0 ** float_in 3.0 (if sparse then 12.0 else 9.0))
    | _ -> (
        (* α = −(1 + η)/(uᵀA⁻¹u): the denominator 1 + α·uᵀA⁻¹u is −η *)
        let uvec = Array.make n Complex.zero in
        List.iter (fun (k, s) -> uvec.(k) <- { Complex.re = s; im = 0.0 }) u;
        match Cmat.solve a uvec with
        | exception Cmat.Singular -> Complex.one
        | w ->
            let uw =
              List.fold_left
                (fun acc (k, s) -> Complex.add acc (Complex.mul { Complex.re = s; im = 0.0 } w.(k)))
                Complex.zero u
            in
            let eta = complex (10.0 ** float_in (-10.0) (-1.0)) in
            Complex.neg (Complex.div (Complex.add Complex.one eta) uw))
  in
  (a, b, u, alpha (), Random.State.int st n)

let test_bound_soundness ~sparse ~seed ~count () =
  let st = Random.State.make [| seed |] in
  let cases = ref 0 and cleared = ref 0 and gated = ref 0 in
  while !cases < count do
    let a, b, u, alpha, out = random_rank1_case ~sparse st in
    match Fastsim.guard_probe ~sparse ~a ~b ~u ~alpha ~out with
    | exception Linalg.Cmat.Singular -> ()
    | c, passes, same ->
        incr cases;
        if c then incr cleared;
        if not passes then incr gated;
        if c && not (passes && same) then
          Alcotest.failf
            "case %d (n = %d, alpha = %g%+gi): cleared, but the gate %s" !cases
            (Linalg.Cmat.rows a) alpha.Complex.re alpha.Complex.im
            (if passes then "wrote other bits" else "refines")
  done;
  if !cleared < !cases / 10 then
    Alcotest.failf "the bound cleared only %d of %d points" !cleared !cases;
  if !gated < !cases / 20 then
    Alcotest.failf "the gate refused only %d of %d points" !gated !cases

(* --- worker-count independence ------------------------------------ *)

let test_pipeline_jobs_deterministic () =
  let b = Circuits.Tow_thomas.make () in
  let run jobs = Mcdft_core.Pipeline.run ~points_per_decade:6 ~jobs b in
  let t1 = run 1 and t4 = run 4 in
  Alcotest.(check bool) "detect matrices equal" true
    (t1.Mcdft_core.Pipeline.matrix.Matrix.detect
    = t4.Mcdft_core.Pipeline.matrix.Matrix.detect);
  Alcotest.(check bool) "omega matrices equal" true
    (t1.Mcdft_core.Pipeline.matrix.Matrix.omega
    = t4.Mcdft_core.Pipeline.matrix.Matrix.omega)

let test_montecarlo_jobs_deterministic () =
  let b = Circuits.Tow_thomas.make () in
  let probe =
    {
      Detect.source = b.Circuits.Benchmark.source;
      output = b.Circuits.Benchmark.output;
    }
  in
  let grid = grid_of b in
  let run jobs =
    Montecarlo.run ~seed:7 ~samples:24 ~jobs ~component_tol:0.04 probe grid
      b.Circuits.Benchmark.netlist
  in
  let s1 = run 1 and s3 = run 3 in
  Alcotest.(check bool) "max_dev equal" true (s1.Montecarlo.max_dev = s3.Montecarlo.max_dev);
  Alcotest.(check bool) "mean_dev equal" true
    (s1.Montecarlo.mean_dev = s3.Montecarlo.mean_dev);
  Alcotest.(check bool) "per-sample peaks equal" true
    (s1.Montecarlo.per_sample_peak = s3.Montecarlo.per_sample_peak)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_split_assembly;
    Alcotest.test_case "faulty responses match naive resolve (zoo)" `Quick
      test_fault_equivalence_zoo;
    Alcotest.test_case "faulty responses match naive resolve (RLC)" `Quick
      test_fault_equivalence_rlc;
    Alcotest.test_case "rank-1 path serves deviation faults" `Quick
      test_smw_actually_used;
    Alcotest.test_case "nominal equals Ac.sweep" `Quick test_nominal_matches_sweep;
    Alcotest.test_case "batched metrics book every solve once" `Quick
      test_metrics_batching_exact;
    Alcotest.test_case "sweep leaves skipped slots untouched" `Quick test_sweep_skip;
    Alcotest.test_case "sweep equals one-fault responses (dense)" `Quick test_sweep_dense;
    Alcotest.test_case "sweep equals one-fault responses (sparse)" `Quick test_sweep_sparse;
    Alcotest.test_case "recycled storage equals fresh engines" `Quick
      test_recycled_storage;
    Alcotest.test_case "per-domain scratch prefix views equal fresh domains" `Quick
      test_scratch_prefix_views;
    Alcotest.test_case "engine use after its bracket raises" `Quick
      test_engine_after_bracket;
    Alcotest.test_case "a-priori bound clears only points the gate passes (dense)" `Quick
      (test_bound_soundness ~sparse:false ~seed:2104 ~count:4000);
    Alcotest.test_case "a-priori bound clears only points the gate passes (sparse)" `Quick
      (test_bound_soundness ~sparse:true ~seed:3404 ~count:2000);
    Alcotest.test_case "Pipeline.run independent of jobs" `Quick
      test_pipeline_jobs_deterministic;
    Alcotest.test_case "Montecarlo.run independent of jobs" `Quick
      test_montecarlo_jobs_deterministic;
  ]
