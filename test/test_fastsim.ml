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
(* A netlist's index and stamp run as an engine reads them. *)
let stamps ~source netlist = Mna.Stamps.build_sparse ~sources:(Mna.Assemble.Only source) netlist

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

(* The engine's nominal is a sparse solve of the same stamps, read
   straight off Csparse: one Markowitz analysis on the values at the
   grid's middle frequency, then per frequency a refactorization under
   its pivots and a solve. The engine adds storage, not arithmetic, so
   the two agree bit for bit. *)
let direct_nominal ~source ~output ~freqs_hz netlist =
  let module Csparse = Linalg.Csparse in
  let sp = Mna.Stamps.build_sparse ~sources:(Mna.Assemble.Only source) netlist in
  let index = Mna.Stamps.sparse_index sp in
  let spat = Mna.Stamps.sparse_pattern sp and nnz = Mna.Stamps.sparse_nnz sp in
  let n = Mna.Index.size index in
  let values f_hz =
    let vals = Csparse.plane (2 * nnz) in
    Mna.Stamps.fill_sparse sp ~omega:(2.0 *. Float.pi *. f_hz) vals;
    vals
  in
  let sym = Csparse.analyze spat (values freqs_hz.(Array.length freqs_hz / 2)) in
  Array.map
    (fun f_hz ->
      let vals = values f_hz in
      let num = Csparse.numeric sym (Csparse.plane (Csparse.factor_len sym)) ~off:0 in
      Csparse.refactor num vals;
      let b = Linalg.Cmat.Vec.create n and x = Linalg.Cmat.Vec.create n in
      Mna.Stamps.sparse_rhs_into sp ~omega:(2.0 *. Float.pi *. f_hz) b;
      Csparse.solve_into num ~b ~x;
      match Mna.Index.node index output with
      | None -> Complex.zero
      | Some i -> Linalg.Cmat.Vec.get x i)
    freqs_hz

let test_nominal_direct_csparse () =
  List.iter
    (fun b ->
      let netlist = b.Circuits.Benchmark.netlist
      and source = b.Circuits.Benchmark.source
      and output = b.Circuits.Benchmark.output in
      let freqs_hz = Grid.freqs_hz (grid_of b) in
      let sim = Fastsim.create ~source ~output ~freqs_hz netlist in
      let direct = direct_nominal ~source ~output ~freqs_hz netlist in
      Array.iteri
        (fun i t ->
          if (Fastsim.nominal sim).(i) <> t then
            Alcotest.failf "%s: nominal differs from the direct Csparse solve at %g Hz"
              b.Circuits.Benchmark.name freqs_hz.(i))
        direct)
    benchmarks

(* The engine's sparse LU and Ac.sweep's dense partial-pivoted LU
   pivot in other orders, so their nominals agree to rounding, not
   bitwise. All norms here are ∞-norms under |z|₁ = |re| + |im|, and
   y = A⁻ᵀe_out is the output's row of A⁻¹.
   - The engine's x̂ₛ solves (A + ΔA)x̂ₛ = b with |ΔA| ≤ γ₃ₙ₊₄₀|L̂||Û|
     under complex rounding (Higham, Thm 9.4, with the constant the
     engine's a-priori bound uses), so its output is off by at most
     ‖y‖₁·γ₃ₙ₊₄₀‖|L̂||Û|‖·‖x̂ₛ‖.
   - Ac.sweep's x̂_d is off by at most ‖y‖₁·‖b − Ax̂_d‖, and the residual
     computed here in boxed arithmetic is within γₙ₊₃(‖A‖‖x̂_d‖ + ‖b‖)
     of the exact one.
   The two outputs then differ by at most the sum. y is itself computed
   (by the dense LU), and the bounds are first order in ε, so the sum
   is taken twice over. *)
let test_nominal_within_backward_error () =
  let module Cmat = Linalg.Cmat in
  let module Csparse = Linalg.Csparse in
  let abs1 (z : Complex.t) = Float.abs z.re +. Float.abs z.im in
  let vec_norm v = Array.fold_left (fun m z -> Float.max m (abs1 z)) 0.0 v in
  let gamma k =
    let ku = float_of_int k *. (epsilon_float /. 2.0) in
    ku /. (1.0 -. ku)
  in
  List.iter
    (fun b ->
      let netlist = b.Circuits.Benchmark.netlist
      and source = b.Circuits.Benchmark.source
      and output = b.Circuits.Benchmark.output in
      let freqs_hz = Grid.freqs_hz (grid_of b) in
      let sim = Fastsim.create ~source ~output ~freqs_hz netlist in
      let sweep = Mna.Ac.sweep ~source ~output netlist ~freqs_hz in
      let index = Mna.Index.build netlist in
      let n = Mna.Index.size index in
      let out = Option.get (Mna.Index.node index output) in
      let stamps = Mna.Stamps.build ~sources:(Mna.Assemble.Only source) index netlist in
      let sp = Mna.Stamps.build_sparse ~sources:(Mna.Assemble.Only source) netlist in
      let spat = Mna.Stamps.sparse_pattern sp and nnz = Mna.Stamps.sparse_nnz sp in
      let sym =
        let vals = Csparse.plane (2 * nnz) in
        Mna.Stamps.fill_sparse sp
          ~omega:(2.0 *. Float.pi *. freqs_hz.(Array.length freqs_hz / 2))
          vals;
        Csparse.analyze spat vals
      in
      Array.iteri
        (fun i f_hz ->
          let omega = 2.0 *. Float.pi *. f_hz in
          let a = Cmat.create n n and rhs = Cmat.Vec.create n in
          Mna.Stamps.fill stamps ~omega a;
          Mna.Stamps.rhs_into stamps ~omega rhs;
          let rows = Array.init n (fun r -> Array.init n (fun c -> Cmat.get a r c)) in
          let bv = Cmat.Vec.to_complex rhs in
          let xd =
            let x = Cmat.Vec.create n in
            Cmat.lu_solve_into (Cmat.lu_factor a) ~b:rhs ~x;
            Cmat.Vec.to_complex x
          in
          if xd.(out) <> sweep.(i) then
            Alcotest.failf "%s: the dense reference is not Ac.sweep at %g Hz"
              b.Circuits.Benchmark.name f_hz;
          let vals = Csparse.plane (2 * nnz) in
          Mna.Stamps.fill_sparse sp ~omega vals;
          let num = Csparse.numeric sym (Csparse.plane (Csparse.factor_len sym)) ~off:0 in
          Csparse.refactor num vals;
          let xs = Cmat.Vec.create n in
          Csparse.solve_into num ~b:rhs ~x:xs;
          let y =
            let transpose = Array.init n (fun r -> Array.init n (fun c -> rows.(c).(r))) in
            Cmat.solve (Cmat.of_arrays transpose)
              (Array.init n (fun k -> if k = out then Complex.one else Complex.zero))
          in
          let y1 = Array.fold_left (fun s z -> s +. abs1 z) 0.0 y in
          let a_norm =
            Array.fold_left
              (fun m row -> Float.max m (Array.fold_left (fun s z -> s +. abs1 z) 0.0 row))
              0.0 rows
          in
          let residual =
            vec_norm
              (Array.mapi
                 (fun r row ->
                   let ax = ref Complex.zero in
                   Array.iteri (fun c z -> ax := Complex.add !ax (Complex.mul z xd.(c))) row;
                   Complex.sub bv.(r) !ax)
                 rows)
          in
          let engine_error =
            y1 *. gamma ((3 * n) + 40) *. Csparse.lu_abs_norm_inf num
            *. vec_norm (Cmat.Vec.to_complex xs)
          and sweep_error =
            y1 *. (residual +. (gamma (n + 3) *. ((a_norm *. vec_norm xd) +. vec_norm bv)))
          in
          let bound = 2.0 *. (engine_error +. sweep_error) in
          let engine = (Fastsim.nominal sim).(i) in
          let diff = abs1 (Complex.sub engine sweep.(i)) in
          if not (diff <= bound) then
            Alcotest.failf "%s at %g Hz: |engine - Ac.sweep| = %g above the bound %g"
              b.Circuits.Benchmark.name f_hz diff bound)
        freqs_hz)
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
let view_rows ~source ~output grid netlist =
  let freqs_hz = Grid.freqs_hz grid in
  let nf = Array.length freqs_hz in
  let pv =
    Detect.prepare_view ~criterion:(Detect.Fixed_tolerance 0.1) { Detect.source; output } grid
      netlist
  in
  let mask = Bytes.init nf (fun k -> if Detect.below_floor pv k then '\001' else '\000') in
  let every = Bytes.make nf '\000' in
  let sim = Fastsim.create ~source ~output ~freqs_hz netlist in
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

(* Registry views with envelope drifts: tow-thomas, two leapfrog5
   configurations and the numerically dead C198, whose mask covers
   every point, so only its drifts are solved. R2 ‖ C1 share a node
   pair on tow-thomas, so its drifts alone already read shared
   columns. *)
let test_sweep_registry () =
  let tt = Circuits.Tow_thomas.make () in
  let subject (b : Circuits.Benchmark.t) label netlist =
    let grid = grid_of b in
    let sim, mask, rows =
      view_rows ~source:b.Circuits.Benchmark.source
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

(* On a large circuit too the a-priori bound clears points of the
   ladder's drifts and faults, every one of them an SMW solve. *)
let test_sweep_bigladder () =
  let netlist, output = Conformance.Gen.bigladder ~stages:70 (Random.State.make [| 7 |]) in
  let grid = Grid.make ~points_per_decade:2 ~f_lo:10.0 ~f_hi:1e6 () in
  let sim, _, rows = view_rows ~source:"V1" ~output grid netlist in
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
   brackets reuse it (its planes grow where an engine's pattern and
   fill need more than earlier ones left, leapfrog5 C100 after C0),
   and a second pass over the sequence allocates nothing. *)
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
  let allocs () = Obs.Metrics.counter (Obs.Metrics.snapshot ()) "fastsim.workspace_allocs" in
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  let pass () =
    List.map
      (fun (label, source, output, freqs_hz, netlist) ->
        let faults = Fault.both_deviations netlist @ Fault.catastrophic_faults netlist in
        let fresh = Fastsim.create ~source ~output ~freqs_hz netlist in
        let expected = List.map (response_bits fresh) faults in
        let got =
          Fastsim.with_engine ~pool ~source ~output ~freqs_hz netlist (stamps ~source netlist)
            (fun sim ->
              List.map (response_bits sim) faults)
        in
        Alcotest.(check bool)
          (label ^ ": recycled responses bitwise equal a fresh engine's")
          true (got = expected);
        Mna.Index.size (Mna.Index.build netlist))
      sequence
  in
  let dims = pass () in
  let first = allocs () in
  ignore (pass ());
  let again = allocs () - first in
  Obs.Metrics.set_enabled false;
  Obs.Metrics.reset ();
  Alcotest.(check int) "one workspace allocation per distinct dimension"
    (List.length (List.sort_uniq compare dims))
    first;
  Alcotest.(check int) "a repeat of the sequence allocates nothing" 0 again;
  Alcotest.(check bool) "the dimension grows, shrinks and repeats" true
    (match dims with
    | [ a; b; c; d; e; f; g ] -> a < b && b < c && d < c && e < d && f = c && g = b
    | _ -> false);
  (* A campaign's engines stamp nothing: every live class representative
     of a leapfrog5 and a bigladder-70 campaign, built on its
     structure's index and stamp run, reads bitwise the nominal and
     rank-1 responses (the faults on its elements) of a fresh engine on
     its engine netlist, and its prepared view scores every row as the
     fresh engine's does. *)
  let campaign_reps label ~source ~output grid netlist =
    let freqs_hz = Grid.freqs_hz grid in
    let dft = Multiconfig.Transform.make ~source ~output netlist in
    let probe = { Detect.source; output } in
    let views =
      List.map
        (fun config ->
          {
            Matrix.label = Multiconfig.Configuration.label config;
            netlist = Multiconfig.Transform.emulate dft config;
            probe;
          })
        (Multiconfig.Transform.test_configurations dft)
    in
    let faults = Fault.both_deviations netlist in
    let _, stats =
      Mcdft_core.Adaptive.build ~criterion:(Detect.Fixed_tolerance 0.1) grid views faults
    in
    List.iter
      (fun members ->
        let view = List.nth views (List.hd members) in
        let s = Detect.structure ~faults probe view.Matrix.netlist in
        if Detect.engine_dim s > 0 then begin
          let engine = Detect.engine_netlist s in
          let label = label ^ " " ^ view.Matrix.label in
          let fresh = Fastsim.create ~source ~output ~freqs_hz engine in
          Fastsim.with_engine ~pool ~source ~output ~freqs_hz engine (stamps ~source engine)
            (fun sim ->
              Alcotest.(check bool)
                (label ^ ": nominal bitwise a fresh engine's")
                true
                (Fastsim.nominal sim = Fastsim.nominal fresh);
              Alcotest.(check bool)
                (label ^ ": rank-1 responses bitwise a fresh engine's")
                true
                (List.for_all
                   (fun f -> response_bits sim f = response_bits fresh f)
                   (List.filter (fun f -> Netlist.mem engine f.Fault.element) faults)));
          let rows pv =
            let scored = Detect.score_rows pv (Array.of_list (List.map (Detect.plan_fault pv) faults)) in
            ( Array.map Int64.bits_of_float (Detect.measured_nominal pv),
              Array.map
                (fun (v, d, n) -> (Bytes.to_string v, Array.map Int64.bits_of_float d, n))
                scored )
          in
          let expected =
            rows (Detect.prepare_view ~criterion:(Detect.Fixed_tolerance 0.1) ~faults probe grid view.Matrix.netlist)
          in
          Detect.with_view ~pool ~criterion:(Detect.Fixed_tolerance 0.1) probe grid s (fun pv ->
              Alcotest.(check bool)
                (label ^ ": shared-stamp view scores as a fresh engine's")
                true
                (rows pv = expected))
        end)
      stats.Mcdft_core.Adaptive.classes
  in
  campaign_reps "leapfrog5" ~source:lf5.Circuits.Benchmark.source
    ~output:lf5.Circuits.Benchmark.output (grid_of lf5) lf5.Circuits.Benchmark.netlist;
  campaign_reps "bigladder-70" ~source:"V1" ~output:ladder_out
    (Grid.make ~points_per_decade:2 ~f_lo:10.0 ~f_hi:1e6 ())
    ladder

(* Storage an engine leaves on a pool serves the next one: a smaller
   view (tow-thomas after leapfrog5 C0, on a pool sized for C0) takes
   the workspace C0 left, so its bracket allocates nothing. *)
let test_second_engine_allocates_nothing () =
  let tt = Circuits.Tow_thomas.make () in
  let b, _, view = lf5_view 0 in
  let pool = Fastsim.pool ~dim:(Mna.Index.size (Mna.Index.build view)) in
  let bracket (bench : Circuits.Benchmark.t) netlist =
    let source = bench.Circuits.Benchmark.source in
    Fastsim.with_engine ~pool ~source ~output:bench.Circuits.Benchmark.output
      ~freqs_hz:(Grid.freqs_hz (grid_of b)) netlist (stamps ~source netlist) (fun sim -> ignore (Fastsim.nominal sim))
  in
  let allocs () = Obs.Metrics.counter (Obs.Metrics.snapshot ()) "fastsim.workspace_allocs" in
  let (first, second), _ =
    metered (fun () ->
        bracket b view;
        let first = allocs () in
        bracket tt tt.Circuits.Benchmark.netlist;
        (first, allocs () - first))
  in
  Alcotest.(check int) "the first engine allocates its workspace" 1 first;
  Alcotest.(check int) "a second engine on the same pool adds nothing" 0 second

(* A frequency whose refactorization under the shared pivots fails is
   analyzed afresh. In R1 from in to a and L1 from a to ground, the
   analysis at the middle frequency (1 kHz, |jωL| ≈ 6283) pivots on
   L1's branch diagonal −jωL, which is zero at 0 Hz: that refactor
   raises, the 0 Hz values get an analysis of their own, and the
   engine solves (L1 shorts a to ground there). With capacitors for
   R1 and L1, node a floats at 0 Hz: its own analysis fails too, and
   the circuit is singular. *)
let test_refactor_failure_reanalyzes () =
  let freqs_hz = [| 0.0; 1e3; 1e4 |] in
  let divider series shunt =
    Netlist.empty ~title:"reanalysis" ()
    |> Netlist.vsource ~name:"V1" "in" "0" 1.0
    |> series |> shunt
  in
  let rl =
    divider (Netlist.resistor ~name:"R1" "in" "a" 1_000.0) (Netlist.inductor ~name:"L1" "a" "0" 1.0)
  in
  let sim, snap = metered (fun () -> Fastsim.create ~source:"V1" ~output:"a" ~freqs_hz rl) in
  Alcotest.(check int) "one frequency re-analyzed" 1 (counter snap "fastsim.reanalyses");
  let reference = Mna.Ac.sweep ~source:"V1" ~output:"a" rl ~freqs_hz in
  Array.iteri
    (fun i t ->
      if not (close (Fastsim.nominal sim).(i) t) then
        Alcotest.failf "nominal at %g Hz: engine %g%+gi, Ac.sweep %g%+gi" freqs_hz.(i)
          (Fastsim.nominal sim).(i).Complex.re (Fastsim.nominal sim).(i).Complex.im
          t.Complex.re t.Complex.im)
    reference;
  let rc =
    divider
      (Netlist.capacitor ~name:"C1" "in" "a" 1e-6)
      (Netlist.capacitor ~name:"C2" "a" "0" 1e-6)
  in
  let raised, snap =
    metered (fun () ->
        match Fastsim.create ~source:"V1" ~output:"a" ~freqs_hz rc with
        | exception Mna.Ac.Singular_circuit msg -> Some msg
        | _ -> None)
  in
  Alcotest.(check (option string)) "singular where its own analysis fails too"
    (Some "MNA matrix singular at f = 0 Hz for \"reanalysis\"") raised;
  Alcotest.(check int) "the failing frequency was re-analyzed" 1
    (counter snap "fastsim.reanalyses")

(* A Monte-Carlo sample has the nominal circuit's pattern, so its
   engine refactors under the nominal engine's analysis: one analysis
   per sweeper, whatever the sample count, and each sample's nominal
   agrees with an engine of its own to rounding. *)
let test_drift_sweeper_shares_analysis () =
  let b = Circuits.Tow_thomas.make () in
  let source = b.Circuits.Benchmark.source and output = b.Circuits.Benchmark.output in
  let netlist = b.Circuits.Benchmark.netlist in
  let freqs_hz = Grid.freqs_hz (grid_of b) in
  let copies =
    List.init 8 (fun k ->
        Netlist.of_elements ~title:"drifted"
          (List.map
             (fun e ->
               match Circuit.Element.value e with
               | Some v when Circuit.Element.is_passive e ->
                   Circuit.Element.with_value e (v *. (1.0 +. (0.01 *. float_of_int (k + 1))))
               | _ -> e)
             (Netlist.elements netlist)))
  in
  let (nominal, swept), snap =
    metered (fun () ->
        let nominal, sweep = Fastsim.drift_sweeper ~source ~output ~freqs_hz netlist in
        (nominal, List.map sweep copies))
  in
  let analyses =
    match List.assoc_opt "mna.analyze_s" snap.Obs.Metrics.histograms with
    | Some h -> h.Obs.Metrics.count
    | None -> 0
  in
  Alcotest.(check int) "one analysis for the nominal and every copy"
    (1 + counter snap "fastsim.reanalyses")
    analyses;
  Alcotest.(check bool) "the sweeper's nominal is the engine's" true
    (nominal = Fastsim.nominal (Fastsim.create ~source ~output ~freqs_hz netlist));
  List.iter2
    (fun copy got ->
      let own = Fastsim.nominal (Fastsim.create ~source ~output ~freqs_hz copy) in
      Array.iteri
        (fun i t ->
          if not (close ~tol:1e-10 got.(i) t) then
            Alcotest.failf "copy at %g Hz: shared analysis %g%+gi, own %g%+gi" freqs_hz.(i)
              got.(i).Complex.re got.(i).Complex.im t.Complex.re t.Complex.im)
        own)
    copies swept

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
  let escaped =
    Fastsim.with_engine ~pool ~source ~output ~freqs_hz netlist (stamps ~source netlist) Fun.id
  in
  Alcotest.check_raises "response" dead (fun () -> ignore (Fastsim.response escaped fault));
  Alcotest.check_raises "plan_of" dead (fun () -> ignore (Fastsim.plan_of escaped fault));
  Alcotest.check_raises "nominal" dead (fun () -> ignore (Fastsim.nominal escaped));
  Alcotest.check_raises "sweep" dead (fun () ->
      Fastsim.sweep escaped [||] ~skip:[||] ~re:[||] ~im:[||] ~ok:[||]);
  let fresh = Fastsim.create ~source ~output ~freqs_hz netlist in
  let expected = response_bits fresh fault in
  Fastsim.with_engine ~pool ~source ~output ~freqs_hz netlist (stamps ~source netlist)
    (fun outer ->
      Alcotest.check_raises "escaped engine while its storage is reused" dead (fun () ->
          ignore (Fastsim.response escaped fault));
      let inner =
        Fastsim.with_engine ~pool ~source ~output ~freqs_hz netlist (stamps ~source netlist)
          (fun inner ->
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
   proves the gate would pass. Soundness: on random
   complex systems and rank-1 updates — mild and catastrophic |α|,
   denominators cancelling to within 1e-10 — every point the bound
   clears is one whose computed residual passes the 1024·ε·scale gate
   at once, and the two runs write the same bits. The sample must
   exercise both sides: points cleared, and points the gate sends to
   refinement. Both families factor as an engine does, through
   Csparse on the pattern of their nonzero entries.

   Dense systems have up to 12 unknowns, any density, entries over 12
   decades and catastrophic |α| up to 1e9. MNA-like ones are stamped like
   an MNA matrix of up to 60 unknowns: two-terminal admittances over 6
   decades (a spanning tree of the nodes, more branches, a few shunts),
   controlled-source gains up to 1e5 off the diagonal, and
   voltage-source branch rows whose diagonal is zero; catastrophic |α|
   reaches 1e12. Csparse's Markowitz order then fills, takes
   off-diagonal pivots and, under its 1e-3 threshold, lets entries
   grow. *)
let random_rank1_case ~mna st =
  let module Cmat = Linalg.Cmat in
  let float_in lo hi = lo +. Random.State.float st (hi -. lo) in
  let decades = if mna then 3.0 else 6.0 in
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
  let mna_system () =
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
  let a = if mna then mna_system () else dense () in
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
    | 1 -> complex (10.0 ** float_in 3.0 (if mna then 12.0 else 9.0))
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

let test_bound_soundness ~mna ~seed ~count () =
  let st = Random.State.make [| seed |] in
  let cases = ref 0 and cleared = ref 0 and gated = ref 0 in
  while !cases < count do
    let a, b, u, alpha, out = random_rank1_case ~mna st in
    match Fastsim.guard_probe ~a ~b ~u ~alpha ~out with
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
    Alcotest.test_case "nominal equals a direct Csparse solve (bitwise)" `Quick
      test_nominal_direct_csparse;
    Alcotest.test_case "nominal agrees with Ac.sweep within backward error" `Quick
      test_nominal_within_backward_error;
    Alcotest.test_case "batched metrics book every solve once" `Quick
      test_metrics_batching_exact;
    Alcotest.test_case "sweep leaves skipped slots untouched" `Quick test_sweep_skip;
    Alcotest.test_case "sweep equals one-fault responses (registry views)" `Quick
      test_sweep_registry;
    Alcotest.test_case "sweep equals one-fault responses (bigladder)" `Quick
      test_sweep_bigladder;
    Alcotest.test_case "recycled storage equals fresh engines" `Quick
      test_recycled_storage;
    Alcotest.test_case "a second engine on a pool allocates nothing" `Quick
      test_second_engine_allocates_nothing;
    Alcotest.test_case "a failed refactorization re-analyzes its frequency" `Quick
      test_refactor_failure_reanalyzes;
    Alcotest.test_case "Monte-Carlo copies refactor on the nominal's analysis" `Quick
      test_drift_sweeper_shares_analysis;
    Alcotest.test_case "per-domain scratch prefix views equal fresh domains" `Quick
      test_scratch_prefix_views;
    Alcotest.test_case "engine use after its bracket raises" `Quick
      test_engine_after_bracket;
    Alcotest.test_case "a-priori bound clears only points the gate passes (random dense)"
      `Quick
      (test_bound_soundness ~mna:false ~seed:2104 ~count:4000);
    Alcotest.test_case "a-priori bound clears only points the gate passes (MNA-like)" `Quick
      (test_bound_soundness ~mna:true ~seed:3404 ~count:2000);
    Alcotest.test_case "Pipeline.run independent of jobs" `Quick
      test_pipeline_jobs_deterministic;
    Alcotest.test_case "Montecarlo.run independent of jobs" `Quick
      test_montecarlo_jobs_deterministic;
  ]
