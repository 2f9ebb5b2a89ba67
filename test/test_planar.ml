(* The planar (split re/im, off-heap) Cmat kernels against a boxed
   Complex.t reference implementation of the same algorithm —
   partial-pivoting Doolittle LU with the growth-aware singularity
   threshold. [Ref] is the independent reference that pins the dense
   LU of Mna.Ac and of the engine's fallbacks. The two run the
   identical sequence of floating-point operations, so the equivalence
   checks are exact (bitwise), covering the permutation choice and
   determinant sign, not just residual-level agreement; so does the
   engine's planar sparse mat-vec on a full pattern. Plus the
   allocation contract: rank-1 Fastsim solves and sweeps must not
   allocate per element. *)

open Linalg

let c re im = Complex.{ re; im }

(* ---- reference boxed implementation ---- *)

module Ref = struct
  exception Singular

  type lu = { d : Complex.t array array; perm : int array; sign : int }

  let lu_factor (a : Complex.t array array) =
    let n = Array.length a in
    let d = Array.map Array.copy a in
    let perm = Array.init n Fun.id in
    let sign = ref 1 in
    let scale = ref 0.0 in
    Array.iter
      (Array.iter (fun z ->
           let v = Complex.norm z in
           if v > !scale then scale := v))
      d;
    let tiny = 1e-300 +. (!scale *. float_of_int n *. 4.0 *. epsilon_float) in
    for k = 0 to n - 1 do
      let pr = ref k and pm = ref (Complex.norm d.(k).(k)) in
      for i = k + 1 to n - 1 do
        let m = Complex.norm d.(i).(k) in
        if m > !pm then begin
          pm := m;
          pr := i
        end
      done;
      if !pm <= tiny then raise Singular;
      if !pr <> k then begin
        sign := - !sign;
        let t = d.(k) in
        d.(k) <- d.(!pr);
        d.(!pr) <- t;
        let t = perm.(k) in
        perm.(k) <- perm.(!pr);
        perm.(!pr) <- t
      end;
      let piv = d.(k).(k) in
      for i = k + 1 to n - 1 do
        let f = Complex.div d.(i).(k) piv in
        d.(i).(k) <- f;
        if f.Complex.re <> 0.0 || f.Complex.im <> 0.0 then
          for j = k + 1 to n - 1 do
            d.(i).(j) <- Complex.sub d.(i).(j) (Complex.mul f d.(k).(j))
          done
      done
    done;
    { d; perm; sign = !sign }

  let lu_solve { d; perm; _ } (b : Complex.t array) =
    let n = Array.length b in
    let x = Array.init n (fun i -> b.(perm.(i))) in
    for i = 1 to n - 1 do
      let acc = ref x.(i) in
      for j = 0 to i - 1 do
        acc := Complex.sub !acc (Complex.mul d.(i).(j) x.(j))
      done;
      x.(i) <- !acc
    done;
    for i = n - 1 downto 0 do
      let acc = ref x.(i) in
      for j = i + 1 to n - 1 do
        acc := Complex.sub !acc (Complex.mul d.(i).(j) x.(j))
      done;
      x.(i) <- Complex.div !acc d.(i).(i)
    done;
    x

  let determinant a =
    match lu_factor a with
    | exception Singular -> Complex.zero
    | { d; sign; _ } ->
        let acc =
          ref (if sign >= 0 then Complex.one else c (-1.0) 0.0)
        in
        for i = 0 to Array.length a - 1 do
          acc := Complex.mul !acc d.(i).(i)
        done;
        !acc

  let mul_vec (a : Complex.t array array) (x : Complex.t array) =
    Array.init (Array.length a) (fun i ->
        let acc = ref Complex.zero in
        Array.iteri (fun k v -> acc := Complex.add !acc (Complex.mul v x.(k))) a.(i);
        !acc)
end

(* ---- generators ---- *)

let random_rows rng n =
  Array.init n (fun _ ->
      Array.init n (fun _ ->
          c
            (QCheck.Gen.float_range (-10.0) 10.0 rng)
            (QCheck.Gen.float_range (-10.0) 10.0 rng)))

let random_vec rng n =
  Array.init n (fun _ ->
      c (QCheck.Gen.float_range (-10.0) 10.0 rng) (QCheck.Gen.float_range (-10.0) 10.0 rng))

let exact_vec x y =
  Array.length x = Array.length y
  && Array.for_all2
       (fun (a : Complex.t) (b : Complex.t) ->
         a.Complex.re = b.Complex.re && a.Complex.im = b.Complex.im)
       x y

let exact_c (a : Complex.t) (b : Complex.t) =
  a.Complex.re = b.Complex.re && a.Complex.im = b.Complex.im

let n_seed = QCheck.make QCheck.Gen.(pair (int_range 1 10) (int_range 0 1000000))

let determinant m =
  match Cmat.lu_factor m with
  | exception Cmat.Singular -> Complex.zero
  | lu -> Cmat.determinant lu

(* ---- equivalence properties ---- *)

let qcheck_solve_equiv =
  QCheck.Test.make ~name:"planar lu_factor/lu_solve == boxed reference (bitwise)"
    ~count:200 n_seed (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let rows = random_rows rng n in
      let b = random_vec rng n in
      let planar =
        match Cmat.lu_factor (Cmat.of_arrays rows) with
        | exception Cmat.Singular -> None
        | lu ->
            let x = Cmat.Vec.create n in
            Cmat.lu_solve_into lu ~b:(Cmat.Vec.of_complex b) ~x;
            Some (Cmat.Vec.to_complex x)
      in
      let boxed =
        match Ref.lu_solve (Ref.lu_factor rows) b with
        | x -> Some x
        | exception Ref.Singular -> None
      in
      match (planar, boxed) with
      | None, None -> true
      | Some x, Some y -> exact_vec x y
      | _ -> false)

let qcheck_det_equiv =
  QCheck.Test.make
    ~name:"planar determinant == boxed reference (incl. permutation sign)" ~count:200
    n_seed (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let rows = random_rows rng n in
      exact_c (determinant (Cmat.of_arrays rows)) (Ref.determinant rows))

(* The engine's residual mat-vec runs over the planar value planes of
   a sparse pattern; on the full pattern it adds each row's products in
   column order, as the boxed reference does. *)
let qcheck_mul_vec_equiv =
  QCheck.Test.make ~name:"planar mul_vec == boxed reference (bitwise)" ~count:200
    n_seed (fun (n, seed) ->
      let module Csparse = Linalg.Csparse in
      let rng = Random.State.make [| seed |] in
      let rows = random_rows rng n in
      let x = random_vec rng n in
      let pattern = Csparse.pattern ~n (Array.init (n * n) (fun k -> (k / n, k mod n))) in
      let vals = Csparse.plane (2 * n * n) in
      Array.iteri
        (fun i row ->
          Array.iteri
            (fun j (z : Complex.t) ->
              let slot = Csparse.slot pattern ~row:i ~col:j in
              vals.{slot} <- z.re;
              vals.{(n * n) + slot} <- z.im)
            row)
        rows;
      let y = Cmat.Vec.create n in
      Csparse.mul_vec_into pattern vals ~x:(Cmat.Vec.of_complex x) ~y;
      exact_vec (Cmat.Vec.to_complex y) (Ref.mul_vec rows x))

let test_singular_agreement () =
  (* exactly dependent rows: both implementations must refuse *)
  let rows = [| [| c 1.0 2.0; c 3.0 (-1.0) |]; [| c 2.0 4.0; c 6.0 (-2.0) |] |] in
  (match Cmat.lu_factor (Cmat.of_arrays rows) with
  | exception Cmat.Singular -> ()
  | _ -> Alcotest.fail "planar accepted a singular matrix");
  (match Ref.lu_factor rows with
  | exception Ref.Singular -> ()
  | _ -> Alcotest.fail "reference accepted a singular matrix");
  Alcotest.(check bool) "determinants agree on singular" true
    (exact_c (determinant (Cmat.of_arrays rows)) (Ref.determinant rows))

(* The reusable Bigarray workspace path: a workspace that already holds
   a valid factor must still refuse a singular matrix factorized into
   it, and the singular determinant is exactly zero. *)
let test_big_singular_agreement () =
  let rows = [| [| c 1.0 2.0; c 3.0 (-1.0) |]; [| c 2.0 4.0; c 6.0 (-2.0) |] |] in
  let lu = Cmat.lu_create 2 in
  Cmat.lu_factor_into lu (Cmat.of_arrays [| [| c 1.0 0.0; c 0.0 0.0 |]; [| c 0.0 0.0; c 1.0 0.0 |] |]);
  (match Cmat.lu_factor_into lu (Cmat.of_arrays rows) with
  | exception Cmat.Singular -> ()
  | () -> Alcotest.fail "Big accepted a singular matrix");
  Alcotest.(check bool) "Big determinant is zero on singular" true
    (exact_c (determinant (Cmat.of_arrays rows)) Complex.zero)

(* ---- allocation regression ----

   The campaign inner loop (a warmed rank-1 SMW solve) must be
   allocation-free in the kernels. {!Testability.Fastsim.response}
   boxes a [Some Complex.t] per point and allocates its row buffers
   once per call, O(1) words per point, nothing proportional to the
   system size (a single boxed solution vector is already
   3n + 2·2n words per point). *)
let max_minor_words_per_solve = 32.0

(* A point of a {!Testability.Fastsim.sweep} writes into the caller's
   planar buffers and allocates nothing; the bound leaves room for the
   sweep's own per-call records spread over its points. *)
let max_minor_words_per_point = 16.0

let test_allocation_per_rank1_solve () =
  let b = Circuits.Tow_thomas.make () in
  let netlist = b.Circuits.Benchmark.netlist in
  let grid =
    Testability.Grid.around ~points_per_decade:10
      ~center_hz:b.Circuits.Benchmark.center_hz ()
  in
  let freqs = Testability.Grid.freqs_hz grid in
  let sim =
    Testability.Fastsim.create ~source:b.Circuits.Benchmark.source
      ~output:b.Circuits.Benchmark.output ~freqs_hz:freqs netlist
  in
  let fault =
    match Fault.deviation_faults netlist with
    | f :: _ -> f
    | [] -> Alcotest.fail "no deviation faults on tow-thomas"
  in
  (* The first call pays one-time costs (domain-local scratch sizing)
     and shows that every point of the row is one rank-1 solve. *)
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  ignore (Testability.Fastsim.response sim fault);
  let snap = Obs.Metrics.snapshot () in
  Obs.Metrics.set_enabled false;
  Obs.Metrics.reset ();
  let solves = Array.length freqs in
  Alcotest.(check (pair int int))
    "every point served by the rank-1 update" (solves, 0)
    ( Obs.Metrics.counter snap "fastsim.smw_solves",
      Obs.Metrics.counter snap "fastsim.full_solves" );
  (* measured with metrics off, the campaign's default *)
  let w0 = Gc.minor_words () in
  let r = Testability.Fastsim.response sim fault in
  let w1 = Gc.minor_words () in
  ignore (Sys.opaque_identity r);
  let per_solve = (w1 -. w0) /. float_of_int solves in
  if per_solve > max_minor_words_per_solve then
    Alcotest.failf "rank-1 solve allocates %.1f minor words (bound %.0f)" per_solve
      max_minor_words_per_solve

(* The sweep extends that contract to many rows: its block is sized
   before the first frequency, from per-domain storage that only grows,
   so a warmed sweep allocates nothing per column. Sweeping every row
   twice over reads the same columns for twice the points, so
   2·words(rows) − words(rows twice) is what the sweep allocates per
   frequency and per call, with the points' own words cancelled: a
   few records per frequency, well under [max_words_per_frequency].
   Each engine's frequencies hold at least [min_columns] columns, so a
   Bigarray or sub per column (five words or more each) would exceed
   it. The points themselves stay within [max_minor_words_per_point]. A small
   circuit (leapfrog5) and a large one (bigladder-70) alike; and
   brackets over equal-dimension views on one pool allocate one
   workspace. *)
let max_words_per_frequency = 32.0
let min_columns = 8

let test_sweep_allocation () =
  let module Fastsim = Testability.Fastsim in
  let check label sim faults =
    let nf = Array.length (Fastsim.nominal sim) in
    let sweep plans =
      let m = Array.length plans in
      let skip = Array.make m (Bytes.make nf '\000')
      and re = Array.init m (fun _ -> Array.make nf 0.0)
      and im = Array.init m (fun _ -> Array.make nf 0.0)
      and ok = Array.init m (fun _ -> Bytes.make nf '\000') in
      fun () -> Fastsim.sweep sim plans ~skip ~re ~im ~ok
    in
    let plans = Array.of_list (List.map (Fastsim.plan_of sim) faults) in
    let once = sweep plans and twice = sweep (Array.append plans plans) in
    Obs.Metrics.reset ();
    Obs.Metrics.set_enabled true;
    once ();
    let columns = Obs.Metrics.counter (Obs.Metrics.snapshot ()) "fastsim.wcache_misses" in
    Obs.Metrics.set_enabled false;
    Obs.Metrics.reset ();
    if columns < min_columns * nf then
      Alcotest.failf "%s: %d columns over %d frequencies, fewer than %d each" label columns nf
        min_columns;
    twice ();
    if Sys.backend_type = Sys.Native then begin
      let words f =
        let w0 = Gc.minor_words () in
        f ();
        Gc.minor_words () -. w0
      in
      let a = words once and b = words twice in
      let per_frequency = ((2.0 *. a) -. b) /. float_of_int nf in
      if per_frequency > max_words_per_frequency then
        Alcotest.failf "%s: the sweep allocates %.1f words per frequency (bound %.0f)" label
          per_frequency max_words_per_frequency;
      let per_point = (b -. a) /. float_of_int (nf * Array.length plans) in
      if per_point > max_minor_words_per_point then
        Alcotest.failf "%s: %.1f minor words per point (bound %.0f)" label per_point
          max_minor_words_per_point
    end
  in
  let lf5 = Option.get (Circuits.Registry.find "leapfrog5") in
  let source = lf5.Circuits.Benchmark.source and output = lf5.Circuits.Benchmark.output in
  let netlist = lf5.Circuits.Benchmark.netlist in
  let freqs_hz =
    Testability.Grid.freqs_hz
      (Testability.Grid.around ~points_per_decade:10
         ~center_hz:lf5.Circuits.Benchmark.center_hz ())
  in
  let faults = Fault.both_deviations netlist in
  let sim = Fastsim.create ~source ~output ~freqs_hz netlist in
  check "leapfrog5" sim faults;
  let ladder, ladder_out = Conformance.Gen.bigladder ~stages:70 (Random.State.make [| 7 |]) in
  let ladder_freqs =
    Testability.Grid.freqs_hz (Testability.Grid.make ~points_per_decade:2 ~f_lo:10.0 ~f_hi:1e6 ())
  in
  let ladder_sim = Fastsim.create ~source:"V1" ~output:ladder_out ~freqs_hz:ladder_freqs ladder in
  check "bigladder-70" ladder_sim (Fault.both_deviations ladder);
  let pool = Fastsim.pool ~dim:0 in
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  for _ = 1 to 3 do
    Fastsim.with_engine ~pool ~source ~output ~freqs_hz netlist
      (Mna.Stamps.build_sparse ~sources:(Mna.Assemble.Only source) netlist)
      (fun sim ->
        List.iter (fun fault -> ignore (Fastsim.response sim fault)) faults)
  done;
  let allocs = Obs.Metrics.counter (Obs.Metrics.snapshot ()) "fastsim.workspace_allocs" in
  Obs.Metrics.set_enabled false;
  Obs.Metrics.reset ();
  Alcotest.(check int) "three equal-dimension brackets allocate one workspace" 1 allocs

(* A warmed engine build allocates a few records per frequency and no
   view: building an engine on a pool whose workspace already holds
   the grid's storage, once over a grid and once over the same grid
   with every frequency doubled (so that both analyze at the same
   middle frequency), costs the difference per added frequency — the
   per-engine costs (analysis, slot table) cancel, and the index and
   stamp run are built once outside both, as a campaign's structure
   pass builds them. The build's per-frequency records take 27 words;
   two Bigarray views per frequency (five words or more each) would
   exceed the bound. *)
let max_build_words_per_frequency = 32.0

let test_engine_build_allocation () =
  let module Fastsim = Testability.Fastsim in
  let check label ~source ~output ~freqs_hz netlist =
    let nf = Array.length freqs_hz in
    let doubled = Array.init (2 * nf) (fun k -> freqs_hz.(k / 2)) in
    let pool = Fastsim.pool ~dim:0 in
    let stamps = Mna.Stamps.build_sparse ~sources:(Mna.Assemble.Only source) netlist in
    let build freqs_hz () =
      Fastsim.with_engine ~pool ~source ~output ~freqs_hz netlist stamps ignore
    in
    build doubled ();
    build freqs_hz ();
    if Sys.backend_type = Sys.Native then begin
      let words f =
        let w0 = Gc.minor_words () in
        f ();
        Gc.minor_words () -. w0
      in
      let once = words (build freqs_hz) and twice = words (build doubled) in
      let per_frequency = (twice -. once) /. float_of_int nf in
      if per_frequency > max_build_words_per_frequency then
        Alcotest.failf "%s: a warmed engine build allocates %.1f words per frequency (bound %.0f)"
          label per_frequency max_build_words_per_frequency
    end
  in
  let lf5 = Option.get (Circuits.Registry.find "leapfrog5") in
  check "leapfrog5" ~source:lf5.Circuits.Benchmark.source ~output:lf5.Circuits.Benchmark.output
    ~freqs_hz:
      (Testability.Grid.freqs_hz
         (Testability.Grid.around ~points_per_decade:10
            ~center_hz:lf5.Circuits.Benchmark.center_hz ()))
    lf5.Circuits.Benchmark.netlist;
  let ladder, ladder_out = Conformance.Gen.bigladder ~stages:70 (Random.State.make [| 7 |]) in
  check "bigladder-70" ~source:"V1" ~output:ladder_out
    ~freqs_hz:
      (Testability.Grid.freqs_hz
         (Testability.Grid.make ~points_per_decade:2 ~f_lo:10.0 ~f_hi:1e6 ()))
    ladder

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_solve_equiv;
    QCheck_alcotest.to_alcotest qcheck_det_equiv;
    QCheck_alcotest.to_alcotest qcheck_mul_vec_equiv;
    Alcotest.test_case "singular agreement" `Quick test_singular_agreement;
    Alcotest.test_case "Big singular agreement" `Quick test_big_singular_agreement;
    Alcotest.test_case "rank-1 solve allocation bound" `Quick
      test_allocation_per_rank1_solve;
    Alcotest.test_case "sweep allocates no per-column storage" `Quick
      test_sweep_allocation;
    Alcotest.test_case "warmed engine build allocation bound" `Quick
      test_engine_build_allocation;
  ]
