(* Csparse vs the dense planar kernels: same systems, solutions equal
   to rounding (pivot orders differ, so not bitwise), same singular
   verdicts on clear-cut inputs, and the sparse block back-solve
   bitwise-equal to the sparse scalar solve (same per-column op
   order). Circuit-level sparse-vs-dense equivalence (Fastsim backends
   on Conformance.Gen subjects) lives further down. *)

module Cmat = Linalg.Cmat
module Bvec = Cmat.Vec
module Csparse = Linalg.Csparse

let complex = Alcotest.testable Fmt.(Dump.pair float float |> using Complex.(fun z -> (z.re, z.im))) ( = )

let _ = complex

(* ---- random sparse test systems ---- *)

type sys = { n : int; entries : (int * int) array; vals : Complex.t array }

let sys_gen =
  QCheck2.Gen.(
    let* n = int_range 2 14 in
    let* extra = int_range 0 (2 * n) in
    let* offdiag =
      list_repeat extra (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    in
    let value =
      let* re = float_range (-3.0) 3.0 and* im = float_range (-3.0) 3.0 in
      return Complex.{ re; im }
    in
    (* every diagonal present (dominant-ish so most draws are regular) *)
    let diag = List.init n (fun i -> (i, i)) in
    let entries =
      List.sort_uniq compare (diag @ offdiag) |> Array.of_list
    in
    let* vals =
      array_repeat (Array.length entries)
        (let* v = value in
         return v)
    in
    let vals =
      Array.mapi
        (fun k ((i, j) : int * int) ->
          if i = j then Complex.add vals.(k) { re = 4.0; im = 1.0 } else vals.(k))
        entries
    in
    return { n; entries; vals })

let dense_of { n; entries; vals } =
  let m = Cmat.create n n in
  Array.iteri (fun k (i, j) -> Cmat.set m i j vals.(k)) entries;
  m

let sparse_of { n; entries; vals } =
  let p = Csparse.pattern ~n entries in
  let re = Csparse.plane (Csparse.nnz p) and im = Csparse.plane (Csparse.nnz p) in
  Array.iteri
    (fun k (i, j) ->
      let s = Csparse.slot p ~row:i ~col:j in
      Bigarray.Array1.set re s vals.(k).Complex.re;
      Bigarray.Array1.set im s vals.(k).Complex.im)
    entries;
  (p, re, im)

let factored sys =
  let p, re, im = sparse_of sys in
  let sym = Csparse.analyze p ~re ~im in
  let num = Csparse.numeric sym in
  Csparse.refactor num ~re ~im;
  (p, re, im, num)

let rand_rhs rng n =
  let b = Bvec.create n in
  for i = 0 to n - 1 do
    Bvec.set b i
      {
        Complex.re = QCheck2.Gen.generate1 ~rand:rng (QCheck2.Gen.float_range (-2.0) 2.0);
        im = QCheck2.Gen.generate1 ~rand:rng (QCheck2.Gen.float_range (-2.0) 2.0);
      }
  done;
  b

let close ?(tol = 1e-8) a b =
  Cmat.norm2 (a.Complex.re -. b.Complex.re) (a.Complex.im -. b.Complex.im)
  <= tol *. Float.max 1.0 (Float.max (Complex.norm a) (Complex.norm b))

(* ---- properties ---- *)

let prop_solve =
  QCheck2.Test.make ~name:"sparse solve agrees with dense LU" ~count:300 sys_gen
    (fun sys ->
      let m = dense_of sys in
      match Cmat.lu_factor m with
      | exception Cmat.Singular -> QCheck2.assume_fail ()
      | lu -> (
          match factored sys with
          | exception Cmat.Singular ->
              (* near the dense threshold the two pivot strategies may
                 disagree about singularity; that envelope is tested
                 separately. Regular draws must factor on both sides. *)
              QCheck2.assume_fail ()
          | _, _, _, num ->
              let rng = Random.State.make [| 77; sys.n |] in
              let b = rand_rhs rng sys.n in
              let xd = Bvec.create sys.n and xs = Bvec.create sys.n in
              Cmat.lu_solve_into lu ~b ~x:xd;
              Csparse.solve_into num ~b ~x:xs;
              let ok = ref true in
              for i = 0 to sys.n - 1 do
                if not (close (Bvec.get xd i) (Bvec.get xs i)) then ok := false
              done;
              !ok))

let prop_block_bitwise =
  QCheck2.Test.make ~name:"sparse block back-solve bitwise-equals scalar solves"
    ~count:150 sys_gen (fun sys ->
      match factored sys with
      | exception Cmat.Singular -> QCheck2.assume_fail ()
      | _, _, _, num ->
          let k = 3 in
          let b = Cmat.create sys.n k and x = Cmat.create sys.n k in
          let work = Cmat.create sys.n k in
          let rng = Random.State.make [| 13; sys.n |] in
          let cols = Array.init k (fun _ -> rand_rhs rng sys.n) in
          Array.iteri
            (fun c bc ->
              for i = 0 to sys.n - 1 do
                Cmat.set b i c (Bvec.get bc i)
              done)
            cols;
          Csparse.solve_block_into num ~work ~b ~x;
          let ok = ref true in
          Array.iteri
            (fun c bc ->
              let xs = Bvec.create sys.n in
              Csparse.solve_into num ~b:bc ~x:xs;
              for i = 0 to sys.n - 1 do
                if Cmat.get x i c <> Bvec.get xs i then ok := false
              done)
            cols;
          !ok)

(* The block back-solve takes its permuted block from the caller's
   [work], so once its buffers exist a solve per frequency allocates
   zero GC-visible words (native only: bytecode allocates on its
   own). *)
let test_block_zero_alloc () =
  if Sys.backend_type = Sys.Native then begin
    let n = 12 and k = 5 in
    let sys =
      {
        n;
        entries = Array.init n (fun i -> (i, i)) |> Array.append [| (0, n - 1); (n - 1, 0) |];
        vals = Array.init (n + 2) (fun i -> { Complex.re = 2.0 +. float_of_int i; im = 0.5 });
      }
    in
    let _, _, _, num = factored sys in
    let b = Cmat.create n k and x = Cmat.create n k and work = Cmat.create n k in
    for i = 0 to n - 1 do
      Cmat.set b i (i mod k) Complex.one
    done;
    Csparse.solve_block_into num ~work ~b ~x;
    let w0 = Gc.minor_words () in
    Csparse.solve_block_into num ~work ~b ~x;
    let w1 = Gc.minor_words () in
    ignore (Sys.opaque_identity x);
    Alcotest.(check (float 0.0)) "a sparse block back-solve allocates zero words" 0.0 (w1 -. w0)
  end

let prop_mul_vec =
  QCheck2.Test.make ~name:"sparse mul_vec agrees with dense" ~count:200 sys_gen
    (fun sys ->
      let m = dense_of sys in
      let p, re, im = sparse_of sys in
      let rng = Random.State.make [| 5; sys.n |] in
      let x = rand_rhs rng sys.n in
      let yd = Bvec.create sys.n and ys = Bvec.create sys.n in
      Cmat.mul_vec_into m ~x ~y:yd;
      Csparse.mul_vec_into p ~re ~im ~x ~y:ys;
      let ok = ref true in
      for i = 0 to sys.n - 1 do
        if not (close ~tol:1e-12 (Bvec.get yd i) (Bvec.get ys i)) then ok := false
      done;
      let a_inf = snd (Csparse.norms_inf p ~re ~im) in
      let dense_inf = snd (Cmat.norms_inf m) in
      ok := !ok && Float.abs (a_inf -. dense_inf) <= 1e-12 *. (1.0 +. dense_inf);
      !ok)

(* PAQ = L̂Û + ΔA with |ΔA| ≤ γₙ|L̂||Û| (Higham, Thm 9.3), so the
   factors' |L̂||Û| bounds |A| row by row, up to that rounding: a norm
   that dropped the diagonal of Û, the unit diagonal of L̂ or a stored
   entry would fall below ‖A‖ on some draw. *)
let prop_lu_abs_norm =
  QCheck2.Test.make ~name:"sparse |L||U| norm bounds the norm of |A|" ~count:200 sys_gen
    (fun sys ->
      match factored sys with
      | exception Cmat.Singular -> QCheck2.assume_fail ()
      | p, re, im, num ->
          let a1, _ = Csparse.norms_inf p ~re ~im in
          Csparse.lu_abs_norm_inf num >= a1 *. (1.0 -. 1e-12))

(* Aᵀ x = b through A's own factors, dense and sparse, against a fresh
   dense factorization of the explicit transpose; and |y|ᵀ|A||x|
   agrees between the two storages. *)
let prop_transpose_solve =
  QCheck2.Test.make ~name:"transpose solves agree with the explicit transpose" ~count:200
    sys_gen (fun sys ->
      let tsys = { sys with entries = Array.map (fun (i, j) -> (j, i)) sys.entries } in
      match (Cmat.lu_factor (dense_of sys), Cmat.lu_factor (dense_of tsys), factored sys) with
      | exception Cmat.Singular -> true
      | lu, lut, (p, re, im, num) ->
          let rng = Random.State.make [| 11; sys.n |] in
          let b = rand_rhs rng sys.n and y = rand_rhs rng sys.n in
          let reference = Bvec.create sys.n in
          Cmat.lu_solve_into lut ~b ~x:reference;
          let xd = Bvec.create sys.n and xs = Bvec.create sys.n in
          Cmat.lu_solve_transpose_into lu ~b ~x:xd;
          Csparse.solve_transpose_into num ~b ~x:xs;
          let scale = 1.0 +. Bvec.norm_inf reference in
          let ok = ref true in
          for i = 0 to sys.n - 1 do
            let r = Bvec.get reference i in
            if not (close ~tol:(1e-9 *. scale) r (Bvec.get xd i)
                    && close ~tol:(1e-9 *. scale) r (Bvec.get xs i))
            then ok := false
          done;
          let fd = Cmat.abs_bilinear (dense_of sys) ~y ~x:reference
          and fs = Csparse.abs_bilinear p ~re ~im ~y ~x:reference in
          !ok && Float.abs (fd -. fs) <= 1e-12 *. fd)

let prop_dense_into =
  QCheck2.Test.make ~name:"dense_into reproduces the dense matrix" ~count:100 sys_gen
    (fun sys ->
      let m = dense_of sys in
      let p, re, im = sparse_of sys in
      let d = Cmat.create sys.n sys.n in
      Csparse.dense_into p ~re ~im d;
      let ok = ref true in
      for i = 0 to sys.n - 1 do
        for j = 0 to sys.n - 1 do
          if Cmat.get m i j <> Cmat.get d i j then ok := false
        done
      done;
      !ok)

(* ---- unit cases ---- *)

let test_singular_zero_column () =
  (* column 1 entirely absent: structurally singular, both backends
     must refuse. *)
  let n = 3 in
  let entries = [| (0, 0); (1, 0); (1, 2); (2, 0); (2, 2) |] in
  let p = Csparse.pattern ~n entries in
  let re = Csparse.plane (Csparse.nnz p) and im = Csparse.plane (Csparse.nnz p) in
  Array.iteri
    (fun k _ -> Bigarray.Array1.set re k (1.0 +. float_of_int k))
    entries;
  (match Csparse.analyze p ~re ~im with
  | exception Cmat.Singular -> ()
  | _ -> Alcotest.fail "sparse analyze accepted a structurally singular matrix");
  let m = Cmat.create n n in
  Array.iteri
    (fun k (i, j) -> Cmat.set m i j { Complex.re = 1.0 +. float_of_int k; im = 0.0 })
    entries;
  match Cmat.lu_factor m with
  | exception Cmat.Singular -> ()
  | _ -> Alcotest.fail "dense LU accepted a structurally singular matrix"

let test_refactor_reuse () =
  (* One symbolic analysis serves many value sets (the per-frequency
     refactorization path): scaling the matrix scales the solution. *)
  let sys =
    {
      n = 4;
      entries = [| (0, 0); (0, 1); (1, 0); (1, 1); (1, 2); (2, 2); (2, 3); (3, 3) |];
      vals =
        Array.map
          (fun (re, im) -> Complex.{ re; im })
          [| (5., 1.); (1., 0.); (-1., 0.5); (4., 0.); (2., 0.); (6., 2.); (1., 1.); (3., 0.) |];
    }
  in
  let p, re, im = sparse_of sys in
  let sym = Csparse.analyze p ~re ~im in
  let num = Csparse.numeric sym in
  Csparse.refactor num ~re ~im;
  let b = Bvec.create sys.n in
  Bvec.set b 0 Complex.one;
  Bvec.set b 3 Complex.{ re = 0.0; im = 2.0 };
  let x1 = Bvec.create sys.n in
  Csparse.solve_into num ~b ~x:x1;
  (* scale all values by 2: solution halves *)
  for k = 0 to Csparse.nnz p - 1 do
    Bigarray.Array1.set re k (2.0 *. Bigarray.Array1.get re k);
    Bigarray.Array1.set im k (2.0 *. Bigarray.Array1.get im k)
  done;
  Csparse.refactor num ~re ~im;
  let x2 = Bvec.create sys.n in
  Csparse.solve_into num ~b ~x:x2;
  for i = 0 to sys.n - 1 do
    if not (close (Bvec.get x1 i) (Complex.mul { re = 2.0; im = 0.0 } (Bvec.get x2 i)))
    then Alcotest.fail "refactor with scaled values did not halve the solution"
  done

let test_pattern_slot () =
  let p = Csparse.pattern ~n:3 [| (2, 1); (0, 0); (1, 1); (2, 2) |] in
  Alcotest.(check int) "nnz" 4 (Csparse.nnz p);
  Alcotest.(check int) "slot (2,1) after (1,1)" 2 (Csparse.slot p ~row:2 ~col:1);
  Alcotest.(check bool) "missing slot" true
    (match Csparse.slot p ~row:0 ~col:2 with
    | exception Not_found -> true
    | _ -> false);
  Alcotest.(check bool) "duplicate rejected" true
    (match Csparse.pattern ~n:2 [| (0, 0); (0, 0) |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---- circuit level: Fastsim backends and campaign pruning ---- *)

module F = Testability.Fastsim
module P = Mcdft_core.Pipeline
module Mx = Testability.Matrix

(* The registered differential oracle already embodies the comparison
   (nominal + per-fault responses within family tolerances, singular
   leniency on near-singular draws); the property just drives it over
   the quick generator families and rejects any Fail. *)
let prop_backends_agree =
  let oracle =
    match Conformance.Oracle.find "sparse-vs-dense" with
    | Some o -> o
    | None -> Alcotest.fail "sparse-vs-dense oracle not registered"
  in
  QCheck2.Test.make ~name:"fastsim sparse backend agrees with dense on generated circuits"
    ~count:40
    QCheck2.Gen.(pair (int_range 0 3) (int_range 0 300))
    (fun (fi, seed) ->
      let family = List.nth Conformance.Gen.families fi in
      let s = Conformance.Gen.generate family ~seed in
      match Conformance.Oracle.run oracle s with
      | Conformance.Oracle.Fail msg ->
          QCheck2.Test.fail_reportf "%s: %s" s.Conformance.Gen.label msg
      | Conformance.Oracle.Pass | Conformance.Oracle.Skip _ -> true)

let test_auto_crossover () =
  let netlist, output =
    Conformance.Gen.bigladder ~stages:60 (Random.State.make [| 99 |])
  in
  let freqs_hz = [| 1e3; 1e4 |] in
  let big = F.create ~backend:F.Auto ~source:"V1" ~output ~freqs_hz netlist in
  Alcotest.(check bool) "auto picks sparse on a bigladder" true (F.uses_sparse big);
  let tt = Circuits.Tow_thomas.make () in
  let small =
    F.create ~backend:F.Auto ~source:tt.Circuits.Benchmark.source
      ~output:tt.Circuits.Benchmark.output ~freqs_hz tt.Circuits.Benchmark.netlist
  in
  Alcotest.(check bool) "auto stays dense below the crossover" false
    (F.uses_sparse small);
  let forced =
    F.create ~backend:F.Sparse ~source:tt.Circuits.Benchmark.source
      ~output:tt.Circuits.Benchmark.output ~freqs_hz tt.Circuits.Benchmark.netlist
  in
  Alcotest.(check bool) "explicit Sparse overrides the heuristic" true
    (F.uses_sparse forced)

(* End-to-end: the default campaign on a bigladder factors sparse
   (Auto, above the crossover) and must match the dense per-view
   Detect.analyze reference verdict-for-verdict, and pruning must
   replicate rows bitwise while reporting what it skipped (the three
   buffers give 7 test views in exactly 2 value-equivalence classes). *)
let test_bigladder_campaign () =
  let netlist, output =
    Conformance.Gen.bigladder ~stages:60 (Random.State.make [| 7 |])
  in
  let b =
    {
      Circuits.Benchmark.name = "bigladder-60";
      description = "sparse campaign smoke";
      netlist;
      source = "V1";
      output;
      center_hz = 10_000.0;
    }
  in
  let faults =
    List.filteri (fun i _ -> i mod 4 = 0) (Fault.deviation_faults netlist)
  in
  let run ~prune () = P.run ~points_per_decade:3 ~faults ~jobs:1 ~prune b in
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  let sparse =
    Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled false) (run ~prune:true)
  in
  let snap = Obs.Metrics.snapshot () in
  Obs.Metrics.reset ();
  let noprune = run ~prune:false () in
  Alcotest.(check int) "equivalence groups" 2 sparse.P.equivalence_groups;
  Alcotest.(check int) "pruned configs" 5 sparse.P.pruned_configs;
  Alcotest.(check int) "campaign.equivalence_groups counter" 2
    (Obs.Metrics.counter snap "campaign.equivalence_groups");
  Alcotest.(check int) "campaign.pruned_configs counter" 5
    (Obs.Metrics.counter snap "campaign.pruned_configs");
  Alcotest.(check int) "no-prune simulates every view" 0 noprune.P.pruned_configs;
  Alcotest.(check int) "no-prune group per view" 7 noprune.P.equivalence_groups;
  let m = sparse.P.matrix in
  Array.iteri
    (fun i (v : Mx.view) ->
      let sim =
        F.create ~source:v.Mx.probe.Testability.Detect.source
          ~output:v.Mx.probe.Testability.Detect.output
          ~freqs_hz:(Testability.Grid.freqs_hz sparse.P.grid) v.Mx.netlist
      in
      Alcotest.(check bool) (v.Mx.label ^ ": the campaign factors sparse") true
        (F.uses_sparse sim);
      let dense =
        Testability.Detect.analyze ~backend:F.Dense ~criterion:P.default_criterion
          v.Mx.probe sparse.P.grid v.Mx.netlist faults
      in
      Alcotest.(check (list bool))
        (v.Mx.label ^ ": sparse verdicts equal dense Detect.analyze")
        (List.map (fun r -> r.Testability.Detect.detectable) dense)
        (Array.to_list m.Mx.detect.(i)))
    m.Mx.views;
  Alcotest.(check bool) "pruned detect bitwise-equals unpruned" true
    (m.Mx.detect = noprune.P.matrix.Mx.detect);
  Alcotest.(check bool) "pruned omega bitwise-equals unpruned" true
    (m.Mx.omega = noprune.P.matrix.Mx.omega);
  Alcotest.(check bool) "pruned verdict rows bitwise-equal unpruned" true
    (m.Mx.verdicts = noprune.P.matrix.Mx.verdicts)

(* leapfrog5's C198 and C214 cancel exactly: every nominal |H| is
   round-off, 1.8e-12 at the dense peak and 1.7e-13 at the sparse one.
   Read numerically, the solver decided their verdicts: at ppd 10
   C198 x R4a/R4b+20% read 16.3 % dense and 2.5 % sparse under the
   envelope, and fixed:0.1 had 20 differing cells. Both views are
   numerically dead, so both backends give one matrix, all 'u'. *)
let test_leapfrog_round_off_views () =
  let b = Circuits.Leapfrog.make () in
  let netlist = b.Circuits.Benchmark.netlist in
  let dft =
    Multiconfig.Transform.make ~source:b.Circuits.Benchmark.source
      ~output:b.Circuits.Benchmark.output netlist
  in
  let probe =
    {
      Testability.Detect.source = b.Circuits.Benchmark.source;
      output = b.Circuits.Benchmark.output;
    }
  in
  let grid =
    Testability.Grid.around ~points_per_decade:10 ~center_hz:b.Circuits.Benchmark.center_hz ()
  in
  List.iter
    (fun config ->
      let label = Multiconfig.Configuration.label config in
      if List.mem label [ "C198"; "C214" ] then begin
        let view = Multiconfig.Transform.emulate dft config in
        List.iter
          (fun (what, criterion, faults) ->
            let run backend =
              List.map
                (fun r -> (r.Testability.Detect.detectable, r.Testability.Detect.omega_det))
                (Testability.Detect.analyze ~backend ~criterion probe grid view faults)
            in
            let dense = run F.Dense in
            Alcotest.(check (list (pair bool (float 0.0))))
              (Printf.sprintf "%s %s: dense = sparse" label what)
              dense (run F.Sparse);
            Alcotest.(check bool)
              (Printf.sprintf "%s %s: nothing detected" label what)
              true
              (List.for_all (fun (d, w) -> (not d) && w = 0.0) dense))
          [
            ("envelope +-20%", P.default_criterion, Fault.both_deviations netlist);
            ("fixed:0.1 open/short", Testability.Detect.Fixed_tolerance 0.1,
             Fault.catastrophic_faults netlist);
          ]
      end)
    (Multiconfig.Transform.test_configurations dft)

(* The Markowitz search's pivot order and fill are pinned: every case
   of {!Markowitz_cases} must reproduce its fixture line exactly, so a
   change to the search's data structures cannot move a pivot. *)
let test_markowitz_order () =
  let expected =
    In_channel.with_open_text (Cli.fixture "markowitz_order.txt") In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let actual = List.map Markowitz_cases.render (Markowitz_cases.cases ()) in
  Alcotest.(check int) "case count" (List.length expected) (List.length actual);
  List.iter2
    (fun e a -> Alcotest.(check string) "pivot order and L/U pattern" e a)
    expected actual

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ("pattern-slot", `Quick, test_pattern_slot);
    ("singular-zero-column", `Quick, test_singular_zero_column);
    ("refactor-reuse", `Quick, test_refactor_reuse);
    ("markowitz order pinned", `Quick, test_markowitz_order);
    q prop_solve;
    q prop_block_bitwise;
    ("block back-solve zero allocation", `Quick, test_block_zero_alloc);
    q prop_mul_vec;
    q prop_lu_abs_norm;
    q prop_dense_into;
    q prop_transpose_solve;
    ("auto-crossover", `Quick, test_auto_crossover);
    ("bigladder-campaign", `Slow, test_bigladder_campaign);
    ("leapfrog5 round-off views: dense = sparse", `Quick, test_leapfrog_round_off_views);
    q prop_backends_agree;
  ]
