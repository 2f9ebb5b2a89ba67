(* Csparse vs the dense planar kernels: same systems, solutions equal
   to rounding (pivot orders differ, so not bitwise), same singular
   verdicts on clear-cut inputs, and the sparse block back-solve
   bitwise-equal to the sparse scalar solve (same per-column op
   order). Circuit-level checks of the engine (the boxed reference
   oracles on Conformance.Gen subjects, the bigladder campaign) live
   further down. *)

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
  let nnz = Csparse.nnz p in
  let plane = Csparse.plane (2 * nnz) in
  Array.iteri
    (fun k (i, j) ->
      let s = Csparse.slot p ~row:i ~col:j in
      Bigarray.Array1.set plane s vals.(k).Complex.re;
      Bigarray.Array1.set plane (nnz + s) vals.(k).Complex.im)
    entries;
  (p, plane)

let factored sys =
  let p, vals = sparse_of sys in
  let sym = Csparse.analyze p vals in
  let num = Csparse.numeric sym (Csparse.plane (Csparse.factor_len sym)) ~off:0 in
  Csparse.refactor num vals;
  (p, vals, num)

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
  Complex.norm (Complex.sub a b)
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
          | _, _, num ->
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
      | _, _, num ->
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
    let _, _, num = factored sys in
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

(* A refactorization allocates nothing: its scale, its pivots and its
   scatter workspace are all unboxed loops over the numeric's plane, on
   a system with fill, so the L and U updates run too. *)
let test_refactor_zero_alloc () =
  if Sys.backend_type = Sys.Native then begin
    let n = 12 in
    let sys =
      {
        n;
        entries =
          Array.init n (fun i -> (i, i))
          |> Array.append (Array.init (n - 1) (fun i -> (i + 1, 0)))
          |> Array.append (Array.init (n - 1) (fun i -> (0, i + 1)));
        vals =
          Array.init ((3 * n) - 2) (fun i ->
              { Complex.re = 4.0 +. float_of_int i; im = 0.25 *. float_of_int (i mod 3) });
      }
    in
    let _, vals, num = factored sys in
    Csparse.refactor num vals;
    let w0 = Gc.minor_words () in
    Csparse.refactor num vals;
    let w1 = Gc.minor_words () in
    ignore (Sys.opaque_identity num);
    Alcotest.(check (float 0.0)) "a sparse refactorization allocates zero words" 0.0 (w1 -. w0)
  end

(* The dense matrix's rows, boxed: the reference for the sparse
   whole-matrix helpers. *)
let dense_rows sys =
  let m = dense_of sys in
  Array.init sys.n (fun i -> Array.init sys.n (fun j -> Cmat.get m i j))

let prop_mul_vec =
  QCheck2.Test.make ~name:"sparse mul_vec agrees with dense" ~count:200 sys_gen
    (fun sys ->
      let rows = dense_rows sys in
      let p, vals = sparse_of sys in
      let rng = Random.State.make [| 5; sys.n |] in
      let x = rand_rhs rng sys.n in
      let ys = Bvec.create sys.n in
      Csparse.mul_vec_into p vals ~x ~y:ys;
      let ok = ref true in
      Array.iteri
        (fun i row ->
          let yd = ref Complex.zero in
          Array.iteri (fun j a -> yd := Complex.add !yd (Complex.mul a (Bvec.get x j))) row;
          if not (close ~tol:1e-12 !yd (Bvec.get ys i)) then ok := false)
        rows;
      let a_inf = snd (Csparse.norms_inf p vals) in
      let dense_inf =
        Array.fold_left
          (fun acc row -> Float.max acc (Array.fold_left (fun s a -> s +. Complex.norm a) 0.0 row))
          0.0 rows
      in
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
      | p, vals, num ->
          let a1, _ = Csparse.norms_inf p vals in
          Csparse.lu_abs_norm_inf num >= a1 *. (1.0 -. 1e-12))

(* Aᵀ x = b through A's own sparse factors, against a fresh dense
   factorization of the explicit transpose; and |y|ᵀ|A||x| over the
   stored entries agrees with the dense sum. *)
let prop_transpose_solve =
  QCheck2.Test.make ~name:"transpose solves agree with the explicit transpose" ~count:200
    sys_gen (fun sys ->
      let tsys = { sys with entries = Array.map (fun (i, j) -> (j, i)) sys.entries } in
      match (Cmat.lu_factor (dense_of tsys), factored sys) with
      | exception Cmat.Singular -> true
      | lut, (p, vals, num) ->
          let rng = Random.State.make [| 11; sys.n |] in
          let b = rand_rhs rng sys.n and y = rand_rhs rng sys.n in
          let reference = Bvec.create sys.n in
          Cmat.lu_solve_into lut ~b ~x:reference;
          let xs = Bvec.create sys.n in
          Csparse.solve_transpose_into num ~b ~x:xs;
          let scale = 1.0 +. Bvec.norm_inf reference in
          let ok = ref true in
          for i = 0 to sys.n - 1 do
            let r = Bvec.get reference i in
            if not (close ~tol:(1e-9 *. scale) r (Bvec.get xs i)) then ok := false
          done;
          let mag (z : Complex.t) = Float.abs z.re +. Float.abs z.im in
          let fd =
            Array.fold_left ( +. ) 0.0
              (Array.mapi
                 (fun i row ->
                   mag (Bvec.get y i)
                   *. Array.fold_left ( +. ) 0.0
                        (Array.mapi (fun j a -> mag a *. mag (Bvec.get reference j)) row))
                 (dense_rows sys))
          and fs = Csparse.abs_bilinear p vals ~y ~x:reference in
          !ok && Float.abs (fd -. fs) <= 1e-12 *. fd)

let prop_dense_into =
  QCheck2.Test.make ~name:"dense_into reproduces the dense matrix" ~count:100 sys_gen
    (fun sys ->
      let m = dense_of sys in
      let p, vals = sparse_of sys in
      let d = Cmat.create sys.n sys.n in
      Csparse.dense_into p vals d;
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
  let vals = Csparse.plane (2 * Csparse.nnz p) in
  Array.iteri
    (fun k _ -> Bigarray.Array1.set vals k (1.0 +. float_of_int k))
    entries;
  (match Csparse.analyze p vals with
  | exception Cmat.Singular -> ()
  | _ -> Alcotest.fail "sparse analyze accepted a structurally singular matrix");
  let m = Cmat.create n n in
  Array.iteri
    (fun k (i, j) -> Cmat.set m i j { Complex.re = 1.0 +. float_of_int k; im = 0.0 })
    entries;
  match Cmat.lu_factor m with
  | exception Cmat.Singular -> ()
  | _ -> Alcotest.fail "dense LU accepted a structurally singular matrix"

(* A badly scaled ladder (0.02 Ω to 91 MΩ, inductor shunts) at
   100 kHz: ωL sets the singularity threshold above the node
   conductances, the Markowitz order pivots an inductor's branch
   diagonal first and leaves a remainder below the threshold, and the
   analysis takes the dense LU's order instead (columns in order, each
   on its largest entry). The dense LU factors this matrix, so the
   engine must too, and agree with it. *)
let test_partial_pivot_fallback () =
  let netlist =
    Circuit.Netlist.(
      empty ~title:"badly scaled ladder" ()
      |> vsource ~name:"V1" "n0" "0" 1.0
      |> resistor ~name:"RS1" "n0" "n1" 0.02383486434280018
      |> resistor ~name:"RP1" "n1" "0" 11261668.446464587
      |> resistor ~name:"RS2" "n1" "n2" 20477534.023879174
      |> inductor ~name:"LP2" "n2" "0" 36.171776825782366
      |> resistor ~name:"RS3" "n2" "n3" 91119158.97642063
      |> resistor ~name:"RP3" "n3" "0" 357.20937749197736
      |> resistor ~name:"RS4" "n3" "n4" 21357349.284000207
      |> inductor ~name:"LP4" "n4" "0" 1.1057267501351864)
  in
  let f_hz = 1e5 in
  let index = Mna.Index.build netlist in
  let sp = Mna.Stamps.build_sparse ~sources:(Mna.Assemble.Only "V1") index netlist in
  let p = Mna.Stamps.sparse_pattern sp and nnz = Mna.Stamps.sparse_nnz sp in
  let vals = Csparse.plane (2 * nnz) in
  Mna.Stamps.fill_sparse sp ~omega:(2.0 *. Float.pi *. f_hz) vals;
  let sym = Csparse.analyze p vals in
  let n = Mna.Index.size index in
  Alcotest.(check (array int)) "the dense LU's column order" (Array.init n Fun.id)
    (snd (Csparse.pivot_order sym));
  List.iter
    (fun output ->
      let engine =
        Testability.Fastsim.nominal
          (Testability.Fastsim.create ~source:"V1" ~output ~freqs_hz:[| f_hz |] netlist)
      and dense = Mna.Ac.sweep ~source:"V1" ~output netlist ~freqs_hz:[| f_hz |] in
      if not (close ~tol:1e-9 engine.(0) dense.(0)) then
        Alcotest.failf "%s: engine %g%+gi, dense %g%+gi" output engine.(0).Complex.re
          engine.(0).Complex.im dense.(0).Complex.re dense.(0).Complex.im)
    [ "n1"; "n2"; "n3"; "n4" ]

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
  let p, vals = sparse_of sys in
  let sym = Csparse.analyze p vals in
  let num = Csparse.numeric sym (Csparse.plane (Csparse.factor_len sym)) ~off:0 in
  Csparse.refactor num vals;
  let b = Bvec.create sys.n in
  Bvec.set b 0 Complex.one;
  Bvec.set b 3 Complex.{ re = 0.0; im = 2.0 };
  let x1 = Bvec.create sys.n in
  Csparse.solve_into num ~b ~x:x1;
  (* scale all values by 2: solution halves *)
  for k = 0 to (2 * Csparse.nnz p) - 1 do
    Bigarray.Array1.set vals k (2.0 *. Bigarray.Array1.get vals k)
  done;
  Csparse.refactor num vals;
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

(* The registered differential oracles already embody the comparison
   of the engine with the boxed Mna.Assemble reference and its dense
   LU: the nominal, declared singularity included, and every faulty
   response within family tolerances, with singular leniency on
   near-singular draws. The property drives both over the quick
   generator families and rejects any Fail. *)
let prop_engine_agrees =
  let oracle name =
    match Conformance.Oracle.find name with
    | Some o -> o
    | None -> Alcotest.failf "%s oracle not registered" name
  in
  let oracles = [ oracle "ac-reference"; oracle "rank1-updates" ] in
  QCheck2.Test.make
    ~name:"fastsim sparse backend agrees with the boxed reference on generated circuits"
    ~count:40
    QCheck2.Gen.(pair (int_range 0 3) (int_range 0 300))
    (fun (fi, seed) ->
      let family = List.nth Conformance.Gen.families fi in
      let s = Conformance.Gen.generate family ~seed in
      List.for_all
        (fun o ->
          match Conformance.Oracle.run o s with
          | Conformance.Oracle.Fail msg ->
              QCheck2.Test.fail_reportf "%s, %s: %s" s.Conformance.Gen.label
                o.Conformance.Oracle.name msg
          | Conformance.Oracle.Pass | Conformance.Oracle.Skip _ -> true)
        oracles)

(* End-to-end: the default campaign on a bigladder must match the
   per-view Detect.analyze reference verdict-for-verdict, and pruning must
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
  let pruned =
    Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled false) (run ~prune:true)
  in
  let snap = Obs.Metrics.snapshot () in
  Obs.Metrics.reset ();
  let noprune = run ~prune:false () in
  Alcotest.(check int) "equivalence groups" 2 pruned.P.equivalence_groups;
  Alcotest.(check int) "pruned configs" 5 pruned.P.pruned_configs;
  Alcotest.(check int) "campaign.equivalence_groups counter" 2
    (Obs.Metrics.counter snap "campaign.equivalence_groups");
  Alcotest.(check int) "campaign.pruned_configs counter" 5
    (Obs.Metrics.counter snap "campaign.pruned_configs");
  Alcotest.(check int) "no-prune simulates every view" 0 noprune.P.pruned_configs;
  Alcotest.(check int) "no-prune group per view" 7 noprune.P.equivalence_groups;
  let m = pruned.P.matrix in
  Array.iteri
    (fun i (v : Mx.view) ->
      let reference =
        Testability.Detect.analyze ~criterion:P.default_criterion v.Mx.probe pruned.P.grid
          v.Mx.netlist faults
      in
      Alcotest.(check (list bool))
        (v.Mx.label ^ ": campaign verdicts equal per-view Detect.analyze")
        (List.map (fun r -> r.Testability.Detect.detectable) reference)
        (Array.to_list m.Mx.detect.(i)))
    m.Mx.views;
  Alcotest.(check bool) "pruned detect bitwise-equals unpruned" true
    (m.Mx.detect = noprune.P.matrix.Mx.detect);
  Alcotest.(check bool) "pruned omega bitwise-equals unpruned" true
    (m.Mx.omega = noprune.P.matrix.Mx.omega);
  Alcotest.(check bool) "pruned verdict rows bitwise-equal unpruned" true
    (m.Mx.verdicts = noprune.P.matrix.Mx.verdicts)

(* leapfrog5's C198 and C214 cancel exactly: every nominal |H| is
   round-off, 1.8e-12 at the dense LU's peak and 1.7e-13 at the
   sparse one. Read numerically, the solver decided their verdicts: at
   ppd 10 C198 x R4a/R4b+20% read 16.3 % under a dense engine and
   2.5 % under a sparse one with the envelope, and fixed:0.1 had 20
   differing cells. The dense Ac.sweep reads round-off there too, and
   the engine masks both views as numerically dead: all 'u'. *)
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
        let dense =
          Mna.Ac.sweep ~source:probe.source ~output:probe.output view
            ~freqs_hz:(Testability.Grid.freqs_hz grid)
        in
        Alcotest.(check bool)
          (label ^ ": the dense Ac.sweep reads round-off at every point")
          true
          (Array.for_all (fun z -> Complex.norm z < 1e-10) dense);
        List.iter
          (fun (what, criterion, faults) ->
            let results = Testability.Detect.analyze ~criterion probe grid view faults in
            Alcotest.(check bool)
              (Printf.sprintf "%s %s: nothing detected" label what)
              true
              (List.for_all
                 (fun r ->
                   (not r.Testability.Detect.detectable) && r.Testability.Detect.omega_det = 0.0)
                 results))
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
    ("analysis falls back to partial pivoting", `Quick, test_partial_pivot_fallback);
    ("markowitz order pinned", `Quick, test_markowitz_order);
    q prop_solve;
    q prop_block_bitwise;
    ("block back-solve zero allocation", `Quick, test_block_zero_alloc);
    ("refactorization zero allocation", `Quick, test_refactor_zero_alloc);
    q prop_mul_vec;
    q prop_lu_abs_norm;
    q prop_dense_into;
    q prop_transpose_solve;
    ("bigladder-campaign", `Slow, test_bigladder_campaign);
    ( "leapfrog5 round-off views: dense Ac.sweep round-off too, nothing detected",
      `Quick,
      test_leapfrog_round_off_views );
    q prop_engine_agrees;
  ]
