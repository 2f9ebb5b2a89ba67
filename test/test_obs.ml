(* The observability layer's contracts:
   - disabled means no-op (the default state);
   - snapshots merge per-domain shards exactly once helpers are joined;
   - counter totals are worker-count invariant on a real campaign;
   - the trace exporter emits valid Chrome-trace JSON. *)

module Metrics = Obs.Metrics
module Trace = Obs.Trace

(* Every test leaves the global registry disabled and empty so the
   rest of the suite (and the bench harness idiom) is unaffected. *)
let with_metrics f =
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect f ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())

let test_counter_roundtrip () =
  with_metrics (fun () ->
      Metrics.incr "obs.test.a";
      Metrics.incr ~by:4 "obs.test.a";
      Metrics.incr "obs.test.b";
      Metrics.observe "obs.test.h" 0.5;
      Metrics.observe "obs.test.h" 2.0;
      let snap = Metrics.snapshot () in
      Alcotest.(check int) "a" 5 (Metrics.counter snap "obs.test.a");
      Alcotest.(check int) "b" 1 (Metrics.counter snap "obs.test.b");
      Alcotest.(check int) "absent" 0 (Metrics.counter snap "obs.test.c");
      match List.assoc_opt "obs.test.h" snap.Metrics.histograms with
      | None -> Alcotest.fail "histogram missing from snapshot"
      | Some h ->
          Alcotest.(check int) "count" 2 h.Metrics.count;
          Alcotest.(check (float 1e-12)) "sum" 2.5 h.Metrics.sum;
          Alcotest.(check (float 1e-12)) "min" 0.5 h.Metrics.min;
          Alcotest.(check (float 1e-12)) "max" 2.0 h.Metrics.max)

let test_disabled_noop () =
  Metrics.reset ();
  Metrics.set_enabled false;
  Metrics.incr "obs.test.off";
  Metrics.observe "obs.test.off_h" 1.0;
  let snap = Metrics.snapshot () in
  Alcotest.(check int) "counter not recorded" 0
    (Metrics.counter snap "obs.test.off");
  Alcotest.(check bool) "histogram not recorded" true
    (List.assoc_opt "obs.test.off_h" snap.Metrics.histograms = None)

let test_time_records_on_raise () =
  with_metrics (fun () ->
      (try Metrics.time "obs.test.t" (fun () -> failwith "x")
       with Failure _ -> ());
      let snap = Metrics.snapshot () in
      match List.assoc_opt "obs.test.t" snap.Metrics.histograms with
      | None -> Alcotest.fail "duration dropped on raise"
      | Some h -> Alcotest.(check int) "count" 1 h.Metrics.count)

let test_snapshot_merges_domains () =
  with_metrics (fun () ->
      let helpers =
        List.init 3 (fun _ ->
            Domain.spawn (fun () -> Metrics.incr ~by:3 "obs.test.shard"))
      in
      Metrics.incr "obs.test.shard";
      List.iter Domain.join helpers;
      let snap = Metrics.snapshot () in
      Alcotest.(check int) "1 + 3×3 across four shards" 10
        (Metrics.counter snap "obs.test.shard"))

(* Solver counters are a property of the campaign, not of its
   schedule — jobs:1 and jobs:4 must agree on the matrices and on every
   counter total except the engine workspace allocations, which follow
   how views overlap in time. Two
   campaigns: the default envelope criterion, whose drifts block-warm
   every deviation fault's back-solve columns before scoring; and a
   fixed-tolerance campaign of catastrophic faults, where nothing is
   warmed and an open and a short on one element share a pattern, so
   scoring domains can race to insert the same columns (the test below
   forces that race). *)
let check_jobs_invariant label run =
  let campaign jobs =
    with_metrics (fun () ->
        let t = run jobs in
        let snap = Metrics.snapshot () in
        ( t.Mcdft_core.Pipeline.matrix,
          List.filter
            (fun (name, _) -> name <> "fastsim.workspace_allocs")
            snap.Metrics.counters ))
  in
  let m1, sequential = campaign 1 and m4, parallel = campaign 4 in
  Alcotest.(check bool) (label ^ ": detect matrices, jobs:1 vs jobs:4") true
    (m1.Testability.Matrix.detect = m4.Testability.Matrix.detect);
  Alcotest.(check bool) (label ^ ": omega matrices, jobs:1 vs jobs:4") true
    (m1.Testability.Matrix.omega = m4.Testability.Matrix.omega);
  Alcotest.(check (list (pair string int)))
    (label ^ ": counter totals, jobs:1 vs jobs:4") sequential parallel

let test_jobs_invariant_counters () =
  check_jobs_invariant "envelope" (fun jobs ->
      Mcdft_core.Pipeline.run ~points_per_decade:6 ~jobs (Circuits.Tow_thomas.make ()));
  (* tt-pair's 63 views give the scheduler enough work to go parallel *)
  let b = Option.get (Circuits.Registry.find "tt-pair") in
  check_jobs_invariant "fixed:0.1 catastrophic" (fun jobs ->
      Mcdft_core.Pipeline.run ~criterion:(Testability.Detect.Fixed_tolerance 0.1)
        ~faults:(Fault.catastrophic_faults b.Circuits.Benchmark.netlist)
        ~points_per_decade:6 ~jobs b)

(* The same contract one level down, with the contention forced: four
   domains released together walk the same catastrophic faults over
   one engine, so their sweeps of each frequency overlap in time. Every
   domain must see the sequential responses bit for bit, and the
   counters must not depend on the schedule: each call books its own
   columns, so four readers book exactly four times one reader's misses
   and hits. The race runs on an engine with storage of its own and on
   a bracketed one, whose per-frequency buffers live in one shared pool
   workspace. *)
let test_racing_insertion () =
  let b = Circuits.Tow_thomas.make () in
  let netlist = b.Circuits.Benchmark.netlist in
  let faults = Fault.catastrophic_faults netlist in
  let freqs_hz =
    Testability.Grid.freqs_hz
      (Testability.Grid.around ~points_per_decade:20
         ~center_hz:b.Circuits.Benchmark.center_hz ())
  in
  let source = b.Circuits.Benchmark.source and output = b.Circuits.Benchmark.output in
  let race ~bracketed domains =
    with_metrics (fun () ->
        let with_sim f =
          if bracketed then
            Testability.Fastsim.with_engine ~pool:(Testability.Fastsim.pool ~dim:0) ~source
              ~output ~freqs_hz netlist
              (Mna.Stamps.build_sparse ~sources:(Mna.Assemble.Only source) netlist)
              f
          else f (Testability.Fastsim.create ~source ~output ~freqs_hz netlist)
        in
        with_sim @@ fun sim ->
        let ready = Atomic.make 0 in
        let reader () =
          Atomic.incr ready;
          while Atomic.get ready < domains do
            Domain.cpu_relax ()
          done;
          List.map (fun fault -> Testability.Fastsim.response sim fault) faults
        in
        let helpers = List.init (domains - 1) (fun _ -> Domain.spawn reader) in
        let first = reader () in
        let rows = first :: List.map Domain.join helpers in
        let snap = Metrics.snapshot () in
        ( rows,
          Metrics.counter snap "fastsim.wcache_misses",
          Metrics.counter snap "fastsim.wcache_hits" ))
  in
  let bits rows =
    List.map
      (Array.map
         (Option.map (fun (z : Complex.t) ->
              (Int64.bits_of_float z.Complex.re, Int64.bits_of_float z.Complex.im))))
      rows
  in
  let solo, misses1, hits1 = race ~bracketed:false 1 in
  let reference = bits (List.hd solo) in
  List.iter
    (fun bracketed ->
      let storage = if bracketed then "pooled storage" else "own storage" in
      let raced, misses4, hits4 = race ~bracketed 4 in
      List.iteri
        (fun d rows ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: domain %d responses bitwise equal the sequential ones"
               storage d)
            true
            (bits rows = reference))
        raced;
      Alcotest.(check int)
        (storage ^ ": misses: each call's distinct columns, four readers' worth")
        (4 * misses1) misses4;
      Alcotest.(check int)
        (storage ^ ": hits: each call's other reads, four readers' worth")
        (4 * hits1) hits4)
    [ false; true ]

(* The Chrome document {!Trace.write} puts in a file. *)
let exported () =
  let path = Filename.temp_file "mcdft_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.write path;
      In_channel.with_open_bin path In_channel.input_all)

let test_trace_spans_and_export () =
  Trace.reset ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ())
    (fun () ->
      let r =
        Trace.span "outer" (fun () ->
            Trace.span "inner \"quoted\"" (fun () -> 41 + 1))
      in
      Alcotest.(check int) "span returns f's value" 42 r;
      Trace.begin_ "open";
      Trace.end_ ();
      Trace.end_ () (* unmatched: must be a no-op *);
      let events = Trace.events () in
      Alcotest.(check int) "three completed spans" 3 (List.length events);
      (* inner completes before outer, so outer's duration covers it *)
      let dur name =
        (List.find (fun e -> e.Trace.name = name) events).Trace.dur_us
      in
      Alcotest.(check bool) "nesting: outer ⊇ inner" true
        (dur "outer" >= dur "inner \"quoted\"");
      match Report.Json.of_string (exported ()) with
      | Error msg -> Alcotest.fail ("export is not valid JSON: " ^ msg)
      | Ok doc -> (
          match Report.Json.member "traceEvents" doc with
          | Some (Report.Json.List evs) ->
              Alcotest.(check int) "traceEvents length" 3 (List.length evs)
          | _ -> Alcotest.fail "traceEvents array missing"))

(* Concurrent emitters: spans opened on different domains must land on
   different lanes (tids), keep their per-lane nesting, and still
   export one valid Chrome document. A barrier keeps all workers alive
   simultaneously so their domain ids cannot be reused. *)
let test_trace_concurrent_emitters () =
  Trace.reset ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ())
    (fun () ->
      let workers = 4 and rounds = 5 in
      let ready = Atomic.make 0 in
      let domains =
        List.init workers (fun w ->
            Domain.spawn (fun () ->
                Atomic.incr ready;
                while Atomic.get ready < workers do Domain.cpu_relax () done;
                for k = 1 to rounds do
                  Trace.span
                    (Printf.sprintf "outer.%d.%d" w k)
                    (fun () ->
                      Trace.span (Printf.sprintf "inner.%d.%d" w k) (fun () ->
                          ignore (Sys.opaque_identity (k * k))))
                done))
      in
      List.iter Domain.join domains;
      let events = Trace.events () in
      Alcotest.(check int) "outer+inner per round per worker"
        (workers * rounds * 2)
        (List.length events);
      let tids = List.sort_uniq compare (List.map (fun e -> e.Trace.tid) events) in
      Alcotest.(check int) "one lane per live domain" workers (List.length tids);
      (* per lane: every inner span sits inside an outer span's window
         of the same lane, and lanes never mix workers *)
      List.iter
        (fun e ->
          let is_inner = String.length e.Trace.name >= 6 && String.sub e.Trace.name 0 6 = "inner." in
          if is_inner then begin
            let outer_name = "outer." ^ String.sub e.Trace.name 6 (String.length e.Trace.name - 6) in
            match List.find_opt (fun o -> o.Trace.name = outer_name) events with
            | None -> Alcotest.failf "%s has no matching outer span" e.Trace.name
            | Some o ->
                Alcotest.(check int)
                  (e.Trace.name ^ " shares its outer's lane")
                  o.Trace.tid e.Trace.tid;
                (* 0.5µs slack: clock reads share ticks at the µs
                   resolution of gettimeofday and ts+dur re-rounds *)
                Alcotest.(check bool)
                  (e.Trace.name ^ " nested in its outer's window")
                  true
                  (o.Trace.ts_us <= e.Trace.ts_us +. 0.5
                  && e.Trace.ts_us +. e.Trace.dur_us
                     <= o.Trace.ts_us +. o.Trace.dur_us +. 0.5)
          end)
        events;
      (* events are globally sorted by start time *)
      let rec sorted = function
        | a :: (b :: _ as rest) -> a.Trace.ts_us <= b.Trace.ts_us && sorted rest
        | _ -> true
      in
      Alcotest.(check bool) "events sorted by start time" true (sorted events);
      match Report.Json.of_string (exported ()) with
      | Error msg -> Alcotest.fail ("export is not valid JSON: " ^ msg)
      | Ok doc -> (
          match Report.Json.member "traceEvents" doc with
          | Some (Report.Json.List evs) ->
              Alcotest.(check int) "all spans exported"
                (workers * rounds * 2)
                (List.length evs)
          | _ -> Alcotest.fail "traceEvents array missing"))

let test_trace_disabled_noop () =
  Trace.reset ();
  Trace.set_enabled false;
  ignore (Trace.span "off" (fun () -> ()));
  Alcotest.(check int) "no events recorded" 0 (List.length (Trace.events ()))

let suite =
  [
    Alcotest.test_case "counter/histogram round-trip" `Quick
      test_counter_roundtrip;
    Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
    Alcotest.test_case "time records duration on raise" `Quick
      test_time_records_on_raise;
    Alcotest.test_case "snapshot merges per-domain shards" `Quick
      test_snapshot_merges_domains;
    Alcotest.test_case "campaign counters invariant under jobs" `Slow
      test_jobs_invariant_counters;
    Alcotest.test_case "racing cold readers book the sequential counters per call" `Quick
      test_racing_insertion;
    Alcotest.test_case "trace spans nest and export as Chrome JSON" `Quick
      test_trace_spans_and_export;
    Alcotest.test_case "trace lanes stay nested under concurrent emitters"
      `Quick test_trace_concurrent_emitters;
    Alcotest.test_case "trace disabled is a no-op" `Quick
      test_trace_disabled_noop;
  ]
