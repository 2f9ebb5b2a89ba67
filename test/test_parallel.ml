(* The scheduler's failure contract: a raising body must re-raise in
   the caller — after every helper domain has been joined — and leave
   the scheduler reusable. The repeated-failure loop would exhaust the
   runtime's domain limit if a raise ever skipped the join loop and
   leaked helpers. *)

let test_sequential_raise () =
  Alcotest.check_raises "jobs:1 propagates" (Failure "boom") (fun () ->
      Util.Parallel.for_ ~jobs:1 8 (fun i -> if i = 3 then failwith "boom"))

let test_raise_under_jobs4 () =
  for _trial = 1 to 50 do
    (match Util.Parallel.for_ ~jobs:4 64 (fun i -> if i = 37 then failwith "boom") with
    | () -> Alcotest.fail "expected the worker's exception to re-raise"
    | exception Failure msg -> Alcotest.(check string) "exception payload" "boom" msg)
  done

let test_all_indices_raise () =
  (* every chunk raises on its first index; whatever the interleaving,
     exactly one exception must surface and it must be a Failure *)
  match Util.Parallel.for_ ~jobs:4 64 (fun i -> failwith (string_of_int i)) with
  | () -> Alcotest.fail "expected a Failure"
  | exception Failure _ -> ()

let test_usable_after_failures () =
  (match Util.Parallel.for_ ~jobs:4 16 (fun _ -> failwith "x") with
  | () -> Alcotest.fail "expected a Failure"
  | exception Failure _ -> ());
  let r = Util.Parallel.map ~jobs:4 100 (fun i -> i * i) in
  Alcotest.(check int) "slot 0" 0 r.(0);
  Alcotest.(check int) "slot 99" (99 * 99) r.(99)

let test_map_complete () =
  let r = Util.Parallel.map ~jobs:4 1000 (fun i -> i + 1) in
  let sum = Array.fold_left ( + ) 0 r in
  Alcotest.(check int) "sum 1..1000" (1000 * 1001 / 2) sum

(* [busy_observations f] runs [f] with Obs.Metrics enabled from zero
   and returns the number of [parallel.worker_busy_s] observations it
   booked: one per worker, once helpers were spawned. *)
let busy_observations f =
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ())
    (fun () ->
      f ();
      match List.assoc_opt "parallel.worker_busy_s" (Obs.Metrics.snapshot ()).histograms with
      | Some h -> h.Obs.Metrics.count
      | None -> 0)

(* The workers a jobs:4 loop over [n] indices spawns past the cutoff:
   the clamp to the machine and to [n]; none when that leaves one. *)
let spawned_workers n =
  let w = Int.min n (Int.min 4 (Domain.recommended_domain_count ())) in
  if w > 1 then w else 0

let spin_s s =
  let t0 = Obs.Metrics.now () in
  while Obs.Metrics.now () -. t0 < s do
    ()
  done

(* Long enough that a handful of indices outlast the cutoff. *)
let slow_index_s = Util.Parallel.sequential_cutoff_ns *. 1e-9 /. 4.0

(* A loop the caller finishes within the cutoff runs inline: strictly
   ascending index order, which the shared cursor does not guarantee
   once helpers claim indices, and no worker observation. *)
let test_fast_loop_runs_inline () =
  let seen = ref [] in
  let workers =
    busy_observations (fun () ->
        Util.Parallel.for_ ~jobs:4 64 (fun i -> seen := i :: !seen))
  in
  Alcotest.(check (list int))
    "a fast loop runs in order on the caller" (List.init 64 Fun.id) (List.rev !seen);
  Alcotest.(check int) "no worker spawned" 0 workers

let test_slow_loop_spawns () =
  let n = 24 in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  let workers =
    busy_observations (fun () ->
        Util.Parallel.for_ ~jobs:4 n (fun i ->
            spin_s slow_index_s;
            Atomic.incr hits.(i)))
  in
  Array.iteri
    (fun i h ->
      let k = Atomic.get h in
      if k <> 1 then Alcotest.failf "index %d ran %d times" i k)
    hits;
  Alcotest.(check int) "one busy observation per worker" (spawned_workers n) workers

let test_inline_raise_before_spawn () =
  let ran = ref [] in
  let workers =
    busy_observations (fun () ->
        match
          Util.Parallel.for_ ~jobs:4 64 (fun i ->
              ran := i :: !ran;
              if i = 3 then failwith "inline")
        with
        | () -> Alcotest.fail "expected the inline exception"
        | exception Failure msg -> Alcotest.(check string) "payload" "inline" msg)
  in
  Alcotest.(check (list int)) "stopped at the raising index" [ 0; 1; 2; 3 ]
    (List.rev !ran);
  Alcotest.(check int) "no worker spawned" 0 workers

(* Indices past the cutoff raise; when the exception surfaces no body
   may still be running, and every worker has booked its observation. *)
let test_raise_after_spawn () =
  let n = 24 in
  let running = Atomic.make 0 in
  let workers =
    busy_observations (fun () ->
        match
          Util.Parallel.for_ ~jobs:4 n (fun i ->
              Atomic.incr running;
              Fun.protect
                ~finally:(fun () -> Atomic.decr running)
                (fun () ->
                  spin_s slow_index_s;
                  if i >= n / 2 then failwith "late"))
        with
        | () -> Alcotest.fail "expected the late exception"
        | exception Failure msg ->
            Alcotest.(check string) "payload" "late" msg;
            Alcotest.(check int) "every body finished" 0 (Atomic.get running))
  in
  Alcotest.(check int) "one busy observation per worker" (spawned_workers n) workers

let suite =
  [
    Alcotest.test_case "sequential raise propagates" `Quick test_sequential_raise;
    Alcotest.test_case "raise under jobs:4 re-raises after join" `Quick
      test_raise_under_jobs4;
    Alcotest.test_case "all indices raising surfaces one Failure" `Quick
      test_all_indices_raise;
    Alcotest.test_case "scheduler usable after failures" `Quick
      test_usable_after_failures;
    Alcotest.test_case "map covers every slot" `Quick test_map_complete;
    Alcotest.test_case "fast loop runs inline in order" `Quick
      test_fast_loop_runs_inline;
    Alcotest.test_case "slow loop spawns and covers every index" `Quick
      test_slow_loop_spawns;
    Alcotest.test_case "inline raise propagates before any spawn" `Quick
      test_inline_raise_before_spawn;
    Alcotest.test_case "raise after spawn re-raises after join" `Quick
      test_raise_after_spawn;
  ]
