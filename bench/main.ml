(* Reproduction + performance harness.

     dune exec bench/main.exe               - everything
     dune exec bench/main.exe -- repro      - paper tables/figures only
     dune exec bench/main.exe -- perf       - bechamel kernel timings only
     dune exec bench/main.exe -- campaign   - end-to-end campaign timings only

     dune exec bench/main.exe -- diag       - diagnosis/cover structural numbers only
     dune exec bench/main.exe -- sparse     - dense/sparse crossover + bigladder campaign
     dune exec bench/main.exe -- certify    - interval-certification proved fractions + pass timing
     dune exec bench/main.exe -- adaptive   - coverage-directed refinement solve counts

   Add --smoke to shrink the campaign workload (CI). Any run that
   produces timings also writes them to BENCH_<yyyy-mm-dd>.json in the
   current directory; campaign rows carry the solver counters of a
   metrics-enabled rerun alongside the disabled-sink wall-clock.

   --baseline FILE gates the disabled-sink campaign numbers against a
   committed baseline: any row more than 5 % (and 50 ms, to absorb
   timer noise on sub-second smoke runs) slower than its baseline
   entry fails the process — the observability layer must stay free
   when disabled. The same flag also gates worker scaling within the
   fresh run: a jobs>1 row slower than its jobs=1 sibling (same
   slack) fails, so oversubscription regressions cannot land; and a
   jobs>1 row whose parallel efficiency falls more than 0.15 below
   the baseline's recorded campaign_parallel_efficiency fails, so
   scheduler/scaling regressions cannot land either. The efficiency
   gate only arms when the hardware clamp leaves more than one worker
   (Util.Parallel.effective_jobs) — on a single-core runner the
   efficiency column measures scheduling overhead, not scaling. *)

let today () =
  let tm = Unix.localtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday

let write_json ~kernels ~campaign ~diag ~sparse ~certify ~adaptive =
  let num_obj rows =
    Report.Json.Object (List.map (fun (k, v) -> (k, Report.Json.Number v)) rows)
  in
  (* Only targets that actually ran contribute sections; sections
     already in today's file from an earlier run of another target are
     preserved, so `bench all` followed by `bench sparse` accumulates
     one complete BENCH_<date>.json instead of overwriting it. *)
  let sections =
    (if kernels <> [] then [ ("kernels_ns_per_run", num_obj kernels) ] else [])
    @ (if campaign <> [] then
         [
           ( "campaign_seconds",
             num_obj
               (List.map (fun r -> (r.Campaign.label, r.Campaign.seconds)) campaign)
           );
           ( "campaign_seconds_metrics_on",
             num_obj
               (List.map
                  (fun r -> (r.Campaign.label, r.Campaign.seconds_metrics_on))
                  campaign) );
           ( "campaign_parallel_efficiency",
             num_obj
               (List.filter_map
                  (fun r ->
                    Option.map
                      (fun e -> (r.Campaign.label, e))
                      (Campaign.efficiency campaign r))
                  campaign) );
           ( "campaign_counters",
             Report.Json.Object
               (List.map
                  (fun r ->
                    ( r.Campaign.label,
                      Report.Json.Object
                        (List.map
                           (fun (k, v) -> (k, Report.Json.int v))
                           r.Campaign.counters) ))
                  campaign) );
         ]
       else [])
    @ (if diag <> [] then
         [
           ( "diagnosis",
             Report.Json.Object
               (List.map
                  (fun r ->
                    ( r.Diag.label,
                      Report.Json.Object
                        [
                          ("resolution", Report.Json.Number r.Diag.resolution);
                          ( "ambiguity_group_sizes",
                            Report.Json.List
                              (List.map Report.Json.int r.Diag.group_sizes) );
                          ( "counters",
                            Report.Json.Object
                              (List.map
                                 (fun (k, v) -> (k, Report.Json.int v))
                                 r.Diag.counters) );
                        ] ))
                  diag) );
         ]
       else [])
    @ (match sparse with Some s -> Sparse.to_json s | None -> [])
    @ (match certify with [] -> [] | rows -> Certify.to_json rows)
    @ match adaptive with [] -> [] | rows -> Adaptive.to_json rows
  in
  if sections <> [] then begin
    let date = today () in
    let path = Printf.sprintf "BENCH_%s.json" date in
    let preserved =
      match In_channel.with_open_text path In_channel.input_all with
      | exception Sys_error _ -> []
      | content -> (
          match Report.Json.of_string content with
          | Ok (Report.Json.Object old) ->
              List.filter
                (fun (k, _) -> k <> "date" && not (List.mem_assoc k sections))
                old
          | _ -> [])
    in
    let doc =
      Report.Json.Object
        ((("date", Report.Json.String date) :: preserved) @ sections)
    in
    let oc = open_out path in
    output_string oc (Report.Json.to_string ~indent:2 doc);
    output_char oc '\n';
    close_out oc;
    Printf.printf "wrote %s\n" path
  end

let check_baseline path campaign =
  let fail msg =
    Printf.eprintf "baseline check: %s\n" msg;
    exit 1
  in
  let content =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error msg -> fail msg
  in
  let doc =
    match Report.Json.of_string content with
    | Ok doc -> doc
    | Error msg -> fail (Printf.sprintf "%s: %s" path msg)
  in
  let baseline_seconds label =
    match Report.Json.member "campaign_seconds" doc with
    | Some (Report.Json.Object rows) -> (
        match List.assoc_opt label rows with
        | Some (Report.Json.Number s) -> Some s
        | _ -> None)
    | _ -> None
  in
  let regressions =
    List.filter_map
      (fun r ->
        match baseline_seconds r.Campaign.label with
        | None -> None  (* baseline predates this row; nothing to gate *)
        | Some base ->
            let allowed = Float.max (base *. 1.05) (base +. 0.05) in
            if r.Campaign.seconds > allowed then
              Some
                (Printf.sprintf "%s: %.3fs vs baseline %.3fs (allowed %.3fs)"
                   r.Campaign.label r.Campaign.seconds base allowed)
            else None)
      campaign
  in
  if regressions <> [] then
    fail ("disabled-sink campaign regressed\n  " ^ String.concat "\n  " regressions);
  (* Jobs-scaling gate, on the freshly measured rows rather than the
     committed file: asking for more workers must never cost
     wall-clock. With the worker clamp in Util.Parallel and
     allocation-free solve kernels, a jobs=4 row slower than its
     jobs=1 sibling (beyond the same timer-noise slack) means
     oversubscription or cross-domain GC pressure crept back in. *)
  let scaling_regressions =
    List.filter_map
      (fun r ->
        if r.Campaign.jobs <= 1 then None
        else
          match
            List.find_opt
              (fun r1 -> r1.Campaign.case = r.Campaign.case && r1.Campaign.jobs = 1)
              campaign
          with
          | None -> None
          | Some r1 ->
              let allowed =
                Float.max (r1.Campaign.seconds *. 1.05) (r1.Campaign.seconds +. 0.05)
              in
              if r.Campaign.seconds > allowed then
                Some
                  (Printf.sprintf "%s: %.3fs vs jobs=1 %.3fs (allowed %.3fs)"
                     r.Campaign.label r.Campaign.seconds r1.Campaign.seconds
                     allowed)
              else None)
      campaign
  in
  if scaling_regressions <> [] then
    fail
      ("worker scaling regressed (jobs>1 slower than jobs=1)\n  "
      ^ String.concat "\n  " scaling_regressions);
  (* Parallel-efficiency floor: fresh jobs>1 rows must stay within an
     absolute allowance of the baseline's recorded efficiency. Armed
     only when the hardware clamp actually grants extra workers —
     clamped rows measure scheduling overhead, not scaling, and their
     efficiency is noise around 1.0. The allowance is absolute (not
     relative) because efficiency already is a ratio; 0.15 absorbs
     shared-runner timing noise on both the jobs=1 and jobs=n
     measurements. *)
  let baseline_efficiency label =
    match Report.Json.member "campaign_parallel_efficiency" doc with
    | Some (Report.Json.Object rows) -> (
        match List.assoc_opt label rows with
        | Some (Report.Json.Number e) -> Some e
        | _ -> None)
    | _ -> None
  in
  (* An unarmed gate must say so: on a single-core runner every jobs>1
     row is clamped to one effective worker, the filter below matches
     nothing, and without this line the run reads as "efficiency
     checked, ok" when nothing was checked at all. *)
  (if
     List.exists (fun r -> r.Campaign.jobs > 1) campaign
     && List.for_all
          (fun r ->
            r.Campaign.jobs <= 1
            || Util.Parallel.effective_jobs r.Campaign.jobs <= 1)
          campaign
   then print_endline "efficiency gate: UNARMED (effective_jobs=1)");
  let efficiency_allowance = 0.15 in
  let efficiency_regressions =
    List.filter_map
      (fun r ->
        if r.Campaign.jobs <= 1 || Util.Parallel.effective_jobs r.Campaign.jobs <= 1
        then None
        else
          match (baseline_efficiency r.Campaign.label, Campaign.efficiency campaign r)
          with
          | Some base, Some fresh when fresh < base -. efficiency_allowance ->
              Some
                (Printf.sprintf "%s: efficiency %.2f vs baseline %.2f (floor %.2f)"
                   r.Campaign.label fresh base (base -. efficiency_allowance))
          | _ -> None)
      campaign
  in
  if efficiency_regressions <> [] then
    fail
      ("parallel efficiency regressed below the baseline floor\n  "
      ^ String.concat "\n  " efficiency_regressions);
  Printf.printf "baseline check: ok (%s)\n" path

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let smoke = List.mem "--smoke" args in
  let rec extract_baseline acc = function
    | "--baseline" :: path :: rest -> (Some path, List.rev_append acc rest)
    | a :: rest -> extract_baseline (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let baseline, args = extract_baseline [] args in
  let what =
    match List.filter (fun a -> a <> "--smoke") args with
    | [] -> "all"
    | [ w ] -> w
    | _ ->
        prerr_endline
          "usage: main.exe [repro|perf|campaign|diag|sparse|certify|adaptive|all] \
           [--smoke] [--baseline FILE]";
        exit 2
  in
  let kernels = ref [] and campaign = ref [] and diag = ref [] in
  let sparse = ref None and certify = ref [] and adaptive = ref [] in
  (match what with
  | "repro" -> Repro.all ()
  | "perf" -> kernels := Perf.all ()
  | "campaign" -> campaign := Campaign.all ~smoke ()
  | "diag" -> diag := Diag.all ~smoke ()
  | "sparse" -> sparse := Some (Sparse.all ~smoke ())
  | "certify" -> certify := Certify.all ~smoke ()
  | "adaptive" -> adaptive := Adaptive.all ~smoke ()
  | "all" ->
      (* campaigns first: the wall-clock timings are the headline
         numbers and should not inherit allocator state from the
         repro/bechamel phases *)
      campaign := Campaign.all ~smoke ();
      Repro.all ();
      kernels := Perf.all ();
      diag := Diag.all ~smoke ()
  | other ->
      Printf.eprintf
        "unknown target %S (expected: repro | perf | campaign | diag | sparse | \
         certify | adaptive | all)\n"
        other;
      exit 2);
  write_json ~kernels:!kernels ~campaign:!campaign ~diag:!diag ~sparse:!sparse
    ~certify:!certify ~adaptive:!adaptive;
  Option.iter (fun path -> check_baseline path !campaign) baseline;
  print_newline ()
