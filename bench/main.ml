(* Reproduction + performance harness.

     dune exec bench/main.exe               - repro, perf and diag
     dune exec bench/main.exe -- repro      - paper tables/figures only
     dune exec bench/main.exe -- perf       - bechamel kernel timings only
     dune exec bench/main.exe -- diag       - diagnosis/cover structural numbers only
     dune exec bench/main.exe -- sparse     - dense/sparse crossover + bigladder campaign

   Add --smoke to shrink the workloads (CI). Any run that produces
   timings also writes them to BENCH_<yyyy-mm-dd>.json in the current
   directory. End-to-end campaign timings are benchsuite/'s job (see
   benchsuite/README.md); tools/bench_gate.py gates them against a
   base commit. *)

let today () =
  let tm = Unix.localtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday

let write_json ~kernels ~diag ~sparse =
  let num_obj rows =
    Report.Json.Object (List.map (fun (k, v) -> (k, Report.Json.Number v)) rows)
  in
  (* Only targets that actually ran contribute sections; sections
     already in today's file from an earlier run of another target are
     preserved, so `bench all` followed by `bench sparse` accumulates
     one complete BENCH_<date>.json instead of overwriting it. *)
  let sections =
    (if kernels <> [] then [ ("kernels_ns_per_run", num_obj kernels) ] else [])
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
    @ match sparse with Some s -> Sparse.to_json s | None -> []
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

let usage () =
  prerr_endline "usage: main.exe [repro|perf|diag|sparse|all] [--smoke]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let smoke = List.mem "--smoke" args in
  let what =
    match List.filter (fun a -> a <> "--smoke") args with
    | [] -> "all"
    | [ w ] -> w
    | _ -> usage ()
  in
  let kernels = ref [] and diag = ref [] in
  let sparse = ref None in
  (match what with
  | "repro" -> Repro.all ()
  | "perf" -> kernels := Perf.all ()
  | "diag" -> diag := Diag.all ~smoke ()
  | "sparse" -> sparse := Some (Sparse.all ~smoke ())
  | "all" ->
      Repro.all ();
      kernels := Perf.all ();
      diag := Diag.all ~smoke ()
  | _ -> usage ());
  write_json ~kernels:!kernels ~diag:!diag ~sparse:!sparse;
  print_newline ()
