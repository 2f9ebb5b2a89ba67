(* Campaign benchmark command line.

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--trace-file F]
         one workload in this process; prints the metrics, then one JSON
         line {correct, attempted, failed, metrics} as the last line
     main.exe suite [--seed N] [--seconds S] [--out FILE]
         every workload, each run in its own process, one at a time: two
         untraced sets compared against the bounds in BENCHMARK.json,
         then one traced run per workload; exits 1 when the sets disagree

   benchsuite/run.sh builds this executable and forwards its arguments. *)

module R = Benchsuite.Runner
module W = Benchsuite.Workload
module Stats = Benchsuite.Stats
module J = Report.Json

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
     [--trace-file FILE]\n\
    \       main.exe suite [--seed N] [--seconds S] [--out FILE]";
  exit 2

let keys = [ "--workload"; "--seed"; "--seconds"; "--trace"; "--trace-file"; "--out" ]

let rec options acc = function
  | [] -> List.rev acc
  | "--setup-probe" :: rest -> options (("--setup-probe", "") :: acc) rest
  | key :: value :: rest when List.mem key keys -> options ((key, value) :: acc) rest
  | _ -> usage ()

let int_opt opts key default =
  match List.assoc_opt key opts with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())

let workload_opt opts =
  match List.assoc_opt "--workload" opts with
  | None -> usage ()
  | Some name -> (
      match W.find name with
      | Some w -> w
      | None ->
          Printf.eprintf "unknown workload %S (expected one of: %s)\n" name
            (String.concat ", " (List.map (fun w -> w.W.name) W.all));
          exit 2)

let print_result (r : R.result) =
  List.iter print_endline r.R.notes;
  List.iter
    (fun (x : R.metric) -> Printf.printf "%-34s %16.6f %s\n" x.R.name x.R.value x.R.unit_)
    r.R.metrics;
  print_endline (J.to_string (R.result_to_json r))

(* Run one workload in a child process and return its final JSON line. *)
let child_run ~workload ~seed ~seconds ~trace =
  let exe = Sys.executable_name in
  let ic =
    Unix.open_process_args_in exe
      [|
        exe; "--workload"; workload; "--seed"; string_of_int seed; "--seconds";
        string_of_int seconds; "--trace"; (if trace then "1" else "0");
      |]
  in
  let lines = In_channel.input_all ic |> String.trim |> String.split_on_char '\n' in
  let status = Unix.close_process_in ic in
  match (status, J.of_string (List.nth lines (List.length lines - 1))) with
  | Unix.WEXITED 0, Ok json -> json
  | _ ->
      Printf.eprintf "suite: %s (trace %b) failed\n" workload trace;
      exit 1

(* An end-to-end metric's regression bound, as BENCHMARK.json states it
   for automated runs. *)
type bound = { metric : string; lower_is_better : bool; share : float }

let read_bounds () =
  let bad why = failwith ("BENCHMARK.json: " ^ why) in
  let doc =
    match J.of_string (In_channel.with_open_text "BENCHMARK.json" In_channel.input_all) with
    | Ok doc -> doc
    | Error e -> bad e
  in
  match J.member "end_to_end" doc with
  | Some (J.List metrics) ->
      List.map
        (fun x ->
          match (J.member "name" x, J.member "better" x, J.member "bound" x) with
          | Some (J.String metric), Some (J.String better), Some (J.Number share) ->
              { metric; lower_is_better = better = "lower"; share }
          | _ -> bad "malformed end_to_end entry")
        metrics
  | _ -> bad "no end_to_end list"

let metric_value result name =
  match Option.bind (J.member "metrics" result) (J.member name) with
  | Some m -> (
      match J.member "value" m with Some (J.Number v) -> v | _ -> nan)
  | None -> nan

(* Runs per set and workload. The two sets are taken in alternating
   pairs (1 2, 2 1, 1 2) so that the host's drift over minutes falls on
   both alike, and a set's value is the median of its runs. *)
let pairs = 3

let suite ~seed ~seconds ~out =
  let bounds = read_bounds () in
  let run ~set ~trace (w : W.t) =
    Printf.eprintf "suite: set %d %s trace=%b\n%!" set w.W.name trace;
    let result = child_run ~workload:w.W.name ~seed ~seconds ~trace in
    ( set,
      result,
      J.Object
        [
          ("set", J.int set);
          ("workload", J.String w.W.name);
          ("trace", J.Bool trace);
          ("result", result);
        ] )
  in
  let compare_sets (w : W.t) runs =
    List.map
      (fun b ->
        let median set =
          Stats.median
            (List.filter_map
               (fun (s, result, _) -> if s = set then Some (metric_value result b.metric) else None)
               runs)
        in
        let v1 = median 1 and v2 = median 2 in
        let worse = (if b.lower_is_better then v2 -. v1 else v1 -. v2) /. v1 in
        let ok = worse <= b.share in
        Printf.eprintf
          "suite: %-22s %-14s set 1 %12.4f  set 2 %12.4f  worse %+6.1f %% (bound %.0f %%) %s\n%!"
          w.W.name b.metric v1 v2 (100.0 *. worse) (100.0 *. b.share)
          (if ok then "ok" else "DISAGREE");
        ( ok,
          J.Object
            [
              ("workload", J.String w.W.name);
              ("metric", J.String b.metric);
              ("set1", J.Number v1);
              ("set2", J.Number v2);
              ("worse", J.Number worse);
              ("bound", J.Number b.share);
              ("ok", J.Bool ok);
            ] ))
      bounds
  in
  let untraced, agreement =
    List.split
      (List.map
         (fun w ->
           let runs =
             List.concat
               (List.init pairs (fun i ->
                    List.map
                      (fun set -> run ~set ~trace:false w)
                      (if i land 1 = 0 then [ 1; 2 ] else [ 2; 1 ])))
           in
           (List.map (fun (_, _, entry) -> entry) runs, compare_sets w runs))
         W.all)
  in
  let untraced = List.concat untraced and agreement = List.concat agreement in
  let traced =
    List.map
      (fun w ->
        let _, _, entry = run ~set:1 ~trace:true w in
        entry)
      W.all
  in
  let tm = Unix.localtime (Unix.time ()) in
  let doc =
    J.Object
      [
        ( "date",
          J.String
            (Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
               tm.Unix.tm_mday) );
        ("seed", J.int seed);
        ("seconds", J.int seconds);
        ("jobs", J.int W.jobs);
        ("cores", J.int (Domain.recommended_domain_count ()));
        ("pairs", J.int pairs);
        ("agreement", J.List (List.map snd agreement));
        ("runs", J.List (untraced @ traced));
      ]
  in
  let text = J.to_string ~indent:2 doc ^ "\n" in
  (match out with
  | None -> print_string text
  | Some path -> Out_channel.with_open_text path (fun oc -> output_string oc text));
  if not (List.for_all fst agreement) then exit 1

let () =
  R.tune_gc ();
  match List.tl (Array.to_list Sys.argv) with
  | "suite" :: rest ->
      let opts = options [] rest in
      suite ~seed:(int_opt opts "--seed" 1) ~seconds:(int_opt opts "--seconds" 10)
        ~out:(List.assoc_opt "--out" opts)
  | args ->
      let opts = options [] args in
      let w = workload_opt opts in
      let seed = int_opt opts "--seed" 1 in
      if List.mem_assoc "--setup-probe" opts then R.setup_probe w ~seed
      else
        let trace =
          match List.assoc_opt "--trace" opts with
          | None | Some "0" -> false
          | Some "1" -> true
          | Some _ -> usage ()
        in
        print_result
          (R.run ~workload:w ~seed
             ~seconds:(float_of_int (int_opt opts "--seconds" 10))
             ~trace ?trace_file:(List.assoc_opt "--trace-file" opts) ())
