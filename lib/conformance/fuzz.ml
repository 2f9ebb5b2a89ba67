type config = {
  seed : int;
  budget_s : float option;
  max_cases : int option;
  families : Gen.family list;
  oracles : Oracle.t list;
  shrink_dir : string option;
  log : string -> unit;
}

type failure = {
  case : int;
  oracle : string;
  message : string;
  subject : Gen.subject;
  shrunk : Gen.subject;
  repro : (string * string) option;
}

type outcome = {
  cases : int;
  checks : int;
  passes : int;
  skips : int;
  failures : failure list;
}

let subject_of config i =
  let n = List.length config.families in
  let family = List.nth config.families (i mod n) in
  Gen.generate family ~seed:(config.seed + i)

let run config =
  if config.families = [] then invalid_arg "Fuzz.run: no families";
  if config.oracles = [] then invalid_arg "Fuzz.run: no oracles";
  let t0 = Obs.Metrics.now () in
  let over_budget () =
    match config.budget_s with
    | None -> false
    | Some b -> Obs.Metrics.now () -. t0 >= b
  in
  let done_cases i =
    match config.max_cases with None -> false | Some m -> i >= m
  in
  let checks = ref 0 and passes = ref 0 and skips = ref 0 in
  let failures = ref [] in
  let i = ref 0 in
  while (not (done_cases !i)) && not (!i > 0 && over_budget ()) do
    let subject = subject_of config !i in
    config.log
      (Printf.sprintf "case %d: %s (%d elements)" !i subject.Gen.label
         (Circuit.Netlist.size subject.Gen.netlist));
    List.iter
      (fun oracle ->
        incr checks;
        match Oracle.run oracle subject with
        | Oracle.Pass -> incr passes
        | Oracle.Skip why ->
            incr skips;
            config.log
              (Printf.sprintf "  %s: skip (%s)" oracle.Oracle.name why)
        | Oracle.Fail message ->
            config.log
              (Printf.sprintf "  %s: FAIL %s — shrinking" oracle.Oracle.name
                 message);
            let shrunk = Shrink.minimize ~oracle subject in
            config.log
              (Printf.sprintf "  shrunk %d -> %d elements"
                 (Circuit.Netlist.size subject.Gen.netlist)
                 (Circuit.Netlist.size shrunk.Gen.netlist));
            let repro =
              Option.map
                (fun dir -> Shrink.save ~dir ~oracle ~message shrunk)
                config.shrink_dir
            in
            failures :=
              { case = !i; oracle = oracle.Oracle.name; message; subject; shrunk; repro }
              :: !failures)
      config.oracles;
    incr i
  done;
  {
    cases = !i;
    checks = !checks;
    passes = !passes;
    skips = !skips;
    failures = List.rev !failures;
  }

let summary o =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%d cases, %d oracle checks: %d pass, %d skip, %d fail\n"
       o.cases o.checks o.passes o.skips (List.length o.failures));
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf "FAIL case %d [%s] %s\n  %s\n  shrunk to %d elements%s\n"
           f.case f.subject.Gen.label f.oracle f.message
           (Circuit.Netlist.size f.shrunk.Gen.netlist)
           (match f.repro with
           | Some (cir, _) -> ": " ^ cir
           | None -> "")))
    o.failures;
  Buffer.contents buf
