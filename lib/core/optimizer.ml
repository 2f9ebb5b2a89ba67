module Clause = Cover.Clause
module IntSet = Clause.IntSet

type input = {
  n_opamps : int;
  detect : bool array array;
  omega : float array array;
}

let input_of_matrices ~n_opamps detect omega =
  let expected_rows = (1 lsl n_opamps) - 1 in
  if Array.length detect <> expected_rows then
    invalid_arg
      (Printf.sprintf "Optimizer.input_of_matrices: expected %d rows, got %d"
         expected_rows (Array.length detect));
  if Array.length omega <> expected_rows then
    invalid_arg "Optimizer.input_of_matrices: omega row count mismatch";
  let cols = if expected_rows = 0 then 0 else Array.length detect.(0) in
  Array.iteri
    (fun i row ->
      if Array.length row <> cols then
        invalid_arg "Optimizer.input_of_matrices: ragged detect matrix";
      if Array.length omega.(i) <> cols then
        invalid_arg "Optimizer.input_of_matrices: ragged omega matrix";
      Array.iteri
        (fun j d ->
          if d && omega.(i).(j) <= 0.0 then
            invalid_arg
              (Printf.sprintf
                 "Optimizer.input_of_matrices: fault %d detectable in C%d but omega = 0"
                 j i))
        row)
    detect;
  { n_opamps; detect; omega }

type config_choice = { configs : int list; avg_omega : float }

type opamp_choice = {
  opamps : int list;
  reachable_configs : int list;
  avg_omega_reachable : float;
}

type detection_stats = {
  worst : int;
  average : float;
  per_fault : int array;
}

type report = {
  input : input;
  n_detect : int;
  uncoverable : int list;
  short_faults : (int * int) list;
  max_coverage : float;
  functional_coverage : float;
  functional_avg_omega : float;
  brute_force_avg_omega : float;
  essential : int list;
  xi : Clause.t;
  xi_reduced : Clause.t;
  xi_raw_count : int option;
  xi_terms_raw : IntSet.t list option;
  xi_terms_min : IntSet.t list option;
  min_config_sets : IntSet.t list;
  choice_a : config_choice;
  min_opamp_sets : IntSet.t list;
  choice_b : opamp_choice;
  detection_a : detection_stats;
  detection_b : detection_stats;
}

let n_faults input =
  if Array.length input.detect = 0 then 0 else Array.length input.detect.(0)

let avg_omega_of input configs =
  let m = n_faults input in
  if m = 0 then 0.0
  else
    Util.Floatx.fold_range m ~init:0.0 ~f:(fun acc j ->
        acc
        +. List.fold_left (fun best i -> Float.max best input.omega.(i).(j)) 0.0 configs)
    /. float_of_int m

let coverage_of_rows input rows =
  let m = n_faults input in
  if m = 0 then 0.0
  else
    Util.Floatx.fold_range m ~init:0 ~f:(fun acc j ->
        if List.exists (fun i -> input.detect.(i).(j)) rows then acc + 1 else acc)
    |> fun covered -> float_of_int covered /. float_of_int m

(* ---- objective B: exact minimum configurable-opamp subsets --------

   The opamp count of a solution is the cardinality of a bit union, not
   an additive cost, so instead of weighted covering we enumerate opamp
   subsets by increasing size and keep the first size at which the
   reachable configurations still cover every coverable fault.  With
   n <= 20 opamps this is cheap. *)

(* Per-fault required detection counts: n capped at what the full
   matrix can deliver (0 for uncoverable faults). Computed once per
   input: the exponential subset search below asks this per fault for
   every candidate subset, and an O(rows) rescan there multiplies into
   the 2ⁿ enumeration. *)
let required_hits input ~n =
  let rows = Array.length input.detect in
  let m = n_faults input in
  Array.init m (fun j ->
      let avail = ref 0 in
      for i = 0 to rows - 1 do
        if input.detect.(i).(j) then incr avail
      done;
      Int.min n !avail)

let subset_covers input ~needed ~mask =
  let rows = Array.length input.detect in
  let m = n_faults input in
  let hits j target =
    let rec probe i acc =
      if acc >= target || i >= rows then acc
      else probe (i + 1) (if i land lnot mask = 0 && input.detect.(i).(j) then acc + 1 else acc)
    in
    probe 0 0
  in
  let rec check j =
    if j >= m then true
    else if hits j needed.(j) < needed.(j) then false
    else check (j + 1)
  in
  check 0

(* All k-subsets of [0 .. n-1] in lexicographic order, built onto an
   accumulator — the naive [include @ exclude] recursion re-walks the
   include branch's result at every level, which is quadratic in the
   output size. *)
let combinations n k =
  let rec go start k current acc =
    if k = 0 then List.rev current :: acc
    else if n - start < k then acc
    else
      let acc = go (start + 1) (k - 1) (start :: current) acc in
      go (start + 1) k current acc
  in
  List.rev (go 0 k [] [])

let mask_of positions = List.fold_left (fun m k -> m lor (1 lsl k)) 0 positions

let min_opamp_subsets ?(n_detect = 1) input =
  Obs.Trace.span "optimizer.min_opamp_subsets" @@ fun () ->
  let n = input.n_opamps in
  let needed = required_hits input ~n:n_detect in
  let rec search k =
    if k > n then []
    else
      let winners =
        List.filter
          (fun subset ->
            Obs.Metrics.incr "optimizer.subsets_tested";
            subset_covers input ~needed ~mask:(mask_of subset))
          (combinations n k)
      in
      if winners = [] then search (k + 1) else winners
  in
  List.map IntSet.of_list (search 0)

(* Per-fault detection counts delivered by a configuration subset;
   worst/average are taken over the detectable faults only (an
   uncoverable fault would pin worst at 0 forever). *)
let detection_stats input ~needed rows =
  let m = n_faults input in
  let counts =
    Array.init m (fun j ->
        List.fold_left (fun acc i -> if input.detect.(i).(j) then acc + 1 else acc) 0 rows)
  in
  let worst = ref max_int and sum = ref 0 and considered = ref 0 in
  Array.iteri
    (fun j c ->
      if needed.(j) > 0 then begin
        incr considered;
        sum := !sum + c;
        if c < !worst then worst := c
      end)
    counts;
  {
    worst = (if !considered = 0 then 0 else !worst);
    average =
      (if !considered = 0 then 0.0 else float_of_int !sum /. float_of_int !considered);
    per_fault = counts;
  }

let reachable_test_configs input ~mask =
  let rows = Array.length input.detect in
  List.filter (fun i -> i land lnot mask = 0) (List.init rows Fun.id)

(* ---- the full ordered-requirements flow --------------------------- *)

let xi_listing_limit = 12

let optimize ?(petrick_limit = 5) ?(n_detect = 1) input =
  if n_detect < 1 then invalid_arg "Optimizer.optimize: n_detect must be at least 1";
  let xi = Clause.of_matrix ~n:n_detect input.detect in
  let uncoverable = Clause.uncoverable_faults input.detect in
  let short_faults = Clause.short_faults ~n:n_detect input.detect in
  let essential = Clause.essentials xi in
  let xi_reduced = Clause.reduce xi ~chosen:essential in
  let use_petrick =
    input.n_opamps <= petrick_limit
    && IntSet.cardinal (Clause.candidates xi_reduced) <= Cover.Petrick.max_candidates
  in
  let with_essential terms = List.map (IntSet.union essential) terms in
  (* essentials are disjoint from the reduced candidates, so adding
     them merges no raw terms and the reduced count is the count *)
  let xi_raw_count =
    if use_petrick then Some (Cover.Petrick.count_raw xi_reduced) else None
  in
  let xi_terms_raw =
    match xi_raw_count with
    | Some n when n <= xi_listing_limit ->
        Some (with_essential (Cover.Petrick.expand_raw xi_reduced))
    | _ -> None
  in
  let xi_terms_min =
    if use_petrick then
      Some
        (List.sort_uniq
           (fun a b -> List.compare Int.compare (IntSet.elements a) (IntSet.elements b))
           (with_essential (Cover.Petrick.expand xi_reduced)))
    else None
  in
  let min_config_sets =
    match xi_terms_min with
    | Some terms -> Cover.Petrick.cheapest terms
    (* xi comes from of_matrix, which caps each clause's requirement at
       its available candidates, so the system is feasible *)
    | None -> [ Cover.Solver.cover_exn (Cover.Solver.exact xi) ]
  in
  let choice_a =
    let scored =
      List.map
        (fun s ->
          let configs = IntSet.elements s in
          { configs; avg_omega = avg_omega_of input configs })
        min_config_sets
    in
    List.fold_left
      (fun best c ->
        if c.avg_omega > best.avg_omega +. 1e-12 then c
        else if
          Float.abs (c.avg_omega -. best.avg_omega) <= 1e-12
          && List.compare Int.compare c.configs best.configs < 0
        then c
        else best)
      (List.hd scored) (List.tl scored)
  in
  let min_opamp_sets = min_opamp_subsets ~n_detect input in
  let choice_b =
    let scored =
      List.map
        (fun s ->
          let opamps = IntSet.elements s in
          let reachable = reachable_test_configs input ~mask:(mask_of opamps) in
          {
            opamps;
            reachable_configs = reachable;
            avg_omega_reachable = avg_omega_of input reachable;
          })
        min_opamp_sets
    in
    match scored with
    | [] -> { opamps = []; reachable_configs = [ 0 ]; avg_omega_reachable = avg_omega_of input [ 0 ] }
    | first :: rest ->
        List.fold_left
          (fun best c ->
            if c.avg_omega_reachable > best.avg_omega_reachable +. 1e-12 then c
            else if
              Float.abs (c.avg_omega_reachable -. best.avg_omega_reachable) <= 1e-12
              && List.compare Int.compare c.opamps best.opamps < 0
            then c
            else best)
          first rest
  in
  let all_rows = List.init (Array.length input.detect) Fun.id in
  let needed = required_hits input ~n:n_detect in
  let detection_a = detection_stats input ~needed choice_a.configs in
  let detection_b = detection_stats input ~needed choice_b.reachable_configs in
  {
    input;
    n_detect;
    uncoverable;
    short_faults;
    max_coverage = coverage_of_rows input all_rows;
    functional_coverage = coverage_of_rows input [ 0 ];
    functional_avg_omega = avg_omega_of input [ 0 ];
    brute_force_avg_omega = avg_omega_of input all_rows;
    essential = IntSet.elements essential;
    xi;
    xi_reduced;
    xi_raw_count;
    xi_terms_raw;
    xi_terms_min;
    min_config_sets;
    choice_a;
    min_opamp_sets;
    choice_b;
    detection_a;
    detection_b;
  }
