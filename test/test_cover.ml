module Clause = Cover.Clause
module IntSet = Clause.IntSet

let set = IntSet.of_list
let clause ?(need = 1) ~tag lits = { Clause.lits; need; tag }
let exact_exn p = Cover.Solver.(cover_exn (exact p))
let greedy_exn p = Cover.Solver.(cover_exn (greedy p))
let brute_exn p = Cover.Solver.(cover_exn (brute_force p))

(* The paper's route to the partial-DFT optima: the distinct opamp sets
   of minimum cardinality among the ξ* terms. *)
let minimal_opamp_sets terms =
  match Cover.Mapping.xi_star terms with
  | [] -> []
  | mapped ->
      let best = List.fold_left (fun acc s -> Int.min acc (IntSet.cardinal s)) max_int mapped in
      List.sort_uniq IntSet.compare (List.filter (fun s -> IntSet.cardinal s = best) mapped)

let matrix_3x4 =
  (* candidates 0..2, faults 0..3; fault 3 uncoverable *)
  [|
    [| true; false; true; false |];
    [| false; true; true; false |];
    [| true; true; false; false |];
  |]

let test_of_matrix () =
  let p = Clause.of_matrix matrix_3x4 in
  Alcotest.(check int) "clauses (uncoverable skipped)" 3 (List.length p.Clause.clauses);
  Alcotest.(check (list int)) "uncoverable" [ 3 ] (Clause.uncoverable_faults matrix_3x4)

let test_essentials () =
  let p = Clause.of_matrix [| [| true; true |]; [| false; true |] |] in
  (* fault 0 only covered by candidate 0 *)
  Alcotest.(check (list int)) "essential" [ 0 ] (IntSet.elements (Clause.essentials p))

let test_reduce () =
  let p = Clause.of_matrix matrix_3x4 in
  let reduced = Clause.reduce p ~chosen:(set [ 0 ]) in
  (* candidate 0 covers faults 0 and 2; fault 1 remains *)
  Alcotest.(check int) "one clause left" 1 (List.length reduced.Clause.clauses)

let test_is_cover () =
  let p = Clause.of_matrix matrix_3x4 in
  Alcotest.(check bool) "0,1 covers" true (Clause.is_cover p (set [ 0; 1 ]));
  Alcotest.(check bool) "0 alone does not" false (Clause.is_cover p (set [ 0 ]));
  Alcotest.(check bool) "2 alone does not" false (Clause.is_cover p (set [ 2 ]));
  let empty = Clause.of_matrix [| [||] |] in
  Alcotest.(check bool) "empty problem covered by nothing" true
    (Clause.is_cover empty IntSet.empty)

let test_pp () =
  let p = Clause.of_matrix [| [| true; false |]; [| true; true |] |] in
  Alcotest.(check string) "rendering" "(C0+C1).(C1)" (Format.asprintf "%a" Clause.pp p)

(* --- Petrick --- *)

let paper_reduced =
  (* xi_compl of the paper: (C1+C4+C5).(C1+C5) *)
  Clause.of_sets ~n_candidates:7 [ set [ 1; 4; 5 ]; set [ 1; 5 ] ]

let test_expand_raw_paper () =
  (* the paper's development keeps absorbable terms:
     C1 + C1C5 + C1C4 + C4C5 + C5 *)
  let terms = Cover.Petrick.expand_raw paper_reduced in
  let printable = List.map (fun t -> IntSet.elements t) terms in
  Alcotest.(check (list (list int)))
    "raw expansion"
    [ [ 1 ]; [ 1; 5 ]; [ 1; 4 ]; [ 4; 5 ]; [ 5 ] ]
    printable

let test_expand_absorbs () =
  let terms = Cover.Petrick.expand paper_reduced in
  let printable = List.map IntSet.elements terms in
  Alcotest.(check (list (list int))) "minimal covers" [ [ 1 ]; [ 5 ] ] printable

let test_expand_empty_problem () =
  let p = Clause.of_sets ~n_candidates:3 [] in
  Alcotest.(check int) "single empty product" 1 (List.length (Cover.Petrick.expand p));
  Alcotest.(check bool) "which is empty" true
    (IntSet.is_empty (List.hd (Cover.Petrick.expand p)))

let test_cheapest () =
  let terms = [ set [ 1 ]; set [ 4; 5 ]; set [ 5 ] ] in
  let best = Cover.Petrick.cheapest terms in
  Alcotest.(check int) "two singletons tie" 2 (List.length best);
  let cost c = if c = 5 then 10.0 else 2.0 in
  let weighted = Cover.Petrick.cheapest ~cost terms in
  Alcotest.(check (list (list int))) "weights change the pick" [ [ 1 ] ]
    (List.map IntSet.elements weighted)

(* --- solvers --- *)

let test_greedy_covers () =
  let p = Clause.of_matrix matrix_3x4 in
  Alcotest.(check bool) "valid cover" true (Clause.is_cover p (greedy_exn p))

let test_exact_paper_instance () =
  let p =
    Clause.of_matrix
      (Array.map (Array.map Fun.id) Mcdft_core.Paper_data.detectability_matrix)
  in
  let s = exact_exn p in
  Alcotest.(check bool) "covers" true (Clause.is_cover p s);
  Alcotest.(check int) "two configurations suffice" 2 (IntSet.cardinal s)

let test_exact_weighted () =
  (* candidate 0 covers everything but is expensive *)
  let p = Clause.of_matrix [| [| true; true |]; [| true; false |]; [| false; true |] |] in
  let cheap = exact_exn p in
  Alcotest.(check (list int)) "cardinality optimum" [ 0 ] (IntSet.elements cheap);
  let weighted =
    Cover.Solver.(cover_exn (exact ~cost:(fun c -> if c = 0 then 5.0 else 1.0) p))
  in
  Alcotest.(check (list int)) "weighted optimum avoids 0" [ 1; 2 ] (IntSet.elements weighted)

let random_problem rng =
  let n = 2 + QCheck.Gen.int_bound 5 rng in
  let m = 1 + QCheck.Gen.int_bound 6 rng in
  let d =
    Array.init n (fun _ -> Array.init m (fun _ -> QCheck.Gen.bool rng))
  in
  (* ensure every fault coverable to make cardinalities comparable *)
  for j = 0 to m - 1 do
    let covered = ref false in
    for i = 0 to n - 1 do
      if d.(i).(j) then covered := true
    done;
    if not !covered then d.(QCheck.Gen.int_bound (n - 1) rng).(j) <- true
  done;
  Clause.of_matrix d

let brute_force_minimum p =
  let candidates = IntSet.elements (Clause.candidates p) in
  let rec subsets = function
    | [] -> [ IntSet.empty ]
    | c :: rest ->
        let without = subsets rest in
        without @ List.map (IntSet.add c) without
  in
  List.fold_left
    (fun acc s ->
      if Clause.is_cover p s then Int.min acc (IntSet.cardinal s) else acc)
    max_int (subsets candidates)

let qcheck_exact_is_minimum =
  QCheck.Test.make ~name:"exact solver matches brute force minimum" ~count:100
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let p = random_problem rng in
      let s = exact_exn p in
      Clause.is_cover p s && IntSet.cardinal s = brute_force_minimum p)

let brute_force_min_cost ~cost p =
  let candidates = IntSet.elements (Clause.candidates p) in
  let rec subsets = function
    | [] -> [ IntSet.empty ]
    | c :: rest ->
        let without = subsets rest in
        without @ List.map (IntSet.add c) without
  in
  let cost_of s = IntSet.fold (fun c acc -> acc +. cost c) s 0.0 in
  List.fold_left
    (fun acc s ->
      if Clause.is_cover p s then Float.min acc (cost_of s) else acc)
    infinity (subsets candidates)

let qcheck_exact_weighted_is_min_cost =
  QCheck.Test.make
    ~name:"exact solver matches brute force minimum cost under random weights"
    ~count:100
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let p = random_problem rng in
      (* integral costs in 1..5 keep float sums exact, so the
         comparison needs no tolerance *)
      let weights =
        Array.init p.Clause.n_candidates (fun _ ->
            float_of_int (1 + QCheck.Gen.int_bound 4 rng))
      in
      let cost c = weights.(c) in
      let s = Cover.Solver.(cover_exn (exact ~cost p)) in
      let cost_of s = IntSet.fold (fun c acc -> acc +. cost c) s 0.0 in
      Clause.is_cover p s && cost_of s = brute_force_min_cost ~cost p)

let qcheck_greedy_valid_and_bounded =
  QCheck.Test.make ~name:"greedy covers; never better than exact" ~count:100
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let p = random_problem rng in
      let g = greedy_exn p in
      let e = exact_exn p in
      Clause.is_cover p g && IntSet.cardinal g >= IntSet.cardinal e)

let qcheck_petrick_matches_exact =
  QCheck.Test.make ~name:"petrick minimal terms match exact cardinality" ~count:60
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let p = random_problem rng in
      let terms = Cover.Petrick.expand p in
      let best = Cover.Petrick.cheapest terms in
      let e = exact_exn p in
      (* every petrick term is a cover; the cheapest have exact cardinality *)
      List.for_all (Clause.is_cover p) terms
      && List.for_all (fun t -> IntSet.cardinal t = IntSet.cardinal e) best)

(* --- mapping --- *)

let test_opamps_of_config () =
  Alcotest.(check (list int)) "C5 -> OP1 OP3" [ 0; 2 ]
    (IntSet.elements (Cover.Mapping.opamps_of_config 5));
  Alcotest.(check (list int)) "C0 -> none" []
    (IntSet.elements (Cover.Mapping.opamps_of_config 0))

let test_paper_mapping () =
  (* the paper's xi terms map to OP sets; minimum is {OP1, OP2} *)
  let xi_terms =
    [ set [ 1; 2 ]; set [ 1; 2; 5 ]; set [ 1; 2; 4 ]; set [ 2; 4; 5 ]; set [ 2; 5 ] ]
  in
  let mapped = Cover.Mapping.xi_star xi_terms in
  Alcotest.(check int) "five mapped terms" 5 (List.length mapped);
  Alcotest.(check (list int)) "first term = OP1 OP2" [ 0; 1 ]
    (IntSet.elements (List.hd mapped));
  let minimal = minimal_opamp_sets xi_terms in
  Alcotest.(check (list (list int))) "unique minimum" [ [ 0; 1 ] ]
    (List.map IntSet.elements minimal)

let suite =
  [
    Alcotest.test_case "of_matrix" `Quick test_of_matrix;
    Alcotest.test_case "essentials" `Quick test_essentials;
    Alcotest.test_case "reduce" `Quick test_reduce;
    Alcotest.test_case "is_cover" `Quick test_is_cover;
    Alcotest.test_case "pp" `Quick test_pp;
    Alcotest.test_case "petrick raw (paper)" `Quick test_expand_raw_paper;
    Alcotest.test_case "petrick absorption" `Quick test_expand_absorbs;
    Alcotest.test_case "petrick empty" `Quick test_expand_empty_problem;
    Alcotest.test_case "cheapest" `Quick test_cheapest;
    Alcotest.test_case "greedy covers" `Quick test_greedy_covers;
    Alcotest.test_case "exact on paper matrix" `Quick test_exact_paper_instance;
    Alcotest.test_case "exact weighted" `Quick test_exact_weighted;
    Alcotest.test_case "opamps of config" `Quick test_opamps_of_config;
    Alcotest.test_case "paper mapping" `Quick test_paper_mapping;
    QCheck_alcotest.to_alcotest qcheck_exact_is_minimum;
    QCheck_alcotest.to_alcotest qcheck_exact_weighted_is_min_cost;
    QCheck_alcotest.to_alcotest qcheck_greedy_valid_and_bounded;
    QCheck_alcotest.to_alcotest qcheck_petrick_matches_exact;
  ]

let qcheck_expand_is_antichain =
  QCheck.Test.make ~name:"petrick expand yields an antichain of covers" ~count:60
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let p = random_problem rng in
      let terms = Cover.Petrick.expand p in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              IntSet.equal a b
              || not (IntSet.subset a b || IntSet.subset b a))
            terms)
        terms)

let qcheck_essentials_in_every_minimal_cover =
  QCheck.Test.make ~name:"essential candidates appear in every irredundant cover"
    ~count:60
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let p = random_problem rng in
      let essentials = Clause.essentials p in
      List.for_all
        (fun t -> IntSet.subset essentials t)
        (Cover.Petrick.expand p))

(* --- multiplicity (n-detection) covering and infeasibility --- *)

let test_infeasible_empty_clause () =
  (* an undetectable fault yields an empty clause: every solver must
     report it, never crash or return an empty cover *)
  let p = Clause.of_sets ~n_candidates:3 [ set [ 0 ]; IntSet.empty ] in
  let check_solver name solve =
    match solve p with
    | Cover.Solver.Infeasible tags ->
        Alcotest.(check (list int)) (name ^ " names the empty clause") [ 1 ] tags
    | Cover.Solver.Cover _ -> Alcotest.failf "%s returned a cover on infeasible input" name
  in
  check_solver "greedy" Cover.Solver.greedy;
  check_solver "exact" Cover.Solver.exact;
  check_solver "brute_force" Cover.Solver.brute_force;
  Alcotest.check_raises "cover_exn raises typed exception"
    (Cover.Solver.Infeasible_cover [ 1 ])
    (fun () -> ignore (Cover.Solver.(cover_exn (exact p))))

let test_of_matrix_exact_infeasible () =
  (* fault 3 of matrix_3x4 is undetectable: requiring 2 detections
     without capping is infeasible, and the tag names the fault *)
  let p = Clause.of_matrix_exact ~n:2 matrix_3x4 in
  (match Cover.Solver.exact p with
  | Cover.Solver.Infeasible tags -> Alcotest.(check (list int)) "tags" [ 3 ] tags
  | Cover.Solver.Cover _ -> Alcotest.fail "expected Infeasible");
  (* the capped builder stays feasible and reports nothing short at n=2
     (every coverable fault has 2 candidates) *)
  let capped = Clause.of_matrix ~n:2 matrix_3x4 in
  Alcotest.(check (list int)) "no infeasible clause" [] (Clause.infeasible_tags capped);
  Alcotest.(check (list (pair int int)))
    "short at n=3: all coverable faults have only 2 candidates"
    [ (0, 2); (1, 2); (2, 2) ]
    (Clause.short_faults ~n:3 matrix_3x4)

let test_pp_multiplicity () =
  let p = Clause.of_matrix ~n:2 [| [| true |]; [| true |]; [| false |] |] in
  Alcotest.(check string) "need suffix" "(C0+C1)>=2" (Format.asprintf "%a" Clause.pp p)

(* the pre-multiplicity greedy, kept verbatim as the n=1 reference: the
   new solver must reproduce its picks bitwise *)
let legacy_greedy sets =
  let rec loop clauses chosen =
    match clauses with
    | [] -> chosen
    | _ ->
        let candidates =
          List.fold_left IntSet.union IntSet.empty clauses |> IntSet.elements
        in
        let gain c = List.length (List.filter (IntSet.mem c) clauses) in
        let best =
          List.fold_left
            (fun acc c ->
              match acc with
              | None -> Some c
              | Some b -> if gain c > gain b then Some c else acc)
            None candidates
        in
        let c = Option.get best in
        loop (List.filter (fun l -> not (IntSet.mem c l)) clauses) (IntSet.add c chosen)
  in
  loop sets IntSet.empty

let qcheck_n1_greedy_bitwise_legacy =
  QCheck.Test.make ~name:"n=1 greedy reduces to the legacy set-cover greedy bitwise"
    ~count:200
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let p = random_problem rng in
      let legacy = legacy_greedy (List.map (fun c -> c.Clause.lits) p.Clause.clauses) in
      IntSet.equal legacy (greedy_exn p))

let random_multiplicity_system rng =
  (* clauses may be empty or need more literals than they hold *)
  let n = 1 + QCheck.Gen.int_bound 5 rng in
  let m = 1 + QCheck.Gen.int_bound 4 rng in
  let clauses =
    List.init m (fun j ->
        let lits =
          IntSet.of_list
            (List.filter (fun _ -> QCheck.Gen.bool rng) (List.init n Fun.id))
        in
        clause ~need:(1 + QCheck.Gen.int_bound 2 rng) ~tag:j lits)
  in
  { Clause.n_candidates = n; clauses }

let qcheck_solvers_agree_on_feasibility =
  QCheck.Test.make
    ~name:"greedy/exact/brute_force agree on feasibility for random clause systems"
    ~count:300
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let p = random_multiplicity_system rng in
      let verdict = function
        | Cover.Solver.Cover s ->
            if Clause.is_cover p s then None else Some [ -1 ] (* invalid cover *)
        | Cover.Solver.Infeasible tags -> Some tags
      in
      let g = verdict (Cover.Solver.greedy p) in
      let e = verdict (Cover.Solver.exact p) in
      let b = verdict (Cover.Solver.brute_force p) in
      g = e && e = b)

let qcheck_ndetect_hits_every_clause =
  QCheck.Test.make ~name:"n-detection covers hit every clause at least need times"
    ~count:200
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 2 + QCheck.Gen.int_bound 4 rng in
      let m = 1 + QCheck.Gen.int_bound 5 rng in
      let d = Array.init n (fun _ -> Array.init m (fun _ -> QCheck.Gen.bool rng)) in
      let nd = 1 + QCheck.Gen.int_bound 2 rng in
      let p = Clause.of_matrix ~n:nd d in
      let hits cover j =
        let count = ref 0 in
        for i = 0 to n - 1 do
          if d.(i).(j) && IntSet.mem i cover then incr count
        done;
        !count
      in
      let need j =
        let avail = ref 0 in
        for i = 0 to n - 1 do
          if d.(i).(j) then incr avail
        done;
        Int.min nd !avail
      in
      let valid cover =
        Clause.is_cover p cover
        && List.for_all (fun j -> hits cover j >= need j) (List.init m Fun.id)
      in
      let g = greedy_exn p and e = exact_exn p and b = brute_exn p in
      valid g && valid e && valid b && IntSet.cardinal e = IntSet.cardinal b)

let qcheck_ndetect_exact_strict_infeasible =
  QCheck.Test.make
    ~name:"of_matrix_exact infeasible exactly when some fault has < n detecting configs"
    ~count:200
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 2 + QCheck.Gen.int_bound 4 rng in
      let m = 1 + QCheck.Gen.int_bound 5 rng in
      let d = Array.init n (fun _ -> Array.init m (fun _ -> QCheck.Gen.bool rng)) in
      let nd = 1 + QCheck.Gen.int_bound 2 rng in
      let p = Clause.of_matrix_exact ~n:nd d in
      let short =
        List.filter
          (fun j ->
            let avail = ref 0 in
            for i = 0 to n - 1 do
              if d.(i).(j) then incr avail
            done;
            !avail < nd)
          (List.init m Fun.id)
      in
      match Cover.Solver.exact p with
      | Cover.Solver.Infeasible tags -> tags = short && short <> []
      | Cover.Solver.Cover _ -> short = [])

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest qcheck_expand_is_antichain;
      QCheck_alcotest.to_alcotest qcheck_essentials_in_every_minimal_cover;
      Alcotest.test_case "infeasible empty clause" `Quick test_infeasible_empty_clause;
      Alcotest.test_case "of_matrix_exact infeasible" `Quick
        test_of_matrix_exact_infeasible;
      Alcotest.test_case "pp multiplicity" `Quick test_pp_multiplicity;
      QCheck_alcotest.to_alcotest qcheck_n1_greedy_bitwise_legacy;
      QCheck_alcotest.to_alcotest qcheck_solvers_agree_on_feasibility;
      QCheck_alcotest.to_alcotest qcheck_ndetect_hits_every_clause;
      QCheck_alcotest.to_alcotest qcheck_ndetect_exact_strict_infeasible;
    ]

(* --- bitmask Petrick against the set-based reference --- *)

(* The set-based Petrick expansion the bitmask kernel replaced, kept
   verbatim as the reference: terms are IntSets, duplicates are found
   through list-keyed hashing and absorption is a pairwise subset scan. *)
module Reference = struct
  let dedup terms =
    let seen = Hashtbl.create 64 in
    List.filter
      (fun t ->
        let key = IntSet.elements t in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      terms

  let need_subsets (c : Clause.clause) =
    let rec choose k xs =
      if k = 0 then [ [] ]
      else
        match xs with
        | [] -> []
        | x :: rest -> List.map (fun s -> x :: s) (choose (k - 1) rest) @ choose k rest
    in
    List.map IntSet.of_list (choose c.Clause.need (IntSet.elements c.Clause.lits))

  let distribute products subsets =
    List.concat_map (fun p -> List.map (fun s -> IntSet.union s p) subsets) products

  let expand_raw (t : Clause.t) =
    List.fold_left
      (fun products clause -> dedup (distribute products (need_subsets clause)))
      [ IntSet.empty ] t.Clause.clauses

  let absorb terms =
    let arr = Array.of_list (dedup terms) in
    let n = Array.length arr in
    let keep = Array.make n true in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if
          i <> j && keep.(i) && keep.(j)
          && IntSet.subset arr.(j) arr.(i)
          && not (IntSet.equal arr.(i) arr.(j))
        then keep.(i) <- false
      done
    done;
    List.filteri (fun i _ -> keep.(i)) (Array.to_list arr)

  let compare_terms a b =
    match Int.compare (IntSet.cardinal a) (IntSet.cardinal b) with
    | 0 -> List.compare Int.compare (IntSet.elements a) (IntSet.elements b)
    | c -> c

  let expand (t : Clause.t) =
    List.sort compare_terms
      (List.fold_left
         (fun products clause -> absorb (distribute products (need_subsets clause)))
         [ IntSet.empty ] t.Clause.clauses)

  let opamps_of_term term =
    IntSet.fold
      (fun c acc -> IntSet.union acc (Cover.Mapping.opamps_of_config c))
      term IntSet.empty
end

(* Random clause systems over literals drawn sparsely from 0..62, so the
   dense ranks differ from the configuration indices. A third are
   "wide": need-1 clauses of 14–24 literals, two of which usually span
   25 or more candidates, so high ranks are in play. The rest mix
   need 1–3 over 1–12 literals.
   Clauses are added while the raw expansion stays within ~1000 terms,
   and one system in eight gets an unsatisfiable clause (ξ ≡ 0). *)
let rec binomial n k =
  if k = 0 then 1 else if n < k then 0 else binomial (n - 1) (k - 1) * n / k

let random_sparse_system rng =
  let int_bound = Fun.flip QCheck.Gen.int_bound rng in
  let lits n = IntSet.of_list (List.init n (fun _ -> int_bound 62)) in
  let wide = int_bound 2 = 0 in
  let random_clause j =
    if wide then clause ~tag:j (lits (14 + int_bound 10))
    else
      let l = lits (1 + int_bound 11) in
      clause ~need:(1 + int_bound (Int.min 3 (IntSet.cardinal l) - 1)) ~tag:j l
  in
  let rec grow j size acc =
    let c = random_clause j in
    let size = size * binomial (IntSet.cardinal c.Clause.lits) c.Clause.need in
    if j > 0 && (size > 1000 || j >= 6) then List.rev acc else grow (j + 1) size (c :: acc)
  in
  let clauses = grow 0 1 [] in
  let clauses =
    if int_bound 7 > 0 then clauses
    else
      let l = lits (int_bound 2) in
      clauses @ [ clause ~need:(IntSet.cardinal l + 1) ~tag:(List.length clauses) l ]
  in
  { Clause.n_candidates = 63; clauses }

let same_lists a b = List.equal IntSet.equal a b

let qcheck_bitmask_petrick_matches_reference =
  QCheck.Test.make
    ~name:"bitmask Petrick and xi* equal the set-based reference, order included"
    ~count:200
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let p = random_sparse_system rng in
      let raw = Cover.Petrick.expand_raw p in
      same_lists raw (Reference.expand_raw p)
      && same_lists (Cover.Petrick.expand p) (Reference.expand p)
      && same_lists (Cover.Mapping.xi_star raw) (List.map Reference.opamps_of_term raw))

let test_petrick_wide_systems () =
  (* 27 and 63 candidates; the last clause of the first system revisits
     literals already in the products, and the second system's top rank
     is the sign bit of a term mask *)
  let spread k i = set (List.init 9 (fun j -> (k * j + i) mod 63)) in
  List.iter
    (fun (what, p) ->
      Alcotest.(check bool) (what ^ ": raw") true
        (same_lists (Cover.Petrick.expand_raw p) (Reference.expand_raw p));
      Alcotest.(check int) (what ^ ": raw count")
        (List.length (Reference.expand_raw p))
        (Cover.Petrick.count_raw p);
      Alcotest.(check bool) (what ^ ": minimal") true
        (same_lists (Cover.Petrick.expand p) (Reference.expand p)))
    [
      ( "27 candidates",
        Clause.of_sets ~n_candidates:63
          [ spread 6 0; spread 6 2; spread 6 4; set [ 0; 2; 4 ] ] );
      ( "63 candidates",
        Clause.of_sets ~n_candidates:63
          [ set (List.init 32 (fun i -> 2 * i)); set (List.init 31 (fun i -> (2 * i) + 1)) ]
      );
    ]

let test_petrick_width_guard () =
  let k = Cover.Petrick.max_candidates + 1 in
  let wide = Clause.of_sets ~n_candidates:k [ set (List.init k Fun.id) ] in
  let error =
    Invalid_argument
      (Printf.sprintf "Petrick: %d candidates, at most %d fit a term mask" k (k - 1))
  in
  Alcotest.check_raises "expand_raw beyond max_candidates" error (fun () ->
      ignore (Cover.Petrick.expand_raw wide));
  Alcotest.check_raises "expand beyond max_candidates" error (fun () ->
      ignore (Cover.Petrick.expand wide));
  Alcotest.check_raises "count_raw beyond max_candidates" error (fun () ->
      ignore (Cover.Petrick.count_raw wide))

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest qcheck_bitmask_petrick_matches_reference;
      Alcotest.test_case "petrick wide systems" `Quick test_petrick_wide_systems;
      Alcotest.test_case "petrick candidate-width guard" `Quick test_petrick_width_guard;
    ]

(* --- counting the raw terms without building them --- *)

(* Dense systems for the bitset count: a pool of 1–20 candidates drawn
   from 0..62 (so ranks differ from indices), clauses of need 1–3 over
   it. The running number of distinct products is at most
   min(∏ binomials, 2^k); clauses are added while that stays within
   ~4000, up to 10 of them, and one system in eight gets an
   unsatisfiable clause. *)
let random_dense_system rng =
  let int_bound = Fun.flip QCheck.Gen.int_bound rng in
  let indices = Array.init 63 Fun.id in
  for i = 62 downto 1 do
    let j = int_bound i in
    let x = indices.(i) in
    indices.(i) <- indices.(j);
    indices.(j) <- x
  done;
  let k = 1 + int_bound 19 in
  let pool = Array.sub indices 0 k in
  let random_clause j =
    let l =
      IntSet.of_list (List.init (1 + int_bound (k - 1)) (fun _ -> pool.(int_bound (k - 1))))
    in
    clause ~need:(1 + int_bound (Int.min 3 (IntSet.cardinal l) - 1)) ~tag:j l
  in
  let rec grow j size acc =
    let c = random_clause j in
    let size =
      Int.min (1 lsl k) (size * binomial (IntSet.cardinal c.Clause.lits) c.Clause.need)
    in
    if j > 0 && (size > 4000 || j >= 10) then List.rev acc else grow (j + 1) size (c :: acc)
  in
  let clauses = grow 0 1 [] in
  let clauses =
    if int_bound 7 > 0 then clauses
    else
      let l = IntSet.singleton pool.(0) in
      clauses @ [ clause ~need:2 ~tag:(List.length clauses) l ]
  in
  { Clause.n_candidates = 63; clauses }

let count_matches p = Cover.Petrick.count_raw p = List.length (Cover.Petrick.expand_raw p)

let qcheck_count_raw_dense =
  QCheck.Test.make ~name:"count_raw = |expand_raw| on dense systems (bitset path)"
    ~count:300
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let p = random_dense_system (Random.State.make [| seed |]) in
      IntSet.cardinal (Clause.candidates p) <= 20 && count_matches p)

let qcheck_count_raw_sparse =
  QCheck.Test.make
    ~name:"count_raw = |expand_raw| on sparse systems (mostly > 20 candidates)" ~count:200
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed -> count_matches (random_sparse_system (Random.State.make [| seed |])))

let test_count_raw_edges () =
  let check what expected p =
    Alcotest.(check int) (what ^ ": count") expected (Cover.Petrick.count_raw p);
    Alcotest.(check int) (what ^ ": expand_raw") expected
      (List.length (Cover.Petrick.expand_raw p))
  in
  check "empty clause list (xi = 1)" 1 { Clause.n_candidates = 63; clauses = [] };
  check "unsatisfiable clause (xi = 0)" 0
    {
      Clause.n_candidates = 63;
      clauses =
        [ clause ~tag:0 (set [ 3; 9 ]); clause ~need:2 ~tag:1 (set [ 5 ]) ];
    };
  check "paper reduced xi" 5 paper_reduced;
  (* 20 candidates take the bitset path with the top rank in play, 21
     take the hash path: clauses pair candidate 2i with 2i+1 *)
  List.iter
    (fun k ->
      let pairs = List.init (k / 2) (fun i -> set [ 2 * i; (2 * i) + 1 ]) in
      let pairs = if k mod 2 = 1 then pairs @ [ set [ k - 1; 0 ] ] else pairs in
      let p = Clause.of_sets ~n_candidates:63 pairs in
      Alcotest.(check int) (Printf.sprintf "%d candidates" k) k
        (IntSet.cardinal (Clause.candidates p));
      check (Printf.sprintf "%d candidates" k) (List.length (Reference.expand_raw p)) p)
    [ 20; 21 ]

(* C_i ↦ ∏OP_k is monotone and every minimal term is a raw term, so
   the cheapest opamp sets of the raw terms are those of the minimal
   terms: objective B needs no raw expansion. *)
let qcheck_opamp_sets_from_minimal_terms =
  QCheck.Test.make ~name:"minimal opamp sets of raw terms = those of minimal terms"
    ~count:200
    (QCheck.make QCheck.Gen.(pair bool (int_bound 1_000_000)))
    (fun (dense, seed) ->
      let rng = Random.State.make [| seed |] in
      let p = if dense then random_dense_system rng else random_sparse_system rng in
      same_lists
        (minimal_opamp_sets (Cover.Petrick.expand_raw p))
        (minimal_opamp_sets (Cover.Petrick.expand p)))

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest qcheck_count_raw_dense;
      QCheck_alcotest.to_alcotest qcheck_count_raw_sparse;
      Alcotest.test_case "count_raw edge cases" `Quick test_count_raw_edges;
      QCheck_alcotest.to_alcotest qcheck_opamp_sets_from_minimal_terms;
    ]
