module IntSet = Set.Make (Int)

type clause = { lits : IntSet.t; need : int; tag : int }

type t = { n_candidates : int; clauses : clause list }

let clause ?(need = 1) ~tag lits =
  if need < 1 then invalid_arg "Clause.clause: need must be at least 1";
  { lits; need; tag }

let of_sets ~n_candidates sets =
  { n_candidates; clauses = List.mapi (fun i s -> clause ~tag:i s) sets }

let column_candidates d j =
  let n = Array.length d in
  let rec collect i acc =
    if i >= n then acc
    else collect (i + 1) (if d.(i).(j) then IntSet.add i acc else acc)
  in
  collect 0 IntSet.empty

let of_matrix ?(n = 1) d =
  if n < 1 then invalid_arg "Clause.of_matrix: n must be at least 1";
  let rows = Array.length d in
  let m = if rows = 0 then 0 else Array.length d.(0) in
  let clauses =
    List.filter_map
      (fun j ->
        let c = column_candidates d j in
        let avail = IntSet.cardinal c in
        (* the fundamental requirement is the *maximum achievable*
           coverage: a fault detectable in fewer than [n] views keeps
           its achievable multiplicity rather than poisoning the whole
           instance; short columns are reported via short_faults *)
        if avail = 0 then None else Some (clause ~need:(Int.min n avail) ~tag:j c))
      (List.init m Fun.id)
  in
  { n_candidates = rows; clauses }

let of_matrix_exact ~n d =
  if n < 1 then invalid_arg "Clause.of_matrix_exact: n must be at least 1";
  let rows = Array.length d in
  let m = if rows = 0 then 0 else Array.length d.(0) in
  let clauses =
    List.map (fun j -> clause ~need:n ~tag:j (column_candidates d j)) (List.init m Fun.id)
  in
  { n_candidates = rows; clauses }

let uncoverable_faults d =
  let m = if Array.length d = 0 then 0 else Array.length d.(0) in
  List.filter (fun j -> IntSet.is_empty (column_candidates d j)) (List.init m Fun.id)

let short_faults ~n d =
  let m = if Array.length d = 0 then 0 else Array.length d.(0) in
  List.filter_map
    (fun j ->
      let avail = IntSet.cardinal (column_candidates d j) in
      if avail > 0 && avail < n then Some (j, avail) else None)
    (List.init m Fun.id)

let essentials t =
  (* every literal of a clause with zero slack is forced into every
     solution (for need = 1 these are the singleton clauses) *)
  List.fold_left
    (fun acc c ->
      if IntSet.cardinal c.lits = c.need then IntSet.union acc c.lits else acc)
    IntSet.empty t.clauses

let reduce t ~chosen =
  {
    t with
    clauses =
      List.filter_map
        (fun c ->
          let hit = IntSet.cardinal (IntSet.inter c.lits chosen) in
          if hit >= c.need then None
          else Some { c with lits = IntSet.diff c.lits chosen; need = c.need - hit })
        t.clauses;
  }

let satisfied c set = IntSet.cardinal (IntSet.inter c.lits set) >= c.need

let is_cover t set = List.for_all (fun c -> satisfied c set) t.clauses

let infeasible_tags t =
  List.filter_map
    (fun c -> if IntSet.cardinal c.lits < c.need then Some c.tag else None)
    t.clauses

let candidates t =
  List.fold_left (fun acc c -> IntSet.union acc c.lits) IntSet.empty t.clauses

let pp ppf t =
  let pp_clause ppf c =
    Format.fprintf ppf "(%s)%s"
      (String.concat "+" (List.map (Printf.sprintf "C%d") (IntSet.elements c.lits)))
      (if c.need = 1 then "" else Printf.sprintf ">=%d" c.need)
  in
  match t.clauses with
  | [] -> Format.fprintf ppf "1"
  | clauses ->
      Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ".") pp_clause ppf
        clauses
