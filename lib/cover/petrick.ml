module IntSet = Clause.IntSet
module IntTbl = Hashtbl.Make (Int)

(* Terms are machine-word masks over dense candidate ranks: rank r is
   the r-th smallest candidate of the system, so a mask's bits read in
   increasing order give the term's candidates in increasing order. *)

(* Every mask operation below (lor, land lnot, lsr, m land (m - 1))
   works on the sign bit too, so all Sys.int_size bits are ranks. *)
let max_candidates = Sys.int_size

let rec popcount m = if m = 0 then 0 else 1 + popcount (m land (m - 1))

(* The candidates by rank, and every clause's [need]-element literal
   subsets as masks, in element order (so that need = 1 reproduces the
   paper's derivation order). An unsatisfiable clause (|lits| < need)
   yields no subsets, so the whole expansion collapses to [] — the POS
   expression is identically 0. *)
let ranked (t : Clause.t) =
  let configs = Array.of_list (IntSet.elements (Clause.candidates t)) in
  if Array.length configs > max_candidates then
    invalid_arg
      (Printf.sprintf "Petrick: %d candidates, at most %d fit a term mask"
         (Array.length configs) max_candidates);
  let rank = Hashtbl.create (Array.length configs) in
  Array.iteri (fun r c -> Hashtbl.replace rank c r) configs;
  let rec choose k bits =
    if k = 0 then [ 0 ]
    else
      match bits with
      | [] -> []
      | b :: rest -> List.map (fun s -> b lor s) (choose (k - 1) rest) @ choose k rest
  in
  let need_subsets (c : Clause.clause) =
    choose c.Clause.need
      (List.map (fun l -> 1 lsl Hashtbl.find rank l) (IntSet.elements c.Clause.lits))
  in
  (configs, List.map need_subsets t.Clause.clauses)

let to_set configs m =
  let rec go r m acc =
    if m = 0 then acc
    else go (r + 1) (m lsr 1) (if m land 1 = 1 then IntSet.add configs.(r) acc else acc)
  in
  go 0 m IntSet.empty

(* One distribution step: multiply the running sum of products by a
   clause — for multiplicity clauses, by the sum over its
   [need]-subsets (any solution picks at least one full subset). *)
let distribute products subsets =
  List.concat_map (fun p -> List.map (fun s -> s lor p) subsets) products

(* Each step keeps first occurrences, in derivation order, through a
   seen set of the masks it has produced so far. *)
let raw_masks clauses =
  let seen = IntTbl.create 1024 in
  let step products subsets =
    IntTbl.clear seen;
    let kept = ref [] in
    List.iter
      (fun p ->
        List.iter
          (fun s ->
            let m = s lor p in
            if not (IntTbl.mem seen m) then begin
              IntTbl.add seen m ();
              kept := m :: !kept
            end)
          subsets)
      products;
    List.rev !kept
  in
  List.fold_left step [ 0 ] clauses

let expand_raw (t : Clause.t) =
  let configs, clauses = ranked t in
  List.map (to_set configs) (raw_masks clauses)

(* The raw terms are the distinct ORs of one subset per clause. Up to
   bitset_limit candidates, each step marks them in a byte per mask,
   read from the previous step's table; two tables alternate. *)
let bitset_limit = 20

let count_raw (t : Clause.t) =
  let configs, clauses = ranked t in
  let k = Array.length configs in
  if k > bitset_limit then List.length (raw_masks clauses)
  else begin
    let size = 1 lsl k in
    let rec go products next = function
      | [] -> products
      | subsets :: rest ->
          Bytes.fill next 0 size '\000';
          for m = 0 to size - 1 do
            if Bytes.get products m <> '\000' then
              List.iter (fun s -> Bytes.set next (s lor m) '\001') subsets
          done;
          go next products rest
    in
    let start = Bytes.make size '\000' in
    Bytes.set start 0 '\001';
    let products = go start (Bytes.make size '\000') clauses in
    Bytes.fold_left (fun n b -> if b = '\000' then n else n + 1) 0 products
  end

(* Keep only minimal terms: in popcount order, a mask survives unless
   an already-kept mask is a subset of it (an equal one included). *)
let absorb terms =
  List.fold_left
    (fun kept m -> if List.exists (fun k -> k land lnot m = 0) kept then kept else m :: kept)
    []
    (List.stable_sort (fun a b -> Int.compare (popcount a) (popcount b)) terms)

let compare_terms a b =
  match Int.compare (IntSet.cardinal a) (IntSet.cardinal b) with
  | 0 -> List.compare Int.compare (IntSet.elements a) (IntSet.elements b)
  | c -> c

let expand (t : Clause.t) =
  let configs, clauses = ranked t in
  let products =
    List.fold_left
      (fun products subsets -> absorb (distribute products subsets))
      [ 0 ] clauses
  in
  List.sort compare_terms (List.map (to_set configs) products)

let cheapest ?(cost = fun _ -> 1.0) terms =
  match terms with
  | [] -> []
  | _ ->
      let total t = IntSet.fold (fun c acc -> acc +. cost c) t 0.0 in
      let best = List.fold_left (fun acc t -> Float.min acc (total t)) infinity terms in
      List.filter (fun t -> total t <= best +. 1e-12) terms
