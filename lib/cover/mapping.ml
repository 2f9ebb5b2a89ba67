module IntSet = Clause.IntSet

let opamps_of_config i =
  if i < 0 then invalid_arg "Mapping.opamps_of_config: negative index";
  let rec bits k acc =
    if 1 lsl k > i then acc
    else bits (k + 1) (if i land (1 lsl k) <> 0 then IntSet.add k acc else acc)
  in
  bits 0 IntSet.empty

(* a configuration index is its opamp mask, so a term needs the opamps
   of the union of its indices *)
let opamps_of_term term = opamps_of_config (IntSet.fold (fun c acc -> acc lor c) term 0)

let xi_star terms = List.map opamps_of_term terms
