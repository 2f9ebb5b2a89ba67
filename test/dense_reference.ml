(* The tests' reference assembly: every stamp of
   [Mna.Assemble.stamp_element] added, in element order, to a dense
   Complex.t system as g + iω·c — the accumulation the conformance
   oracle's reference solve makes, independent of the stamp run's slot
   sums. At ω = 1 each entry holds its s⁰ and s¹ sums exactly, as its
   real and imaginary parts. *)
let system ~sources ~omega index netlist =
  let n = Mna.Index.size index in
  let matrix = Array.make_matrix n n Complex.zero and rhs = Array.make n Complex.zero in
  let stamp g c = { Complex.re = g; im = omega *. c } in
  let add_m i j g c =
    match (i, j) with
    | Some i, Some j -> matrix.(i).(j) <- Complex.add matrix.(i).(j) (stamp g c)
    | _ -> ()
  and add_b i g c =
    match i with Some i -> rhs.(i) <- Complex.add rhs.(i) (stamp g c) | None -> ()
  in
  List.iter
    (Mna.Assemble.stamp_element ~sources ~add_m ~add_b index)
    (Circuit.Netlist.elements netlist);
  (matrix, rhs)
