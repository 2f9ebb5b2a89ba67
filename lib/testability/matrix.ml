module Netlist = Circuit.Netlist

type view = { label : string; netlist : Netlist.t; probe : Detect.probe }

type t = {
  views : view array;
  faults : Fault.t array;
  detect : bool array array;
  omega : float array array;
  verdicts : Bytes.t array array;
  deviations : float array array array;
  nominal : float array array;
}

let n_views t = Array.length t.views
let n_faults t = Array.length t.faults

let detectable_at t i j k = Bytes.get t.verdicts.(i).(j) k = 'd'

let detectable_anywhere t j =
  Util.Floatx.fold_range (n_views t) ~init:false ~f:(fun acc i -> acc || t.detect.(i).(j))

let max_fault_coverage t =
  let m = n_faults t in
  if m = 0 then 0.0
  else
    let covered =
      Util.Floatx.fold_range m ~init:0 ~f:(fun acc j ->
          if detectable_anywhere t j then acc + 1 else acc)
    in
    float_of_int covered /. float_of_int m
