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

let coverage_of_view t i =
  let m = n_faults t in
  if m = 0 then 0.0
  else
    let covered =
      Util.Floatx.fold_range m ~init:0 ~f:(fun acc j ->
          if t.detect.(i).(j) then acc + 1 else acc)
    in
    float_of_int covered /. float_of_int m

let best_omega_det_over t views j =
  List.fold_left (fun acc i -> Float.max acc t.omega.(i).(j)) 0.0 views

let best_omega_det t j =
  best_omega_det_over t (List.init (n_views t) Fun.id) j

let average_best_omega_det ?views t =
  let views = Option.value views ~default:(List.init (n_views t) Fun.id) in
  let m = n_faults t in
  if m = 0 then 0.0
  else
    Util.Floatx.fold_range m ~init:0.0 ~f:(fun acc j ->
        acc +. best_omega_det_over t views j)
    /. float_of_int m

let column t j = Array.init (n_views t) (fun i -> t.detect.(i).(j))
let row t i = Array.copy t.detect.(i)
