type t = { index : int; n_opamps : int }

let make ~n_opamps i =
  if n_opamps < 0 || n_opamps > 30 then
    invalid_arg "Configuration.make: n_opamps out of range";
  if i < 0 || i >= 1 lsl n_opamps then
    invalid_arg
      (Printf.sprintf "Configuration.make: index %d out of range for %d opamps" i
         n_opamps);
  { index = i; n_opamps }

let index c = c.index
let n_opamps c = c.n_opamps

let all ~n_opamps = List.init (1 lsl n_opamps) (fun i -> make ~n_opamps i)

let is_functional c = c.index = 0
let is_transparent c = c.index = (1 lsl c.n_opamps) - 1

let test_configurations ~n_opamps =
  List.filter (fun c -> not (is_transparent c)) (all ~n_opamps)

let follower c k =
  if k < 0 || k >= c.n_opamps then invalid_arg "Configuration.follower: bad opamp index";
  c.index land (1 lsl k) <> 0

let label c = Printf.sprintf "C%d" c.index

let vector c =
  String.init c.n_opamps (fun k -> if follower c k then '1' else '0')

let vector_partial ~subset c =
  String.init c.n_opamps (fun k ->
      if List.mem k subset then if follower c k then '1' else '0' else '-')
