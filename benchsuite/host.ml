(* Host speed. The benchmark's machine shares its physical cores with
   other tenants: its speed switches between states up to 1.6x apart
   every few seconds, in CPU time as much as in wall clock, and over
   minutes the mix of states drifts, so a longer measuring window does
   not average it out (README.md, Noise). Every end-to-end time is
   therefore divided by the host factor measured next to it: the time of
   a fixed kernel over its time at the reference speed.

   The kernel is three parts allocation of boxed floats and lists
   through the minor heap to one part in-place elimination of a dense
   float matrix. Under the host's slow states allocation slows about as
   much as the ladder and registry workloads, and dense arithmetic about
   twice as much as leapfrog5; this mix slows by about as much as all
   three. It is benchmark code: a change to the program cannot speed it
   up or slow it down. *)

let now = Unix.gettimeofday

let alloc_kernel () =
  let acc = ref 0.0 in
  for _ = 1 to 60 do
    let l = List.init 20_000 (fun i -> float_of_int i *. 1.0001) in
    let a = Array.of_list (List.map (fun x -> x *. x) l) in
    Array.iter (fun x -> acc := !acc +. x) a
  done;
  !acc

(* Gaussian elimination of a diagonally dominant matrix, refilled each
   pass so that the values stay normal. *)
let compute_kernel () =
  let n = 96 in
  let m = Array.make (n * n) 0.0 in
  let acc = ref 0.0 in
  for pass = 1 to 27 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        m.((i * n) + j) <- (if i = j then float_of_int (n + pass) else float_of_int ((i + j) mod 7))
      done
    done;
    for k = 0 to n - 1 do
      let pivot = m.((k * n) + k) in
      for i = k + 1 to n - 1 do
        let f = m.((i * n) + k) /. pivot in
        for j = k to n - 1 do
          m.((i * n) + j) <- m.((i * n) + j) -. (f *. m.((k * n) + j))
        done
      done
    done;
    acc := !acc +. m.((n * n) - 1)
  done;
  !acc

(* Seconds for one pass of the kernel. *)
let sample () =
  let t0 = now () in
  ignore (Sys.opaque_identity (alloc_kernel ()));
  ignore (Sys.opaque_identity (compute_kernel ()));
  now () -. t0

(* [sample ()] at the reference speed: the median of 910 samples taken
   next to the window units of two ten-seed sets on the machine described
   in README.md, so that a corrected time reads about as the raw time of
   a typical moment there. *)
let reference_s = 0.062

(* How much slower than the reference the host ran, from the samples
   taken around one piece of work. *)
let factor samples = Stats.median samples /. reference_s
