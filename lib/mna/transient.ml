module Netlist = Circuit.Netlist
module Element = Circuit.Element
module Cmat = Linalg.Cmat

type waveform =
  | Dc of float
  | Step of { t0 : float; v0 : float; v1 : float }
  | Sine of { amplitude : float; freq_hz : float; phase : float }
  | Pwl of (float * float) list

let value_at w t =
  match w with
  | Dc v -> v
  | Step { t0; v0; v1 } -> if t < t0 then v0 else v1
  | Sine { amplitude; freq_hz; phase } ->
      amplitude *. sin ((2.0 *. Float.pi *. freq_hz *. t) +. phase)
  | Pwl points -> (
      match points with
      | [] -> 0.0
      | (t0, v0) :: _ when t <= t0 -> v0
      | _ ->
          let rec interp = function
            | [ (_, v) ] -> v
            | (t1, v1) :: ((t2, v2) :: _ as rest) ->
                if t <= t2 then
                  if t2 = t1 then v2 else v1 +. ((v2 -. v1) *. (t -. t1) /. (t2 -. t1))
                else interp rest
            | [] -> 0.0
          in
          interp points)

type trace = { times : float array; signals : (string * float array) list }

(* Per-element integration state, updated after each accepted step. *)
type cap_state = { mutable v_prev : float; mutable i_prev : float }
type ind_state = { mutable il_prev : float; mutable vl_prev : float }
type opamp_state = { mutable vd_prev : float; mutable vo_prev : float }

let simulate ?(waveforms = []) ~record ~t_stop ~dt netlist =
  if dt <= 0.0 || t_stop <= 0.0 then
    invalid_arg "Transient.simulate: dt and t_stop must be positive";
  let index = Index.build netlist in
  let n = Index.size index in
  let node_idx name = Index.node index name in
  let real re = Complex.{ re; im = 0.0 } in
  let matrix = Cmat.create n n in
  let add_m i j v =
    match (i, j) with
    | Some i, Some j -> Cmat.add_to matrix i j (real v)
    | _ -> ()
  in
  (* --- constant (companion) matrix stamps --- *)
  let caps = ref [] and inds = ref [] and opamps = ref [] in
  List.iter
    (fun e ->
      match e with
      | Element.Resistor { n1; n2; value; _ } ->
          let g = 1.0 /. value in
          add_m (node_idx n1) (node_idx n1) g;
          add_m (node_idx n2) (node_idx n2) g;
          add_m (node_idx n1) (node_idx n2) (-.g);
          add_m (node_idx n2) (node_idx n1) (-.g)
      | Element.Capacitor { name; n1; n2; value } ->
          let geq = 2.0 *. value /. dt in
          add_m (node_idx n1) (node_idx n1) geq;
          add_m (node_idx n2) (node_idx n2) geq;
          add_m (node_idx n1) (node_idx n2) (-.geq);
          add_m (node_idx n2) (node_idx n1) (-.geq);
          caps :=
            (name, n1, n2, geq, { v_prev = 0.0; i_prev = 0.0 }) :: !caps
      | Element.Inductor { name; n1; n2; value } ->
          let b = Index.branch index name in
          add_m (node_idx n1) (Some b) 1.0;
          add_m (node_idx n2) (Some b) (-1.0);
          add_m (Some b) (node_idx n1) 1.0;
          add_m (Some b) (node_idx n2) (-1.0);
          add_m (Some b) (Some b) (-.(2.0 *. value /. dt));
          inds := (name, n1, n2, b, value, { il_prev = 0.0; vl_prev = 0.0 }) :: !inds
      | Element.Vsource { name; npos; nneg; _ } ->
          let b = Index.branch index name in
          add_m (node_idx npos) (Some b) 1.0;
          add_m (node_idx nneg) (Some b) (-1.0);
          add_m (Some b) (node_idx npos) 1.0;
          add_m (Some b) (node_idx nneg) (-1.0)
      | Element.Isource _ -> ()
      | Element.Vcvs { name; npos; nneg; cpos; cneg; gain } ->
          let b = Index.branch index name in
          add_m (node_idx npos) (Some b) 1.0;
          add_m (node_idx nneg) (Some b) (-1.0);
          add_m (Some b) (node_idx npos) 1.0;
          add_m (Some b) (node_idx nneg) (-1.0);
          add_m (Some b) (node_idx cpos) (-.gain);
          add_m (Some b) (node_idx cneg) gain
      | Element.Vccs { npos; nneg; cpos; cneg; gm; _ } ->
          add_m (node_idx npos) (node_idx cpos) gm;
          add_m (node_idx npos) (node_idx cneg) (-.gm);
          add_m (node_idx nneg) (node_idx cpos) (-.gm);
          add_m (node_idx nneg) (node_idx cneg) gm
      | Element.Ccvs { name; npos; nneg; vsense; r } ->
          let b = Index.branch index name in
          let bs = Index.branch index vsense in
          add_m (node_idx npos) (Some b) 1.0;
          add_m (node_idx nneg) (Some b) (-1.0);
          add_m (Some b) (node_idx npos) 1.0;
          add_m (Some b) (node_idx nneg) (-1.0);
          add_m (Some b) (Some bs) (-.r)
      | Element.Cccs { npos; nneg; vsense; gain; _ } ->
          let bs = Index.branch index vsense in
          add_m (node_idx npos) (Some bs) gain;
          add_m (node_idx nneg) (Some bs) (-.gain)
      | Element.Opamp { name; inp; inn; out; model } -> (
          let b = Index.branch index name in
          add_m (node_idx out) (Some b) 1.0;
          match model with
          | Element.Ideal ->
              add_m (Some b) (node_idx inp) 1.0;
              add_m (Some b) (node_idx inn) (-1.0)
          | Element.Single_pole { dc_gain; pole_hz } ->
              (* tau dvo/dt = A0 vd - vo, trapezoidal:
                 (tau + h/2) vo_n - (h/2) A0 vd_n =
                 (tau - h/2) vo_prev + (h/2) A0 vd_prev *)
              let tau = 1.0 /. (2.0 *. Float.pi *. pole_hz) in
              let half = dt /. 2.0 in
              add_m (Some b) (node_idx out) (tau +. half);
              add_m (Some b) (node_idx inp) (-.(half *. dc_gain));
              add_m (Some b) (node_idx inn) (half *. dc_gain);
              opamps :=
                (name, inp, inn, out, dc_gain, tau, { vd_prev = 0.0; vo_prev = 0.0 })
                :: !opamps))
    (Netlist.elements netlist);
  let lu =
    match Cmat.lu_factor matrix with
    | lu -> lu
    | exception Cmat.Singular ->
        raise (Ac.Singular_circuit "Transient.simulate: singular companion system")
  in
  let n_steps = int_of_float (Float.ceil (t_stop /. dt)) in
  let times = Array.init (n_steps + 1) (fun i -> float_of_int i *. dt) in
  let recorded = List.map (fun name -> (name, Array.make (n_steps + 1) 0.0)) record in
  let waveform_of name =
    match List.assoc_opt name waveforms with
    | Some w -> w
    | None -> (
        match Netlist.find_exn netlist name with
        | Element.Vsource { value; _ } | Element.Isource { value; _ } -> Dc value
        | _ -> Dc 0.0)
  in
  (* The companion system is real: only the re plane of the reused
     planar workspaces ever carries data, and the per-step solve is
     allocation-free. *)
  let b = Cmat.Vec.create n and solution = Cmat.Vec.create n in
  let b_re = b.Cmat.Vec.re and x_re = solution.Cmat.Vec.re in
  let v_of name =
    match node_idx name with None -> 0.0 | Some i -> Bigarray.Array1.get x_re i
  in
  for step = 1 to n_steps do
    let t = float_of_int step *. dt in
    Cmat.Vec.fill_zero b;
    let add_b i v =
      match i with
      | Some i -> Bigarray.Array1.set b_re i (Bigarray.Array1.get b_re i +. v)
      | None -> ()
    in
    (* independent sources at time t *)
    List.iter
      (fun e ->
        match e with
        | Element.Vsource { name; _ } ->
            add_b (Some (Index.branch index name)) (value_at (waveform_of name) t)
        | Element.Isource { name; npos; nneg; _ } ->
            let v = value_at (waveform_of name) t in
            add_b (node_idx npos) (-.v);
            add_b (node_idx nneg) v
        | _ -> ())
      (Netlist.elements netlist);
    (* companion history terms *)
    List.iter
      (fun (_, n1, n2, geq, st) ->
        let ieq = (geq *. st.v_prev) +. st.i_prev in
        add_b (node_idx n1) ieq;
        add_b (node_idx n2) (-.ieq))
      !caps;
    List.iter
      (fun (_, _, _, b, l, st) ->
        add_b (Some b) (-.(st.vl_prev +. (2.0 *. l /. dt *. st.il_prev))))
      !inds;
    List.iter
      (fun (name, _, _, _, a0, tau, st) ->
        let b = Index.branch index name in
        let half = dt /. 2.0 in
        add_b (Some b)
          (((tau -. half) *. st.vo_prev) +. (half *. a0 *. st.vd_prev)))
      !opamps;
    Cmat.lu_solve_into lu ~b ~x:solution;
    (* update states *)
    List.iter
      (fun (_, n1, n2, geq, st) ->
        let v = v_of n1 -. v_of n2 in
        let i = (geq *. (v -. st.v_prev)) -. st.i_prev in
        st.v_prev <- v;
        st.i_prev <- i)
      !caps;
    List.iter
      (fun (_, n1, n2, br, _, st) ->
        st.vl_prev <- v_of n1 -. v_of n2;
        st.il_prev <- Bigarray.Array1.get x_re br)
      !inds;
    List.iter
      (fun (_, inp, inn, out, _, _, st) ->
        st.vd_prev <- v_of inp -. v_of inn;
        st.vo_prev <- v_of out)
      !opamps;
    List.iter (fun (name, arr) -> arr.(step) <- v_of name) recorded
  done;
  { times; signals = recorded }
