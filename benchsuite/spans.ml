(* Per-layer attribution of a traced unit. Spans on one lane nest by
   call structure, so a span's self time is its duration minus the
   durations of the spans directly inside it; summing self times over a
   tree gives back the root's wall clock exactly, which is what lets a
   jobs=1 trace split a unit into layers with a printed remainder. *)

type event = Obs.Trace.event

let by_lane (events : event list) =
  let lanes = Hashtbl.create 4 in
  List.iter
    (fun (e : event) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt lanes e.tid) in
      Hashtbl.replace lanes e.tid (e :: prev))
    events;
  Hashtbl.fold (fun _ lane acc -> lane :: acc) lanes []

type node = { event : event; mutable self_us : float }

let self_times (events : event list) =
  List.concat_map
    (fun lane ->
      (* parents sort before their children: earlier start first, and
         at equal starts the longer span is the outer one *)
      let lane =
        List.sort
          (fun (a : event) (b : event) ->
            match Float.compare a.ts_us b.ts_us with
            | 0 -> Float.compare b.dur_us a.dur_us
            | c -> c)
          lane
      in
      let stack = ref [] and out = ref [] in
      List.iter
        (fun (e : event) ->
          let rec unwind = function
            | top :: rest when e.ts_us >= top.event.ts_us +. top.event.dur_us ->
                unwind rest
            | s -> s
          in
          stack := unwind !stack;
          (match !stack with
          | parent :: _ -> parent.self_us <- parent.self_us -. e.dur_us
          | [] -> ());
          let n = { event = e; self_us = e.dur_us } in
          stack := n :: !stack;
          out := n :: !out)
        lane;
      List.rev_map (fun n -> (n.event, n.self_us)) !out)
    (by_lane events)

(* A span belongs to a layer when its name is the layer's span name or
   that name followed by a space and a label ("adaptive.prepare C12"). *)
let matches ~span name =
  String.equal name span
  || String.length name > String.length span
     && String.starts_with ~prefix:span name
     && name.[String.length span] = ' '

type attribution = {
  wall_s : float;  (** Total duration of the [root] spans. *)
  layers : (string * float) list;
      (** Self seconds per layer metric, in [layers] order. *)
  unattributed_s : float;
      (** Self time of the root spans and of every span no layer
          claims. *)
  unclaimed : (string * float) list;
      (** The span names behind the remainder, with their self seconds. *)
}

(* [layers] maps each span name to its layer metric's name. *)
let attribute ~root ~layers events =
  let selfs = self_times events in
  let wall_s =
    List.fold_left
      (fun acc ((e : event), _) -> if e.name = root then acc +. (e.dur_us *. 1e-6) else acc)
      0.0 selfs
  in
  let totals = Hashtbl.create 16 in
  List.iter (fun (_, m) -> Hashtbl.replace totals m 0.0) layers;
  let unclaimed = Hashtbl.create 8 in
  let add tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k)) in
  List.iter
    (fun ((e : event), self_us) ->
      let s = self_us *. 1e-6 in
      match List.find_opt (fun (span, _) -> matches ~span e.name) layers with
      | Some (_, metric) when e.name <> root -> add totals metric s
      | _ ->
          let base =
            match String.index_opt e.name ' ' with
            | Some i -> String.sub e.name 0 i
            | None -> e.name
          in
          add unclaimed base s)
    selfs;
  let unclaimed =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) unclaimed []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    wall_s;
    layers = List.map (fun (_, m) -> (m, Hashtbl.find totals m)) layers;
    unattributed_s = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 unclaimed;
    unclaimed;
  }
