module Netlist = Circuit.Netlist
module Validate = Circuit.Validate
module Poly = Linalg.Poly
module Transform = Multiconfig.Transform
module Configuration = Multiconfig.Configuration
module StringSet = Set.Make (String)

type src = { file : string; lines : (string * int) list }

let loc_of src name =
  Option.bind src (fun s ->
      Option.map
        (fun line -> { Finding.file = s.file; line })
        (List.assoc_opt name s.lines))

(* ---- validation pass ---- *)

let finding_of_issue ?src issue =
  let severity =
    match Validate.severity issue with
    | `Error -> Finding.Error
    | `Warning -> Finding.Warning
  in
  let code, element, node =
    match issue with
    | Validate.Empty_netlist -> ("V001", None, None)
    | Validate.No_ground -> ("V002", None, None)
    | Validate.Disconnected ns -> ("V003", None, (match ns with n :: _ -> Some n | [] -> None))
    | Validate.Nonpositive_value e -> ("V004", Some e, None)
    | Validate.Missing_sense { element; _ } -> ("V005", Some element, None)
    | Validate.Self_loop e -> ("V006", Some e, None)
    | Validate.Dangling_node { node; element } -> ("V007", Some element, Some node)
    | Validate.Opamp_drive_conflict { opamp; _ } -> ("V008", Some opamp, None)
  in
  let loc = Option.bind element (loc_of src) in
  Finding.make ?element ?node ?loc ~code ~severity (Validate.issue_to_string issue)

let netlist_findings ?src netlist =
  let validation =
    match Validate.check netlist with
    | Ok () -> []
    | Error issues -> List.map (finding_of_issue ?src) issues
  in
  let structural =
    if List.exists (fun f -> f.Finding.severity = Finding.Error) validation then []
    else Structural.findings ~loc_of:(loc_of src) (Structural.analyse netlist)
  in
  validation @ structural

(* ---- configuration-space pass ---- *)

module A = Mna.Assemble.Make (Mna.Field.Polynomial)

(* The value-exact signature of a configuration view's MNA system,
   canonicalized up to per-row sign. Two views with equal signatures
   assemble — entry for entry, coefficient for coefficient — the same
   A(s)x = b(s) after multiplying some equations by −1, so every
   derived response is identical and a campaign needs to simulate only
   one of them. (The index layout is name-driven, hence stable across
   views of one circuit.)

   Row flips are canonicalized because emulation produces them: an
   ideal opamp's test-mode nullor row [v(inp) − v(out) = 0] is the
   exact negation of the follower Vcvs row [v(out) − v(cpos) = 0] when
   they connect the same nodes. A flipped equation changes nothing
   about the solution — scaling row i of both A and b by σᵢ = ±1
   leaves x bitwise-identical under IEEE arithmetic (negation is
   exact, and the LU pivot choice sees identical magnitudes).

   The canonicalization must NOT cross fault injection, though: a
   Sherman–Morrison rank-1 update α·uvᵀ added to a σ-flipped row would
   no longer commute with the flip. [locked_elements] therefore names
   the elements a campaign will perturb; every row any of them stamps
   into (matrix or excitation, whatever the stamp's value) keeps
   σ = +1 and is marked in the signature, so views only group
   together when their fault-reachable equations agree without any
   flip — faulty responses then coincide too, for rank-1 updates and
   for structural re-assemblies alike.

   Coefficients are emitted as their IEEE bits — bit-exact, no rounding
   collisions, and no decimal formatting. [sources] must match the mode the campaign assembles
   with (the signature of the driven system, not just the nominal
   one).

   The key costs the view's stamps, not n²: one stamping pass sorted
   into per-row entry lists, each row emitted by ascending column —
   the same bytes the dense n×n scan it replaced produced. *)
let value_signature ?(sources = Mna.Assemble.Nominal) ?(locked_elements = []) view =
  let index = Mna.Index.build view in
  let n = Mna.Index.size index in
  (* One stamping pass in element order: matrix stamps are collected
     as (row, column, value) triples, the excitation accumulates per
     row, and every row a locked element stamps into (matrix or
     excitation, ground columns included) is marked. *)
  let locked_names = StringSet.of_list locked_elements in
  let locked = Array.make n false in
  let stamps = ref [] in
  let rhs = Array.make n Poly.zero in
  List.iter
    (fun e ->
      let lock = StringSet.mem (Circuit.Element.name e) locked_names in
      let touch = function Some i when lock -> locked.(i) <- true | _ -> () in
      let add_m i j v =
        touch i;
        match (i, j) with Some i, Some j -> stamps := (i, j, v) :: !stamps | _ -> ()
      in
      let add_b i v =
        touch i;
        match i with Some i -> rhs.(i) <- Poly.add rhs.(i) v | None -> ()
      in
      A.stamp_element ~sources ~add_m ~add_b index e)
    (Netlist.elements view);
  (* Each row's entries by ascending column, every entry the sum of its
     stamps in element order from zero — the dense assembler's
     accumulation exactly, so each coefficient carries the same bits. *)
  let rows = Array.make n [] in
  let rec merge = function
    | [] -> ()
    | (i, j, _) :: _ as stamps ->
        let rec sum acc = function
          | (i', j', v) :: rest when i' = i && j' = j -> sum (Poly.add acc v) rest
          | rest -> (acc, rest)
        in
        let p, rest = sum Poly.zero stamps in
        rows.(i) <- (j, p) :: rows.(i);
        merge rest
  in
  merge
    (List.stable_sort
       (fun (i1, j1, _) (i2, j2, _) ->
         if i1 <> i2 then Int.compare i1 i2 else Int.compare j1 j2)
       (List.rev !stamps));
  let rows = Array.map List.rev rows in
  let lowest_nonzero p =
    let rec go k =
      if k > Poly.degree p then 0.0
      else
        let c = Poly.coeff p k in
        if c <> 0.0 then c else go (k + 1)
    in
    go 0
  in
  let row_sign i =
    if locked.(i) then 1.0
    else begin
      let rec first = function
        | [] -> lowest_nonzero rhs.(i)
        | (_, p) :: rest ->
            let c = lowest_nonzero p in
            if c <> 0.0 then c else first rest
      in
      let c = first rows.(i) in
      if c < 0.0 then -1.0 else 1.0
    end
  in
  (* Binary tokens, each a tag byte and a fixed-width payload, so the
     encoding decodes one way and equal strings mean equal systems:
     'R'/'L' opens row i (locked or not; i is the count of rows
     opened), 'E' j an entry in column j, 'B' the excitation entry, and
     'C' k bits one nonzero coefficient of s^k. *)
  let buf = Buffer.create (32 * n) in
  let add_int k = Buffer.add_int32_le buf (Int32.of_int k) in
  let add_poly sigma p =
    for k = 0 to Poly.degree p do
      let c = Poly.coeff p k in
      if c <> 0.0 then begin
        Buffer.add_char buf 'C';
        add_int k;
        Buffer.add_int64_le buf (Int64.bits_of_float (sigma *. c))
      end
    done
  in
  for i = 0 to n - 1 do
    let sigma = row_sign i in
    Buffer.add_char buf (if locked.(i) then 'L' else 'R');
    List.iter
      (fun (j, p) ->
        if not (Poly.is_zero p) then begin
          Buffer.add_char buf 'E';
          add_int j;
          add_poly sigma p
        end)
      rows.(i);
    if not (Poly.is_zero rhs.(i)) then begin
      Buffer.add_char buf 'B';
      add_poly sigma rhs.(i)
    end
  done;
  Buffer.contents buf

let anchor config = "configuration " ^ Configuration.label config

let max_opamps = 10

let configuration_findings ?src ?follower_model dft =
  let n_opamps = Transform.n_opamps dft in
  if n_opamps > max_opamps then
    [
      Finding.make ~code:"C000" ~severity:Finding.Info
        (Printf.sprintf
           "configuration-space lint skipped: %d opamps give 2^%d configurations \
            (limit %d opamps)"
           n_opamps n_opamps max_opamps);
    ]
  else begin
    let findings = ref [] in
    let push f = findings := f :: !findings in
    let views =
      List.map
        (fun config -> (config, Transform.emulate ?follower_model dft config))
        (Transform.configurations dft)
    in
    (* per-configuration validation and structural rank *)
    List.iter
      (fun (config, view) ->
        let config_anchor = anchor config in
        (match Validate.check view with
        | Ok () -> ()
        | Error issues ->
            List.iter
              (fun issue ->
                if Validate.severity issue = `Error then
                  push
                    (Finding.make ~config:config_anchor ~code:"C001"
                       ~severity:Finding.Error
                       (Printf.sprintf "%s fails validation: %s" config_anchor
                          (Validate.issue_to_string issue))))
              issues);
        match (Structural.analyse view).Structural.generic with
        | None -> ()
        | Some d ->
            let element =
              match d.Structural.elements with e :: _ -> Some e | [] -> None
            in
            let loc = Option.bind element (loc_of src) in
            push
              (Finding.make ?element ?loc ~config:config_anchor ~code:"C002"
                 ~severity:Finding.Error
                 (Printf.sprintf "%s is %s" config_anchor
                    (Structural.deficiency_message d))))
      views;
    (* broken test-input chains: in a view where the source cannot
       structurally influence the output, the configuration measures
       nothing *)
    let test = Transform.test_configurations dft in
    let view_of config =
      let i = Configuration.index config in
      snd (List.find (fun (c, _) -> Configuration.index c = i) views)
    in
    let broken =
      List.filter
        (fun config ->
          let view = view_of config in
          let influence = Circuit.Influence.analyse ~output:dft.Transform.output view in
          not
            (List.mem dft.Transform.input_node
               (Circuit.Influence.influential_nodes influence)))
        test
    in
    (match broken with
    | [] -> ()
    | [ config ] ->
        push
          (Finding.make ~node:dft.Transform.input_node ~config:(anchor config)
             ~code:"C003" ~severity:Finding.Warning
             (Printf.sprintf
                "broken test-input chain: in %s the input node %s cannot structurally \
                 affect the output %s"
                (anchor config) dft.Transform.input_node dft.Transform.output))
    | first :: _ ->
        let labels = List.map Configuration.label broken in
        let shown, ellipsis =
          if List.length labels > 8 then
            (List.filteri (fun i _ -> i < 8) labels, ", ...")
          else (labels, "")
        in
        push
          (Finding.make ~node:dft.Transform.input_node ~config:(anchor first)
             ~code:"C003" ~severity:Finding.Warning
             (Printf.sprintf
                "broken test-input chain: in %d of %d test configurations (%s%s) the \
                 input node %s cannot structurally affect the output %s"
                (List.length broken) (List.length test)
                (String.concat ", " shown)
                ellipsis dft.Transform.input_node dft.Transform.output)));
    (* equivalent configurations: identical assembled whole-view
       systems up to row sign (value-exact); the campaign's cone
       classes, with faulted rows locked, are finer *)
    let groups = Hashtbl.create 16 in
    List.iter
      (fun (config, view) ->
        let key = value_signature view in
        let existing = Option.value ~default:[] (Hashtbl.find_opt groups key) in
        Hashtbl.replace groups key (config :: existing))
      views;
    Hashtbl.iter
      (fun _ configs ->
        match List.rev configs with
        | first :: _ :: _ as group ->
            push
              (Finding.make ~config:(anchor first) ~code:"C004" ~severity:Finding.Info
                 (Printf.sprintf
                    "configurations %s assemble to identical MNA systems (up to row \
                     sign) — candidates for campaign deduplication"
                    (String.concat ", " (List.map Configuration.label group))))
        | _ -> ())
      groups;
    (* structural detectability over the fault universe *)
    let det = Detectability.analyse ?follower_model dft in
    List.iter
      (fun fault ->
        push
          (Finding.make ~element:fault.Fault.element
             ?loc:(loc_of src fault.Fault.element) ~code:"F001"
             ~severity:Finding.Warning
             (Printf.sprintf
                "fault %s is structurally undetectable in every test configuration"
                fault.Fault.id)))
      (Detectability.undetectable_everywhere det);
    let skips = Detectability.skip_count det in
    if skips > 0 then
      push
        (Finding.make ~code:"P001" ~severity:Finding.Info
           (Printf.sprintf
              "structural detectability: %d of %d (configuration, fault) simulations \
               provably yield no detection; the campaign skips them"
              skips
              (Detectability.total_pairs det)));
    List.rev !findings
  end

let run ?src ?follower_model ?source ?output netlist =
  let base = netlist_findings ?src netlist in
  let configuration =
    match (source, output) with
    | Some source, Some output
      when Netlist.opamps netlist <> []
           && not (List.exists (fun f -> f.Finding.severity = Finding.Error) base) -> (
        match Transform.make ~source ~output netlist with
        | dft -> configuration_findings ?src ?follower_model dft
        | exception Invalid_argument msg ->
            [
              Finding.make ~code:"C000" ~severity:Finding.Info
                ("configuration-space lint skipped: " ^ msg);
            ])
    | _ -> []
  in
  List.sort Finding.compare (base @ configuration)
