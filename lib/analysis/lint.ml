module Netlist = Circuit.Netlist
module Validate = Circuit.Validate
module Transform = Multiconfig.Transform
module Configuration = Multiconfig.Configuration

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
       systems up to row sign (value-exact: the campaign's stamp-run
       signature under nominal sources with nothing locked); the
       campaign's cone classes, with faulted rows locked, are finer *)
    let groups = Hashtbl.create 16 in
    List.iter
      (fun (config, view) ->
        let key =
          Mna.Stamps.signature (Mna.Stamps.build_sparse view) ~locked:(fun _ -> false)
        in
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
