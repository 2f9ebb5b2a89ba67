module Netlist = Circuit.Netlist
module Element = Circuit.Element

type error = { line : int; message : string }

let error_to_string { line; message } = Printf.sprintf "line %d: %s" line message

exception Parse_error of error

let fail line fmt = Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

let strip_inline_comment s =
  match String.index_opt s ';' with
  | Some i -> String.sub s 0 i
  | None -> s

(* Join '+' continuation lines onto their opening line, remembering the
   original line number of the opening line for error reporting. *)
let logical_lines text =
  let raw = String.split_on_char '\n' text in
  let numbered = List.mapi (fun i l -> (i + 1, strip_inline_comment l)) raw in
  let rec join acc = function
    | [] -> List.rev acc
    | (n, line) :: rest ->
        let line = String.trim line in
        if String.length line > 0 && line.[0] = '+' then
          match acc with
          | (n0, prev) :: acc_rest ->
              join ((n0, prev ^ " " ^ String.sub line 1 (String.length line - 1)) :: acc_rest) rest
          | [] -> fail n "continuation line with nothing to continue"
        else join ((n, line) :: acc) rest
  in
  join [] numbered

let tokens line = String.split_on_char ' ' line |> List.filter (fun t -> t <> "")

let value_of line s =
  match Util.Quantity.parse s with
  | Ok v -> v
  | Error msg -> fail line "bad value %S: %s" s msg

(* source cards allow an optional AC keyword before the value *)
let source_value line = function
  | [ v ] -> value_of line v
  | [ kw; v ] when String.uppercase_ascii kw = "AC" -> value_of line v
  | [] -> 1.0 (* a bare source defaults to unit AC amplitude *)
  | extra -> fail line "unexpected source parameters: %s" (String.concat " " extra)

let keyed_params line params =
  List.map
    (fun p ->
      match String.index_opt p '=' with
      | Some i ->
          ( String.uppercase_ascii (String.sub p 0 i),
            value_of line (String.sub p (i + 1) (String.length p - i - 1)) )
      | None -> fail line "expected KEY=VALUE, got %S" p)
    params

(* --- hierarchy ---------------------------------------------------------

   `.subckt NAME port...` collects raw cards until `.ends`; an instance
   card `Xinst node... NAME` flattens the definition with the instance
   name prefixed onto element names and internal nodes ("inst.n1"),
   ports mapped to the instance terminals and ground left global.
   Definitions may instantiate other definitions; a depth limit guards
   against recursion. *)

type subckt = { ports : string list; body : (int * string) list }

type renaming = {
  prefix : string;  (** "" at top level, "inst." inside. *)
  port_map : (string * string) list;  (** formal port -> actual node. *)
}

let top_level = { prefix = ""; port_map = [] }

let rename_node env n =
  if n = Element.ground then n
  else
    match List.assoc_opt n env.port_map with
    | Some actual -> actual
    | None -> env.prefix ^ n

let rename_name env n = env.prefix ^ n

let max_depth = 20

let rec parse_card ~subckts ~env ~depth ~record line_no card netlist =
  match tokens card with
  | [] -> netlist
  | name :: rest -> (
      let kind = Char.uppercase_ascii name.[0] in
      let name' = rename_name env name in
      let n = rename_node env in
      (* record after the add so duplicate names (which Netlist.add
         rejects) never enter the line table *)
      let add e =
        let netlist = Netlist.add e netlist in
        record (Element.name e) line_no;
        netlist
      in
      match (kind, rest) with
      | _, inp :: inn :: out :: macro :: params
        when String.uppercase_ascii macro = "OPAMP" ->
          (* an opamp card is recognized by its macro token, whatever
             its name — X and O are the convention, but a written
             netlist keeps the element's own name (e.g. U1) *)
          let keyed = keyed_params line_no params in
          let model =
            match (List.assoc_opt "A0" keyed, List.assoc_opt "FP" keyed) with
            | None, None -> Element.Ideal
            | a0, fp ->
                Element.Single_pole
                  {
                    dc_gain = Option.value a0 ~default:1e5;
                    pole_hz = Option.value fp ~default:10.0;
                  }
          in
          add (Element.Opamp { name = name'; inp = n inp; inn = n inn; out = n out; model })
      | 'R', [ n1; n2; v ] ->
          add (Element.Resistor { name = name'; n1 = n n1; n2 = n n2; value = value_of line_no v })
      | 'C', [ n1; n2; v ] ->
          add (Element.Capacitor { name = name'; n1 = n n1; n2 = n n2; value = value_of line_no v })
      | 'L', [ n1; n2; v ] ->
          add (Element.Inductor { name = name'; n1 = n n1; n2 = n n2; value = value_of line_no v })
      | 'V', npos :: nneg :: params ->
          add
            (Element.Vsource
               { name = name'; npos = n npos; nneg = n nneg; value = source_value line_no params })
      | 'I', npos :: nneg :: params ->
          add
            (Element.Isource
               { name = name'; npos = n npos; nneg = n nneg; value = source_value line_no params })
      | 'E', [ npos; nneg; cpos; cneg; g ] ->
          add
            (Element.Vcvs
               { name = name'; npos = n npos; nneg = n nneg; cpos = n cpos; cneg = n cneg;
                 gain = value_of line_no g })
      | 'G', [ npos; nneg; cpos; cneg; g ] ->
          add
            (Element.Vccs
               { name = name'; npos = n npos; nneg = n nneg; cpos = n cpos; cneg = n cneg;
                 gm = value_of line_no g })
      | 'H', [ npos; nneg; vsense; r ] ->
          add
            (Element.Ccvs
               { name = name'; npos = n npos; nneg = n nneg; vsense = rename_name env vsense;
                 r = value_of line_no r })
      | 'F', [ npos; nneg; vsense; g ] ->
          add
            (Element.Cccs
               { name = name'; npos = n npos; nneg = n nneg; vsense = rename_name env vsense;
                 gain = value_of line_no g })
      | ('X' | 'O'), _ :: _
        when Hashtbl.mem subckts
               (String.uppercase_ascii (List.nth rest (List.length rest - 1))) ->
          let subckt_name = String.uppercase_ascii (List.nth rest (List.length rest - 1)) in
          let actuals = List.filteri (fun i _ -> i < List.length rest - 1) rest in
          instantiate ~subckts ~env ~depth ~record line_no ~instance:name ~subckt_name
            ~actuals netlist
      | ('X' | 'O'), _ ->
          fail line_no
            "opamp card must be: Xname inp inn out OPAMP [A0=..] [FP=..], or the last \
             token must name a .subckt"
      | ('R' | 'C' | 'L' | 'V' | 'I' | 'E' | 'G' | 'H' | 'F'), _ ->
          fail line_no "malformed %c card: %s" kind card
      | _ -> fail line_no "unknown element card %S" name)

and instantiate ~subckts ~env ~depth ~record line_no ~instance ~subckt_name ~actuals netlist =
  if depth >= max_depth then
    fail line_no "subcircuit nesting deeper than %d (recursive definition?)" max_depth;
  let def = Hashtbl.find subckts subckt_name in
  if List.length actuals <> List.length def.ports then
    fail line_no "subcircuit %s expects %d ports, got %d" subckt_name
      (List.length def.ports) (List.length actuals);
  let actuals = List.map (rename_node env) actuals in
  let inner_env =
    {
      prefix = rename_name env instance ^ ".";
      port_map = List.combine def.ports actuals;
    }
  in
  List.fold_left
    (fun acc (body_line, card) ->
      parse_card ~subckts ~env:inner_env ~depth:(depth + 1) ~record body_line card acc)
    netlist def.body

let parse_string_with_lines text =
  (* counted so the CLI can assert it parses each netlist exactly once
     per invocation (pre-flight lint reuses the campaign's parse) *)
  Obs.Metrics.incr "spice.parse";
  try
    let lines = logical_lines text in
    (* standard SPICE: the first line is always the title *)
    let title, body =
      match lines with
      | (_, first) :: rest ->
          let t =
            if first <> "" && first.[0] = '*' then
              String.trim (String.sub first 1 (String.length first - 1))
            else first
          in
          ((if t = "" then "untitled" else t), rest)
      | [] -> ("untitled", [])
    in
    (* first pass: split out .subckt definitions *)
    let subckts : (string, subckt) Hashtbl.t = Hashtbl.create 4 in
    let top = ref [] in
    let rec split = function
      | [] -> ()
      | (n, line) :: rest when line = "" || line.[0] = '*' -> ignore n; split rest
      | (n, line) :: rest when String.length line > 0 && line.[0] = '.' -> (
          match tokens line with
          | directive :: args when String.uppercase_ascii directive = ".SUBCKT" -> (
              match args with
              | sub_name :: ports when ports <> [] ->
                  let key = String.uppercase_ascii sub_name in
                  if Hashtbl.mem subckts key then
                    fail n "duplicate subcircuit definition %s" sub_name;
                  let rec collect acc = function
                    | [] -> fail n "unterminated .subckt %s" sub_name
                    | (n', l') :: rest'
                      when String.length l' > 0 && l'.[0] = '.'
                           && String.uppercase_ascii (List.hd (tokens l')) = ".ENDS" ->
                        ignore n';
                        (List.rev acc, rest')
                    | (n', l') :: _
                      when String.length l' > 0 && l'.[0] = '.'
                           && String.uppercase_ascii (List.hd (tokens l')) = ".SUBCKT" ->
                        fail n' "nested .subckt definitions are not supported"
                    | (_, l') :: rest' when l' = "" || l'.[0] = '*' -> collect acc rest'
                    | item :: rest' -> collect (item :: acc) rest'
                  in
                  let body, rest' = collect [] rest in
                  Hashtbl.replace subckts key { ports; body };
                  split rest'
              | _ -> fail n ".subckt needs a name and at least one port")
          | directive :: _ -> (
              match String.uppercase_ascii directive with
              | ".END" | ".TITLE" | ".AC" | ".OP" | ".ENDS" -> split rest
              | d -> fail n "unsupported directive %s" d)
          | [] -> split rest)
      | item :: rest ->
          top := item :: !top;
          split rest
    in
    split body;
    let table = ref [] in
    let record name line = table := (name, line) :: !table in
    let netlist =
      List.fold_left
        (fun acc (n, line) ->
          try parse_card ~subckts ~env:top_level ~depth:0 ~record n line acc
          with Invalid_argument msg -> fail n "%s" msg)
        (Netlist.empty ~title ())
        (List.rev !top)
    in
    Ok (netlist, List.rev !table)
  with Parse_error e -> Error e

let parse_string text = Result.map fst (parse_string_with_lines text)

let read_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  content

let parse_file_with_lines path = parse_string_with_lines (read_file path)
let parse_file path = parse_string (read_file path)
