let render ?(align_left_first = true) ~header rows =
  let width = List.length header in
  List.iteri
    (fun i row ->
      if List.length row <> width then
        invalid_arg (Printf.sprintf "Table.render: row %d has wrong arity" i))
    rows;
  let all = header :: rows in
  let col_width j =
    List.fold_left (fun acc row -> Int.max acc (String.length (List.nth row j))) 0 all
  in
  let widths = List.init width col_width in
  let pad j cell =
    let w = List.nth widths j in
    if j = 0 && align_left_first then Printf.sprintf "%-*s" w cell
    else Printf.sprintf "%*s" w cell
  in
  let line row = String.concat "  " (List.mapi pad row) in
  let rule =
    String.concat "--" (List.map (fun w -> String.make w '-') widths)
  in
  String.concat "\n" ((line header :: rule :: List.map line rows) @ [])
