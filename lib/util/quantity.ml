let is_digit c = c >= '0' && c <= '9'
let is_num_char c = is_digit c || c = '.' || c = '+' || c = '-' || c = 'e' || c = 'E'

(* Split "4.7kOhm" into the numeric prefix and the alphabetic tail.
   SPICE treats 'e' as part of the mantissa only when followed by a
   digit or sign, so "1e3" parses as 1000 while "1end" has tail "end". *)
let split_numeric s =
  let n = String.length s in
  let rec scan i =
    if i >= n then i
    else
      let c = s.[i] in
      if is_digit c || c = '.' then scan (i + 1)
      else if (c = '+' || c = '-') && i = 0 then scan (i + 1)
      else if
        (c = 'e' || c = 'E')
        && i + 1 < n
        && (is_digit s.[i + 1]
           || ((s.[i + 1] = '+' || s.[i + 1] = '-') && i + 2 < n && is_digit s.[i + 2]))
      then scan_exp (i + 1)
      else i
  and scan_exp i =
    (* after 'e': optional sign then digits *)
    let i = if i < n && (s.[i] = '+' || s.[i] = '-') then i + 1 else i in
    let rec digits j = if j < n && is_digit s.[j] then digits (j + 1) else j in
    digits i
  in
  let cut = scan 0 in
  (String.sub s 0 cut, String.sub s cut (n - cut))

let suffix_scale tail =
  let t = String.lowercase_ascii tail in
  let starts p = String.length t >= String.length p && String.sub t 0 (String.length p) = p in
  if t = "" then Some 1.0
  else if starts "meg" then Some 1e6
  else if starts "mil" then Some 25.4e-6
  else
    match t.[0] with
    | 'f' -> Some 1e-15
    | 'p' -> Some 1e-12
    | 'n' -> Some 1e-9
    | 'u' -> Some 1e-6
    | 'm' -> Some 1e-3
    | 'k' -> Some 1e3
    | 'g' -> Some 1e9
    | 't' -> Some 1e12
    | c when (c >= 'a' && c <= 'z') || c = '_' -> Some 1.0 (* bare unit like "ohm" *)
    | _ -> None

let parse s =
  let s = String.trim s in
  if s = "" then Error "empty value"
  else
    let num, tail = split_numeric s in
    if num = "" || not (String.exists is_num_char num) then
      Error (Printf.sprintf "no numeric prefix in %S" s)
    else
      match float_of_string_opt num with
      | None -> Error (Printf.sprintf "malformed number %S" num)
      | Some v -> (
          match suffix_scale tail with
          | Some scale -> Ok (v *. scale)
          | None -> Error (Printf.sprintf "unknown suffix %S" tail))

let suffixes =
  [ (1e12, "t"); (1e9, "g"); (1e6, "meg"); (1e3, "k"); (1.0, "");
    (1e-3, "m"); (1e-6, "u"); (1e-9, "n"); (1e-12, "p"); (1e-15, "f") ]

let to_string v =
  if v = 0.0 then "0"
  else if not (Float.is_finite v) then Printf.sprintf "%g" v
  else
    let mag = Float.abs v in
    match List.find_opt (fun (scale, _) -> mag >= scale) suffixes with
    | Some (scale, suffix) when mag < 1e15 ->
        let scaled = v /. scale in
        (* %g keeps the representation short and exact enough for reparsing. *)
        Printf.sprintf "%g%s" scaled suffix
    | _ -> Printf.sprintf "%g" v
