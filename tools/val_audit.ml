(* Fail when a library interface exports a [val] that nothing calls.

   Every [val] of lib/**/*.mli, nested signatures included, is looked
   up among the value references of the typed trees that dune writes
   for lib/, bin/, bench/, benchsuite/, examples/, tools/ and test/.
   References are resolved through the compiler's paths, so a call
   counts only when it names that very val: another module's val of
   the same name does not. Local module aliases ([module T = M] and
   [let module T = M in]) are followed to the module they name, and a
   functor application to the functor.

   A val with no reference outside its own implementation, or whose
   only references are in test/, fails unless tools/val_audit_allow.txt
   lists it as

     Module.val  reason

   (one per line; [#] starts a comment), where the reason names the
   kept code that the val's test checks. An allowlist line fails too
   when its val no longer exists, has a caller outside test/, or has
   no caller at all.

   Usage, from the repository root, after [dune build @check] (plain
   [dune build] writes no .cmt for the CLI's main module):

     dune exec tools/val_audit.exe

   Exit status: 0 clean, 1 some val has no caller and no allowlist
   line, or a stale allowlist line, 2 no typed trees to read. *)

let build = "_build/default"
let caller_dirs = [ "lib"; "bin"; "bench"; "benchsuite"; "examples"; "tools"; "test" ]
let allow_file = "tools/val_audit_allow.txt"

(* every file under [dir] whose name ends in [suffix] *)
let rec files_under suffix dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun name ->
           let path = Filename.concat dir name in
           if Sys.is_directory path then files_under suffix path
           else if Filename.check_suffix name suffix then [ path ]
           else [])

(* "util__Floatx.cmt" -> "Util__Floatx" *)
let unit_of_file path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* "Mcdft_core__Adaptive" -> "Adaptive": the name the allowlist uses *)
let short_unit u =
  let rec last i =
    if i < 1 then u
    else if u.[i - 1] = '_' && u.[i] = '_' then String.sub u (i + 1) (String.length u - i - 1)
    else last (i - 1)
  in
  last (String.length u - 1)

(* The unit, repository source file and typed tree of a .cmt/.cmti;
   None for dune's generated modules and for stale objects whose
   source is gone. *)
let read path =
  let cmt = Cmt_format.read_cmt path in
  match cmt.Cmt_format.cmt_sourcefile with
  | Some src when Sys.file_exists src -> Some (unit_of_file path, src, cmt.Cmt_format.cmt_annots)
  | _ -> None

(* (module path within the unit, val name) of every val a signature
   exports, nested module signatures included *)
let rec sig_vals prefix (sg : Typedtree.signature) =
  List.concat_map
    (fun (item : Typedtree.signature_item) ->
      match item.sig_desc with
      | Tsig_value vd -> [ (prefix, vd.val_name.txt) ]
      | Tsig_module md -> module_vals prefix md
      | Tsig_recmodule mds -> List.concat_map (module_vals prefix) mds
      | _ -> [])
    sg.sig_items

and module_vals prefix (md : Typedtree.module_declaration) =
  match md.md_name.txt with
  | Some name -> mty_vals (prefix @ [ name ]) md.md_type
  | None -> []

(* a functor's vals are those of its result, under the functor's name *)
and mty_vals prefix (mty : Typedtree.module_type) =
  match mty.mty_desc with
  | Tmty_signature sg -> sig_vals prefix sg
  | Tmty_functor (_, res) -> mty_vals prefix res
  | _ -> []

(* Merge a library wrapper with its member: dune compiles "Util.Floatx"
   to the unit "Util__Floatx". *)
let rec canonical units = function
  | a :: b :: rest when Hashtbl.mem units (a ^ "__" ^ b) -> canonical units ((a ^ "__" ^ b) :: rest)
  | a :: b :: rest when String.ends_with ~suffix:"__" a && Hashtbl.mem units (a ^ b) ->
      canonical units ((a ^ b) :: rest)
  | path -> path

(* The value paths an implementation references, as component lists
   with local module aliases expanded. *)
let references (str : Typedtree.structure) =
  let aliases = Hashtbl.create 16 in
  let rec flatten : Path.t -> string list option = function
    | Pident id -> (
        match Hashtbl.find_opt aliases (Ident.unique_name id) with
        | Some p -> flatten p
        | None -> Some [ Ident.name id ])
    | Pdot (p, s) -> Option.map (fun l -> l @ [ s ]) (flatten p)
    | _ -> None
  in
  let rec alias_of (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_ident (p, _) -> Some p
    | Tmod_constraint (me, _, _, _) | Tmod_apply (me, _, _) -> alias_of me
    | _ -> None
  in
  let bind id me =
    match (id, alias_of me) with
    | Some id, Some p -> Hashtbl.replace aliases (Ident.unique_name id) p
    | _ -> ()
  in
  let refs = ref [] in
  let open Tast_iterator in
  let it =
    {
      default_iterator with
      module_binding =
        (fun sub mb ->
          bind mb.mb_id mb.mb_expr;
          default_iterator.module_binding sub mb);
      expr =
        (fun sub e ->
          (match e.exp_desc with
          | Texp_ident (p, _, _) -> Option.iter (fun l -> refs := l :: !refs) (flatten p)
          | Texp_letmodule (id, _, _, me, _) -> bind id me
          | _ -> ());
          default_iterator.expr sub e);
    }
  in
  it.structure it str;
  !refs

let read_allowlist () =
  if not (Sys.file_exists allow_file) then []
  else
    In_channel.with_open_text allow_file In_channel.input_lines
    |> List.mapi (fun i line -> (i + 1, line))
    |> List.filter_map (fun (n, line) ->
           let line =
             String.trim
               (match String.index_opt line '#' with Some i -> String.sub line 0 i | None -> line)
           in
           if line = "" then None
           else
             match String.index_opt line ' ' with
             | Some i when String.trim (String.sub line i (String.length line - i)) <> "" ->
                 Some (String.sub line 0 i)
             | _ ->
                 Printf.printf "%s:%d: %s has no reason\n" allow_file n line;
                 exit 1)

let () =
  let dir d = Filename.concat build d in
  let interfaces = files_under ".cmti" (dir "lib") |> List.filter_map read in
  let impls =
    caller_dirs |> List.concat_map (fun d -> files_under ".cmt" (dir d)) |> List.filter_map read
  in
  if interfaces = [] then (
    Printf.printf "no .cmti under %s: run dune build @check first\n" (dir "lib");
    exit 2);
  let units = Hashtbl.create 128 in
  List.iter (fun (u, _, _) -> Hashtbl.replace units u ()) (interfaces @ impls);
  (* exported vals, keyed by their canonical component path *)
  let exported = Hashtbl.create 512 in
  List.iter
    (fun (u, src, annots) ->
      match annots with
      | Cmt_format.Interface sg ->
          let own = Filename.remove_extension src ^ ".ml" in
          List.iter
            (fun (prefix, name) ->
              let key = String.concat "." ((short_unit u :: prefix) @ [ name ]) in
              Hashtbl.replace exported ((u :: prefix) @ [ name ]) (key, own))
            (sig_vals [] sg)
      | _ -> ())
    interfaces;
  (* each exported val with a reference outside its implementation:
     true when one is outside test/ *)
  let called = Hashtbl.create 512 in
  List.iter
    (fun (_, src, annots) ->
      match annots with
      | Cmt_format.Implementation str ->
          let from_test = String.starts_with ~prefix:"test/" src in
          List.iter
            (fun path ->
              let path = canonical units path in
              match Hashtbl.find_opt exported path with
              | Some (_, own) when own <> src ->
                  let outside = Option.value (Hashtbl.find_opt called path) ~default:false in
                  Hashtbl.replace called path (outside || not from_test)
              | _ -> ())
            (references str)
      | _ -> ())
    impls;
  let allowed = read_allowlist () in
  let vals =
    Hashtbl.fold
      (fun path (key, own) acc -> (key, own, Hashtbl.find_opt called path) :: acc)
      exported []
    |> List.sort compare
  in
  let failures = ref 0 in
  let fail fmt =
    incr failures;
    Printf.printf fmt
  in
  List.iter
    (fun (key, own, caller) ->
      match (caller, List.mem key allowed) with
      | Some true, false | Some false, true -> ()
      | Some true, true -> fail "%s: %s lists it, but it has a caller outside test/\n" key allow_file
      | None, true ->
          fail "%s: %s lists it, but nothing outside %s calls it\n" key allow_file own
      | Some false, false -> fail "%s: only test/ calls it\n" key
      | None, false -> fail "%s: no caller outside %s\n" key own)
    vals;
  List.iter
    (fun key ->
      if not (List.exists (fun (k, _, _) -> k = key) vals) then
        fail "%s: %s is not an exported val\n" allow_file key)
    allowed;
  Printf.printf "%d public vals in lib/**/*.mli, %d allowlisted\n" (List.length vals)
    (List.length allowed);
  if !failures > 0 then (
    Printf.printf
      "%d finding(s): delete the val, drop it from its .mli, or give a reason in %s\n"
      !failures allow_file;
    exit 1)
