(* Driving the built binaries from the test suites, independently of
   the working directory the suite was started from. Dune places
   bin/ beside test/ and copies the fixtures next to the
   test executable, so every path resolves against the executable's
   directory; commands run from there too, so fixture-relative
   arguments ("tf fixtures/vloop.cir") resolve wherever the suite
   runs. Captured output and scratch directories live under the
   system temporary directory and are always removed. *)

let dir = Filename.dirname Sys.executable_name
let mcdft = Filename.concat dir "../bin/mcdft.exe"
let fixture path = Filename.concat dir (Filename.concat "fixtures" path)

let run args ~out =
  Sys.command
    (Printf.sprintf "cd %s && %s %s > %s 2>&1" (Filename.quote dir) (Filename.quote mcdft)
       args (Filename.quote out))

(* [mcdft args]'s exit code, output discarded *)
let exit_code args = run args ~out:"/dev/null"

(* [mcdft args]'s exit code and its stdout and stderr, interleaved *)
let capture args =
  let file = Filename.temp_file "mcdft-cli" ".out" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  let code = run args ~out:file in
  (code, In_channel.with_open_bin file In_channel.input_all)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* [f] on a fresh empty temporary directory, removed afterwards *)
let with_temp_dir prefix f =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)
