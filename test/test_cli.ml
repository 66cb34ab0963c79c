(* Tests for the command-line front ends: every help page of nisqc and
   nisqd renders. Cmdliner validates doc markup lazily, only when a page
   is printed, so a bad escape in one option's doc string breaks that
   subcommand's --help without failing the build. *)

let contains = Astring_contains.contains

(* The binaries sit next to the test executable's directory in the build
   tree (the test stanza depends on both). *)
let bin exe =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) Filename.parent_dir_name)
    (Filename.concat "bin" exe)

let help_page exe args =
  let out = Filename.temp_file "nisq-help" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove out) @@ fun () ->
  let cmd =
    Filename.quote_command exe ~stdout:out ~stderr:out (args @ [ "--help=plain" ])
  in
  let code = Sys.command cmd in
  (code, In_channel.with_open_text out In_channel.input_all)

let test_help_pages_render () =
  List.iter
    (fun (exe, subcommands) ->
      List.iter
        (fun args ->
          let label = String.concat " " (Filename.basename exe :: args) in
          let code, page = help_page exe args in
          Alcotest.(check int) (label ^ ": exit 0") 0 code;
          Alcotest.(check bool)
            (label ^ ": no cmdliner error") false
            (contains page "cmdliner error");
          Alcotest.(check bool) (label ^ ": has OPTIONS") true
            (contains page "OPTIONS"))
        ([] :: List.map (fun s -> [ s ]) subcommands))
    [
      (bin "nisqc.exe", [ "compile"; "run"; "calibration"; "list"; "experiment" ]);
      (bin "nisqd.exe", [ "serve"; "call" ]);
    ]

let suite = [ ("help pages render", `Quick, test_help_pages_render) ]
