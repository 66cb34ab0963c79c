let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" then ()
  else
    match Unix.mkdir dir 0o755 with
    | () -> ()
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
        mkdir_p (Filename.dirname dir);
        (try Unix.mkdir dir 0o755
         with Unix.Unix_error (Unix.EEXIST, _, _) -> ())

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))
