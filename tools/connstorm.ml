(* connstorm — a connection storm against a running nisqd.

   Usage: connstorm SOCKET N

   Opens N connections that never send a byte, sends a ping on one
   more, and waits up to 2 s for the reply with the N still open. Then
   it closes the N and reads the reply. Prints whether the pong came
   with the idle connections open or only after they were closed (a
   daemon out of file descriptors can only answer then). Exits 0 on a
   pong, 1 on any other reply. A daemon that died or never answers
   surfaces as an uncaught Unix error, exit 2. *)

module Frame = Nisq_serve.Frame
module Protocol = Nisq_serve.Protocol

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* A full listen backlog blocks connect, and a silent daemon blocks
     read: time out instead of hanging the caller. *)
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO 10.0;
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

let () =
  match Sys.argv with
  | [| _; socket; n |] -> (
      let idle = List.init (int_of_string n) (fun _ -> connect socket) in
      let fd = connect socket in
      ignore
        (Frame.write fd
           (Protocol.request_to_json
              { Protocol.id = 1; deadline_ms = None; verb = Protocol.Ping }));
      let answered_open =
        match Unix.select [ fd ] [] [] 2.0 with [], _, _ -> false | _ -> true
      in
      List.iter Unix.close idle;
      match Result.map Protocol.reply_of_json (Frame.read fd) with
      | Ok (Ok { Protocol.body = Protocol.Result _; _ }) ->
          if answered_open then
            Printf.printf "pong with %s idle connections open\n" n
          else Printf.printf "pong after closing %s idle connections\n" n
      | _ ->
          prerr_endline "connstorm: the ping was not answered with a pong";
          exit 1)
  | _ ->
      prerr_endline "usage: connstorm SOCKET N";
      exit 2
