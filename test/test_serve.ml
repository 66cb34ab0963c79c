(* The compile service: frame codec, protocol codecs, admission
   (coalescing, shedding, drain), client backoff, and an in-process
   end-to-end daemon exercised through injected faults.

   The determinism tests double as the NISQ_DOMAINS matrix check: CI
   runs this suite at pool sizes 0, 1 and 4, and every payload
   comparison here is byte-level. *)

module Frame = Nisq_serve.Frame
module Protocol = Nisq_serve.Protocol
module Admission = Nisq_serve.Admission
module Server = Nisq_serve.Server
module Client = Nisq_serve.Client
module Json = Nisq_obs.Json
module Config = Nisq_compiler.Config
module Ibmq16 = Nisq_device.Ibmq16
module Faultkit = Nisq_faultkit.Faultkit

let with_faults spec f =
  (match Faultkit.configure spec with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "bad fault spec %S: %s" spec msg);
  Fun.protect ~finally:Faultkit.clear f

let compile_params ?(day = 0) ?(emit_qasm = false) name =
  {
    Protocol.program = Protocol.Named name;
    method_ = Config.R_smt_star 0.5;
    routing = None;
    movement = Config.Swap_back;
    day;
    calib_seed = Ibmq16.default_seed;
    emit_qasm;
  }

(* ------------------------------ frames ------------------------------ *)

let test_frame_roundtrip_scan () =
  let docs =
    [
      Json.Obj [ ("a", Json.Int 1) ];
      Json.Obj [ ("s", Json.String "x\"y\n") ];
      Json.Obj [];
    ]
  in
  let wire = String.concat "" (List.map Frame.encode docs) in
  match Frame.scan_string wire with
  | Error msg -> Alcotest.failf "scan failed: %s" msg
  | Ok got ->
      Alcotest.(check (list string))
        "all frames round-trip"
        (List.map Json.to_string docs)
        (List.map Json.to_string got)

let test_frame_socket_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      let doc = Json.Obj [ ("hello", Json.Bool true) ] in
      let wire = Frame.write a doc in
      Alcotest.(check string) "returned wire bytes" (Frame.encode doc) wire;
      let recorded = Buffer.create 32 in
      (match Frame.read ~record:(Buffer.add_string recorded) b with
      | Ok got ->
          Alcotest.(check string)
            "payload" (Json.to_string doc) (Json.to_string got)
      | Error e -> Alcotest.failf "read failed: %s" (Frame.error_message e));
      Alcotest.(check string)
        "record captured the wire bytes" wire (Buffer.contents recorded);
      (* clean EOF on a frame boundary *)
      Unix.close a;
      match Frame.read b with
      | Error Frame.Eof -> ()
      | Ok _ -> Alcotest.fail "read after close must not succeed"
      | Error e -> Alcotest.failf "want Eof, got %s" (Frame.error_message e))

let test_frame_torn () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      Frame.write_torn a (Json.Obj [ ("big", Json.String (String.make 64 'x')) ]);
      Unix.close a;
      match Frame.read b with
      | Error (Frame.Torn _) -> ()
      | Ok _ -> Alcotest.fail "torn frame parsed"
      | Error e -> Alcotest.failf "want Torn, got %s" (Frame.error_message e))

let test_frame_too_large () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      (* A length prefix of 2^30: far beyond max_payload_bytes. *)
      let prefix = Bytes.create 4 in
      Bytes.set_uint8 prefix 0 0x40;
      Bytes.set_uint8 prefix 1 0;
      Bytes.set_uint8 prefix 2 0;
      Bytes.set_uint8 prefix 3 0;
      ignore (Unix.write a prefix 0 4);
      match Frame.read b with
      | Error (Frame.Too_large n) ->
          Alcotest.(check bool) "reported the length" true
            (n > Frame.max_payload_bytes)
      | Ok _ -> Alcotest.fail "oversized frame accepted"
      | Error e -> Alcotest.failf "want Too_large, got %s" (Frame.error_message e))

(* A peer that trickles one byte at a time (Nagle off, tiny writes, a
   slow link): [Frame.read] must assemble the frame across arbitrarily
   fragmented reads — both inside the 4-byte length prefix and inside
   the payload. *)
let test_frame_one_byte_dribble () =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () ->
      let docs =
        [
          Json.Obj [ ("first", Json.Int 1) ];
          Json.Obj [ ("second", Json.String (String.make 100 'y')) ];
        ]
      in
      let wire = String.concat "" (List.map Frame.encode docs) in
      let writer =
        Domain.spawn (fun () ->
            String.iter
              (fun c ->
                ignore (Unix.write_substring w (String.make 1 c) 0 1);
                (* Yield so the reader usually wakes per byte. *)
                Unix.sleepf 0.0002)
              wire;
            Unix.close w)
      in
      let got =
        List.map
          (fun _ ->
            match Frame.read r with
            | Ok v -> Json.to_string v
            | Error e -> Alcotest.failf "read: %s" (Frame.error_message e))
          docs
      in
      Domain.join writer;
      Alcotest.(check (list string))
        "frames survive 1-byte fragmentation"
        (List.map Json.to_string docs)
        got;
      match Frame.read r with
      | Error Frame.Eof -> ()
      | _ -> Alcotest.fail "stream must end cleanly")

(* The same dribble with a SIGALRM interval timer peppering the process:
   blocking reads and writes keep getting interrupted, and Frame must
   resume rather than fail. The assertion is round-trip correctness —
   the test is meaningful whether or not a given read actually took the
   EINTR path (on most runs many do), and never flaky either way. *)
let test_frame_eintr_interleaved () =
  let alarms = ref 0 in
  let old_alrm =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> incr alarms))
  in
  let old_timer =
    Unix.setitimer Unix.ITIMER_REAL
      { Unix.it_value = 0.001; it_interval = 0.001 }
  in
  Fun.protect
    ~finally:(fun () ->
      ignore
        (Unix.setitimer Unix.ITIMER_REAL
           { Unix.it_value = 0.0; it_interval = 0.0 });
      ignore old_timer;
      Sys.set_signal Sys.sigalrm old_alrm)
    (fun () ->
      let r, w = Unix.pipe () in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close r with Unix.Unix_error _ -> ());
          try Unix.close w with Unix.Unix_error _ -> ())
        (fun () ->
          (* Big enough to overflow the pipe buffer, so the writer also
             blocks (and gets interrupted) mid-frame. *)
          let doc = Json.Obj [ ("blob", Json.String (String.make 300_000 'z')) ] in
          let writer =
            Domain.spawn (fun () ->
                ignore (Frame.write w doc);
                Unix.close w)
          in
          let got =
            match Frame.read r with
            | Ok v -> Json.to_string v
            | Error e -> Alcotest.failf "read: %s" (Frame.error_message e)
          in
          Domain.join writer;
          Alcotest.(check string)
            "large frame survives signal interruption"
            (Json.to_string doc) got;
          (* ~0.3 s of 1 ms alarms: the timer demonstrably fired. *)
          Alcotest.(check bool) "alarms actually fired" true (!alarms > 0)))

let test_frame_malformed () =
  let payload = "{\"key\": nope}" in
  let wire =
    let b = Buffer.create 32 in
    Buffer.add_uint8 b 0;
    Buffer.add_uint8 b 0;
    Buffer.add_uint8 b 0;
    Buffer.add_uint8 b (String.length payload);
    Buffer.add_string b payload;
    Buffer.contents b
  in
  match Frame.scan_string wire with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed payload accepted"

let test_scan_torn_capture () =
  let doc = Json.Obj [ ("a", Json.Int 1) ] in
  let wire = Frame.encode doc in
  let torn = String.sub wire 0 (String.length wire - 2) in
  match Frame.scan_string (wire ^ torn) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "torn trailing frame accepted"

(* ----------------------------- protocol ----------------------------- *)

let roundtrip_request req =
  match Protocol.request_of_json (Protocol.request_to_json req) with
  | Ok got -> got
  | Error msg -> Alcotest.failf "request did not round-trip: %s" msg

let test_request_roundtrip () =
  let reqs =
    [
      { Protocol.id = 7; deadline_ms = Some 1500; verb = Protocol.Ping };
      { Protocol.id = 8; deadline_ms = None; verb = Protocol.Stats };
      { Protocol.id = 9; deadline_ms = None; verb = Protocol.Drain };
      {
        Protocol.id = 10;
        deadline_ms = Some 30;
        verb = Protocol.Compile (compile_params ~day:3 ~emit_qasm:true "bv4");
      };
      {
        Protocol.id = 11;
        deadline_ms = None;
        verb =
          Protocol.Run
            {
              compile =
                {
                  (compile_params "ignored") with
                  Protocol.program = Protocol.Qasm "OPENQASM 2.0;";
                  routing = Some Config.Best_path;
                  movement = Config.Move_and_stay;
                };
              trials = 128;
              sim_seed = 99;
            };
      };
    ]
  in
  List.iter
    (fun req ->
      let got = roundtrip_request req in
      Alcotest.(check string)
        (Protocol.verb_name req.Protocol.verb)
        (Json.to_string (Protocol.request_to_json req))
        (Json.to_string (Protocol.request_to_json got)))
    reqs

let test_reply_roundtrip () =
  let bodies =
    [
      Protocol.Result (Json.Obj [ ("esp", Json.Float 0.5) ]);
      Protocol.Overloaded { retry_after_ms = 40; queue_depth = 3 };
      Protocol.Failed
        { code = "internal"; message = "boom"; retryable = true };
    ]
  in
  List.iter
    (fun body ->
      let r = { Protocol.id = 42; body } in
      match Protocol.reply_of_json (Protocol.reply_to_json r) with
      | Ok got ->
          Alcotest.(check string)
            "reply bytes stable"
            (Json.to_string (Protocol.reply_to_json r))
            (Json.to_string (Protocol.reply_to_json got))
      | Error msg -> Alcotest.failf "reply did not round-trip: %s" msg)
    bodies

let test_request_decode_rejects () =
  let cases =
    [
      "{}";
      "{\"id\":1}";
      "{\"id\":1,\"verb\":\"warp\"}";
      "{\"id\":1,\"verb\":\"compile\"}";
      "{\"id\":1,\"verb\":\"compile\",\"params\":{}}";
      "{\"id\":1,\"verb\":\"compile\",\"params\":{\"program\":\"bv4\",\"qasm\":\"x\",\"method\":\"tsmt\"}}";
      "{\"id\":1,\"deadline_ms\":0,\"verb\":\"ping\"}";
      "{\"id\":1,\"verb\":\"run\",\"params\":{\"program\":\"bv4\",\"method\":\"tsmt\",\"trials\":-1}}";
    ]
  in
  List.iter
    (fun src ->
      match Json.of_string src with
      | Error msg -> Alcotest.failf "test input %S invalid: %s" src msg
      | Ok v -> (
          match Protocol.request_of_json v with
          | Error _ -> ()
          | Ok _ -> Alcotest.failf "accepted %s" src))
    cases

let key_of verb =
  match Protocol.coalesce_key verb with
  | Some k -> k
  | None -> Alcotest.fail "work verb has no coalesce key"

let test_coalesce_key () =
  let c1 = Protocol.Compile (compile_params "bv4") in
  let c2 = Protocol.Compile (compile_params "bv4") in
  let c3 = Protocol.Compile (compile_params ~day:1 "bv4") in
  Alcotest.(check string) "identical params agree" (key_of c1) (key_of c2);
  Alcotest.(check bool) "day changes the key" true (key_of c1 <> key_of c3);
  let r1 =
    Protocol.Run { compile = compile_params "bv4"; trials = 64; sim_seed = 1 }
  in
  let r2 =
    Protocol.Run { compile = compile_params "bv4"; trials = 64; sim_seed = 2 }
  in
  Alcotest.(check bool) "sim seed changes the key" true
    (key_of r1 <> key_of r2);
  Alcotest.(check bool) "compile and run never collide" true
    (key_of c1 <> key_of r1);
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Protocol.verb_name v ^ " not coalescable")
        true
        (Protocol.coalesce_key v = None))
    [ Protocol.Ping; Protocol.Stats; Protocol.Drain ]

(* ----------------------------- admission ---------------------------- *)

let submit ?coalescable q verb deliver =
  Admission.submit ?coalescable q ~verb ~deadline_ms:None ~req_index:0 ~deliver

let test_admission_coalesce_shed () =
  let q = Admission.create ~capacity:2 ~workers:1 () in
  let log = ref [] in
  let deliver tag _body = log := tag :: !log in
  let bv4 = Protocol.Compile (compile_params "bv4") in
  let bv6 = Protocol.Compile (compile_params "bv6") in
  let hs2 = Protocol.Compile (compile_params "hs2") in
  (match submit q bv4 (deliver "a1") with
  | Admission.Admitted -> ()
  | _ -> Alcotest.fail "first submit must admit");
  (match submit q bv4 (deliver "a2") with
  | Admission.Coalesced -> ()
  | _ -> Alcotest.fail "identical queued request must coalesce");
  (match submit q bv6 (deliver "b") with
  | Admission.Admitted -> ()
  | _ -> Alcotest.fail "distinct request must admit");
  Alcotest.(check int) "coalesced waiter takes no slot" 2 (Admission.depth q);
  (match submit q hs2 (deliver "c") with
  | Admission.Shed { retry_after_ms; queue_depth } ->
      Alcotest.(check int) "reported depth" 2 queue_depth;
      Alcotest.(check bool) "retry hint floor" true (retry_after_ms >= 25)
  | _ -> Alcotest.fail "full queue must shed");
  (* Forced-private entries never coalesce. *)
  (match submit ~coalescable:false q bv6 (deliver "b2") with
  | Admission.Shed _ -> ()
  | Admission.Coalesced -> Alcotest.fail "non-coalescable request coalesced"
  | _ -> Alcotest.fail "non-coalescable over a full queue must shed");
  match Admission.pop q with
  | None -> Alcotest.fail "pop returned None on a non-empty queue"
  | Some entry ->
      Alcotest.(check int) "FIFO: first entry first" 2
        (List.length entry.Admission.waiters);
      List.iter (fun d -> d (Protocol.Result Json.Null)) entry.Admission.waiters;
      Alcotest.(check (list string))
        "waiters delivered in submission order" [ "a1"; "a2" ] (List.rev !log);
      (* The popped entry is in flight: its twin starts a new entry. *)
      (match submit q bv4 (deliver "a3") with
      | Admission.Admitted -> ()
      | _ -> Alcotest.fail "in-flight entries must not coalesce");
      Admission.close_intake q;
      (match submit q hs2 (deliver "late") with
      | Admission.Draining -> ()
      | _ -> Alcotest.fail "closed intake must report draining");
      Admission.stop q;
      let rec drain n =
        match Admission.pop q with Some _ -> drain (n + 1) | None -> n
      in
      Alcotest.(check int) "queued entries drain after stop" 2 (drain 0)

let test_admission_retry_hint_tracks_service_time () =
  let q = Admission.create ~capacity:1 ~workers:1 () in
  let bv4 = Protocol.Compile (compile_params "bv4") in
  let bv6 = Protocol.Compile (compile_params "bv6") in
  ignore (submit q bv4 (fun _ -> ()));
  let shed () =
    match submit q bv6 (fun _ -> ()) with
    | Admission.Shed { retry_after_ms; _ } -> retry_after_ms
    | _ -> Alcotest.fail "expected shed"
  in
  let before = shed () in
  for _ = 1 to 20 do
    Admission.note_service_ms q 2000.0
  done;
  let after = shed () in
  Alcotest.(check bool)
    (Printf.sprintf "hint grows with service time (%d -> %d)" before after)
    true (after > before);
  Alcotest.(check bool) "hint is capped" true (after <= 5000)

(* ------------------------------ client ------------------------------ *)

let test_backoff_schedule () =
  let hint = None in
  let at attempt = Client.backoff_ms ~seed:7 ~attempt ~retry_after_ms:hint () in
  Alcotest.(check int) "deterministic" (at 3) (at 3);
  Alcotest.(check bool) "grows" true (at 4 > at 0);
  Alcotest.(check bool) "capped with jitter headroom" true (at 20 <= 2500);
  let hinted =
    Client.backoff_ms ~seed:7 ~attempt:0 ~retry_after_ms:(Some 1200) ()
  in
  Alcotest.(check bool) "server hint is a floor" true (hinted >= 1200);
  Alcotest.(check bool) "jitter stays within 25%" true
    (hinted <= 1200 + (1200 / 4));
  let a = Client.backoff_ms ~seed:1 ~attempt:5 ~retry_after_ms:None () in
  let b = Client.backoff_ms ~seed:2 ~attempt:5 ~retry_after_ms:None () in
  ignore (a = b);
  (* seeds may collide on one attempt; the full schedules must not *)
  let schedule seed =
    List.init 8 (fun i -> Client.backoff_ms ~seed ~attempt:i ~retry_after_ms:None ())
  in
  Alcotest.(check bool) "distinct seeds decorrelate" true
    (schedule 1 <> schedule 2)

let test_retry_exhaustion_without_server () =
  let socket = Filename.temp_file "nisq-no-daemon" ".sock" in
  Sys.remove socket;
  let sleeps = ref 0 in
  match
    Client.call_with_retry ~attempts:3
      ~sleep:(fun _ -> incr sleeps)
      ~socket
      { Protocol.id = 1; deadline_ms = None; verb = Protocol.Ping }
  with
  | Ok _ -> Alcotest.fail "no daemon, yet the call succeeded"
  | Error (Client.Remote _) -> Alcotest.fail "connect failure is not remote"
  | Error (Client.Unavailable _) ->
      Alcotest.(check int) "slept between attempts" 2 !sleeps

(* ------------------------- end-to-end daemon ------------------------ *)

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "nisq-serve-%d-%d.sock" (Unix.getpid ()) !n)

(* [drain_within]: the closing drain verb must have made [Server.run]
   return within this many seconds. *)
let with_server ?(socket = fresh_socket ()) ?(workers = 1) ?(queue = 8)
    ?(deadline_ms = 10_000) ?(grace = 10.0) ?drain_within ?calib f =
  let cfg =
    {
      Server.socket;
      workers;
      queue_capacity = queue;
      default_deadline_ms = deadline_ms;
      drain_grace_s = grace;
      calib;
    }
  in
  let ready = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        Server.run ~on_ready:(fun () -> Atomic.set ready true) cfg)
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Atomic.get ready)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  if not (Atomic.get ready) then Alcotest.fail "server never became ready";
  let finished = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !finished then begin
        (* A failing test must not leak the server domain. *)
        ignore
          (Client.call_with_retry ~attempts:2 ~sleep:(fun _ -> ()) ~socket
             { Protocol.id = 0; deadline_ms = None; verb = Protocol.Drain });
        ignore (Domain.join server)
      end)
    (fun () ->
      let out = f socket in
      let t0 = Unix.gettimeofday () in
      (match
         Client.call_with_retry ~attempts:3 ~sleep:(fun _ -> ()) ~socket
           { Protocol.id = 99; deadline_ms = None; verb = Protocol.Drain }
       with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "drain verb failed");
      (match Domain.join server with
      | Server.Drained None -> ()
      | Server.Drained (Some _) -> Alcotest.fail "verb drain blamed a signal");
      finished := true;
      Option.iter
        (fun bound ->
          let took = Unix.gettimeofday () -. t0 in
          if took > bound then
            Alcotest.failf "drain took %.2f s, bound %.2f s" took bound)
        drain_within;
      Alcotest.(check bool) "socket removed after drain" false
        (Sys.file_exists socket);
      out)

let call_once socket req =
  match Client.connect ~socket with
  | Error msg -> Alcotest.failf "connect: %s" msg
  | Ok conn ->
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () -> Client.call conn req)

let payload_of body =
  match body with
  | Protocol.Result v -> Json.to_string v
  | Protocol.Overloaded _ -> Alcotest.fail "unexpected overload"
  | Protocol.Failed { code; message; _ } ->
      Alcotest.failf "unexpected error [%s]: %s" code message

let test_e2e_basics () =
  with_server (fun socket ->
      (* ping *)
      (match call_once socket { id = 1; deadline_ms = None; verb = Protocol.Ping } with
      | Ok { Protocol.body = Protocol.Result v; id } ->
          Alcotest.(check int) "id echoed" 1 id;
          (match Json.member "build" v with
          | Some (Json.String b) ->
              Alcotest.(check string) "build id" Protocol.build_id b
          | _ -> Alcotest.fail "ping has no build id")
      | Ok _ -> Alcotest.fail "ping must succeed"
      | Error msg -> Alcotest.failf "ping: %s" msg);
      (* compile equals the handler run in-process, byte for byte *)
      let verb = Protocol.Compile (compile_params "bv4") in
      let direct = payload_of (Server.handle_work verb) in
      (match call_once socket { id = 2; deadline_ms = None; verb } with
      | Ok { Protocol.body; _ } ->
          Alcotest.(check string) "served = in-process bytes" direct
            (payload_of body)
      | Error msg -> Alcotest.failf "compile: %s" msg);
      (* run verb carries the simulated success rate *)
      (match
         call_once socket
           {
             id = 3;
             deadline_ms = None;
             verb =
               Protocol.Run
                 { compile = compile_params "bv4"; trials = 256; sim_seed = 7 };
           }
       with
      | Ok { Protocol.body = Protocol.Result v; _ } -> (
          match Json.member "success_rate" v with
          | Some (Json.Float r) ->
              Alcotest.(check bool) "success rate sane" true
                (r >= 0.0 && r <= 1.0)
          | _ -> Alcotest.fail "run reply has no success_rate")
      | Ok _ -> Alcotest.fail "run must succeed"
      | Error msg -> Alcotest.failf "run: %s" msg);
      (* stats *)
      match call_once socket { id = 4; deadline_ms = None; verb = Protocol.Stats } with
      | Ok { Protocol.body = Protocol.Result v; _ } -> (
          match Json.member "served" v with
          | Some (Json.Int n) ->
              Alcotest.(check bool) "served some work" true (n >= 2)
          | _ -> Alcotest.fail "stats has no served count")
      | Ok _ -> Alcotest.fail "stats must succeed"
      | Error msg -> Alcotest.failf "stats: %s" msg)

let test_e2e_bad_requests () =
  with_server (fun socket ->
      (* unknown benchmark: a structured, non-retryable error *)
      (match
         call_once socket
           {
             id = 5;
             deadline_ms = None;
             verb = Protocol.Compile (compile_params "nonesuch");
           }
       with
      | Ok { Protocol.body = Protocol.Failed { code; retryable; _ }; _ } ->
          Alcotest.(check string) "code" "bad-request" code;
          Alcotest.(check bool) "not retryable" false retryable
      | Ok _ -> Alcotest.fail "unknown benchmark must fail"
      | Error msg -> Alcotest.failf "call: %s" msg);
      (* an unparseable request body gets a structured error reply with
         the reserved id 0 — the connection is not just dropped *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX socket);
          ignore (Frame.write fd (Json.Obj [ ("not", Json.String "a request") ]));
          match Frame.read fd with
          | Ok v -> (
              match Protocol.reply_of_json v with
              | Ok { Protocol.id; body = Protocol.Failed { code; retryable; _ } }
                ->
                  Alcotest.(check int) "reserved id" 0 id;
                  Alcotest.(check string) "code" "bad-request" code;
                  Alcotest.(check bool) "not retryable" false retryable
              | Ok _ -> Alcotest.fail "garbage request did not fail"
              | Error msg -> Alcotest.failf "reply: %s" msg)
          | Error e ->
              Alcotest.failf "no reply to garbage: %s" (Frame.error_message e)))

let test_e2e_faults () =
  (* Work arrival indices on a fresh server: req0, req1, ... — admin
     verbs do not consume them. *)
  with_faults "server:crash-handler@req0;net:torn@req2;server:slow@req4"
    (fun () ->
      with_server ~deadline_ms:400 (fun socket ->
          (* req0: the handler crashes; the worker survives and answers
             a structured retryable error. *)
          (match
             call_once socket
               {
                 id = 10;
                 deadline_ms = None;
                 verb = Protocol.Compile (compile_params "bv4");
               }
           with
          | Ok { Protocol.body = Protocol.Failed { code; retryable; _ }; _ } ->
              Alcotest.(check string) "crash becomes internal" "internal" code;
              Alcotest.(check bool) "and is retryable" true retryable
          | Ok _ -> Alcotest.fail "crash-handler fault did not surface"
          | Error msg -> Alcotest.failf "call: %s" msg);
          (* req1: the fault is one-shot — the worker lives and the
             retried request succeeds with pristine bytes. *)
          let direct =
            payload_of (Server.handle_work (Protocol.Compile (compile_params "bv4")))
          in
          (match
             call_once socket
               {
                 id = 11;
                 deadline_ms = None;
                 verb = Protocol.Compile (compile_params "bv4");
               }
           with
          | Ok { Protocol.body; _ } ->
              Alcotest.(check string) "retry is clean" direct (payload_of body)
          | Error msg -> Alcotest.failf "retry: %s" msg);
          (* req2: the reply frame is torn mid-payload; the client sees
             a framing error, not a hang or a garbage payload. *)
          (match
             call_once socket
               {
                 id = 12;
                 deadline_ms = None;
                 verb = Protocol.Compile (compile_params "bv6");
               }
           with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "torn reply parsed");
          (* req3: and the retry loop recovers end to end. *)
          (match
             Client.call_with_retry ~attempts:4 ~sleep:(fun _ -> ()) ~socket
               {
                 id = 13;
                 deadline_ms = None;
                 verb = Protocol.Compile (compile_params "bv6");
               }
           with
          | Ok _ -> ()
          | Error _ -> Alcotest.fail "retry after torn reply failed");
          (* req4: an injected stall burns the request's deadline. *)
          match
            call_once socket
              {
                id = 14;
                deadline_ms = Some 150;
                verb = Protocol.Compile (compile_params "hs2");
              }
          with
          | Ok { Protocol.body = Protocol.Failed { code; retryable; _ }; _ } ->
              Alcotest.(check string) "deadline code" "deadline" code;
              Alcotest.(check bool) "deadline not retryable" false retryable
          | Ok _ -> Alcotest.fail "slow fault did not trip the deadline"
          | Error msg -> Alcotest.failf "slow call: %s" msg))

(* Coalesced delivery must be byte-identical to uncoalesced execution:
   two waiters on one queued entry receive one computed body, and its
   bytes equal a fresh in-process run of the same work. CI runs this at
   NISQ_DOMAINS = 0, 1 and 4. *)
let test_coalesced_bytes_identical () =
  let q = Admission.create ~capacity:4 ~workers:1 () in
  let verb = Protocol.Compile (compile_params "bv4") in
  let got = ref [] in
  let deliver body = got := Json.to_string (Protocol.reply_to_json
    { Protocol.id = 0; body }) :: !got in
  (match Admission.submit q ~verb ~deadline_ms:None ~req_index:0 ~deliver with
  | Admission.Admitted -> ()
  | _ -> Alcotest.fail "first submit must admit");
  (match Admission.submit q ~verb ~deadline_ms:None ~req_index:1 ~deliver with
  | Admission.Coalesced -> ()
  | _ -> Alcotest.fail "duplicate must coalesce");
  (match Admission.pop q with
  | None -> Alcotest.fail "pop failed"
  | Some entry ->
      let body = Server.handle_work entry.Admission.verb in
      List.iter (fun d -> d body) entry.Admission.waiters);
  (match !got with
  | [ a; b ] -> Alcotest.(check string) "both waiters, same bytes" a b
  | l -> Alcotest.failf "expected 2 deliveries, got %d" (List.length l));
  let uncoalesced =
    Json.to_string
      (Protocol.reply_to_json { Protocol.id = 0; body = Server.handle_work verb })
  in
  match !got with
  | a :: _ ->
      Alcotest.(check string) "coalesced = uncoalesced bytes" uncoalesced a
  | [] -> assert false

(* Telemetry observes and never answers: the Table 2 compile and run
   replies are byte-identical with Trace, Events and Metrics all armed
   and all off. Each pass clears the calibration cache so both compute
   from cold. *)
let test_replies_independent_of_telemetry () =
  let module Trace = Nisq_obs.Trace in
  let module Events = Nisq_obs.Events in
  let module Metrics = Nisq_obs.Metrics in
  let set_all on =
    Trace.set_enabled on;
    Events.set_enabled on;
    Metrics.set_enabled on
  in
  let requests =
    List.concat_map
      (fun (b : Nisq_bench.Benchmarks.t) ->
        let compile = compile_params b.Nisq_bench.Benchmarks.name in
        [
          Protocol.Compile compile;
          Protocol.Run { compile; trials = 256; sim_seed = 7 };
        ])
      Nisq_bench.Benchmarks.all
    |> List.mapi (fun i verb -> { Protocol.id = i + 1; deadline_ms = None; verb })
  in
  let reply_frames on =
    Nisq_device.Calib_cache.clear ();
    set_all on;
    Fun.protect
      ~finally:(fun () ->
        set_all false;
        Trace.reset ();
        Events.reset ();
        Metrics.reset ())
    @@ fun () ->
    with_server @@ fun socket ->
    match Client.connect ~socket with
    | Error msg -> Alcotest.failf "connect: %s" msg
    | Ok conn ->
        Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
        List.map
          (fun req ->
            (* [record] sees the request frame, then the reply frame *)
            let frames = ref [] in
            match Client.call ~record:(fun w -> frames := w :: !frames) conn req with
            | Ok { Protocol.body = Protocol.Result _; _ } -> List.hd !frames
            | Ok _ -> Alcotest.failf "request %d did not succeed" req.Protocol.id
            | Error msg -> Alcotest.failf "request %d: %s" req.Protocol.id msg)
          requests
  in
  let armed = reply_frames true in
  let quiet = reply_frames false in
  Alcotest.(check int) "every request answered" (List.length requests)
    (List.length armed);
  List.iteri
    (fun i (a, q) ->
      Alcotest.(check string) (Printf.sprintf "reply %d bytes" (i + 1)) q a)
    (List.combine armed quiet)

(* ---------------------------- the loop ------------------------------ *)

(* A daemon that never answers fails the read instead of hanging. *)
let connect_raw socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let ping_req id = { Protocol.id; deadline_ms = None; verb = Protocol.Ping }

let expect_pong what fd =
  match Result.map Protocol.reply_of_json (Frame.read fd) with
  | Ok (Ok { Protocol.body = Protocol.Result _; _ }) -> ()
  | _ -> Alcotest.failf "%s: no pong" what

(* Worker domains are spawned before serving starts; a count the
   runtime cannot give is a startup error, not a crash, and the socket
   is gone so the next daemon on the path starts. *)
let test_too_many_workers () =
  let socket = fresh_socket () in
  (match Server.run { (Server.default_config ~socket) with workers = 1000 } with
  | _ -> Alcotest.fail "1000 worker domains started"
  | exception Server.Startup_error _ -> ());
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists socket);
  with_server ~socket (fun socket ->
      let fd = connect_raw socket in
      Fun.protect ~finally:(fun () -> close_quietly fd) (fun () ->
          ignore (Frame.write fd (Protocol.request_to_json (ping_req 1)));
          expect_pong "restarted daemon" fd))

(* A peer that pipelines thousands of qasm-emitting compiles and never
   reads: its replies fill the socket, and every write to it times out
   instead of blocking. Returns once the daemon has hung up on it. *)
let flood socket =
  let fd = connect_raw socket in
  let writer =
    Domain.spawn (fun () ->
        try
          for i = 1 to 4000 do
            let verb =
              Protocol.Compile (compile_params ~day:(i mod 50) ~emit_qasm:true "bv4")
            in
            ignore
              (Frame.write fd
                 (Protocol.request_to_json { Protocol.id = i; deadline_ms = None; verb }))
          done
        with Unix.Unix_error _ -> ())
  in
  fun () ->
    Domain.join writer;
    close_quietly fd

(* Another connection still gets its compile; and with a second such
   peer wedged when the drain starts, the drain verb returns within the
   grace plus the 1 s send timeout. *)
let test_non_reading_peer () =
  let second = ref (fun () -> ()) in
  Fun.protect ~finally:(fun () -> !second ()) @@ fun () ->
  with_server ~workers:2 ~grace:1.0 ~drain_within:3.0 (fun socket ->
      let first = flood socket in
      Fun.protect ~finally:first (fun () ->
          Unix.sleepf 0.2;
          match
            Client.call_with_retry ~attempts:30 ~socket
              {
                Protocol.id = 1;
                deadline_ms = None;
                verb = Protocol.Compile (compile_params "bv6");
              }
          with
          | Ok _ -> ()
          | Error _ -> Alcotest.fail "a wedged peer starved another connection");
      second := flood socket;
      Unix.sleepf 0.2)

(* A peer sending one byte every 5 ms takes over a second per frame;
   pings on another connection must not wait for it. *)
let test_dribbling_peer () =
  with_server (fun socket ->
      let fd = connect_raw socket in
      let wire =
        Frame.encode
          (Protocol.request_to_json
             {
               Protocol.id = 1;
               deadline_ms = None;
               verb = Protocol.Compile (compile_params (String.make 160 'x'));
             })
      in
      let dribbler =
        Domain.spawn (fun () ->
            String.iter
              (fun c ->
                ignore (Unix.write_substring fd (String.make 1 c) 0 1);
                Unix.sleepf 0.005)
              wire)
      in
      Fun.protect ~finally:(fun () -> close_quietly fd) (fun () ->
          Unix.sleepf 0.05;
          let worst = ref 0.0 in
          for i = 1 to 5 do
            let t0 = Unix.gettimeofday () in
            (match call_once socket (ping_req i) with
            | Ok { Protocol.body = Protocol.Result _; _ } -> ()
            | _ -> Alcotest.fail "ping failed");
            worst := Float.max !worst (Unix.gettimeofday () -. t0)
          done;
          Domain.join dribbler;
          if !worst > 0.5 then
            Alcotest.failf "a ping waited %.3f s behind the dribble" !worst;
          match Result.map Protocol.reply_of_json (Frame.read fd) with
          | Ok (Ok { Protocol.id = 1; body = Protocol.Failed { code; _ } }) ->
              Alcotest.(check string) "dribbled request answered" "bad-request"
                code
          | _ -> Alcotest.fail "the dribbled request got no reply"))

(* The connection over the cap gets one overloaded frame and EOF; the
   connections under it are all still served. *)
let test_connection_cap () =
  with_server (fun socket ->
      let conns = List.init Server.max_connections (fun _ -> connect_raw socket) in
      Fun.protect ~finally:(fun () -> List.iter close_quietly conns) (fun () ->
          let extra = connect_raw socket in
          Fun.protect ~finally:(fun () -> close_quietly extra) (fun () ->
              (match Result.map Protocol.reply_of_json (Frame.read extra) with
              | Ok (Ok { Protocol.id = 0; body = Protocol.Overloaded _ }) -> ()
              | _ -> Alcotest.fail "over the cap: no overloaded frame");
              match Frame.read extra with
              | Error Frame.Eof -> ()
              | _ -> Alcotest.fail "over the cap: not closed after one frame");
          List.iteri
            (fun i fd ->
              ignore (Frame.write fd (Protocol.request_to_json (ping_req i)));
              expect_pong (Printf.sprintf "connection %d" i) fd)
            conns))

(* --------------------------- faultkit spec -------------------------- *)

let test_server_fault_clauses () =
  with_faults "net:torn@req2;net:close@req3;server:slow@req5;server:crash-handler@req7"
    (fun () ->
      Alcotest.(check bool) "unarmed index" true (Faultkit.server_fault 0 = None);
      (match Faultkit.server_fault 2 with
      | Some Faultkit.Net_torn -> ()
      | _ -> Alcotest.fail "req2 must be Net_torn");
      Alcotest.(check bool) "one-shot" true (Faultkit.server_fault 2 = None);
      (match Faultkit.server_fault 3 with
      | Some Faultkit.Net_close -> ()
      | _ -> Alcotest.fail "req3 must be Net_close");
      (match Faultkit.server_fault 5 with
      | Some Faultkit.Slow -> ()
      | _ -> Alcotest.fail "req5 must be Slow");
      match Faultkit.server_fault 7 with
      | Some Faultkit.Crash_handler -> ()
      | _ -> Alcotest.fail "req7 must be Crash_handler")

let test_server_fault_spec_rejects () =
  Fun.protect ~finally:Faultkit.clear (fun () ->
      List.iter
        (fun spec ->
          match Faultkit.configure spec with
          | Error _ -> ()
          | Ok () -> Alcotest.failf "accepted %S" spec)
        [
          "net:torn"; "server:slow"; "net:torn@chunk3"; "server:crash-handler@req";
        ])

let suite =
  [
    Alcotest.test_case "frame: encode/scan round-trip" `Quick
      test_frame_roundtrip_scan;
    Alcotest.test_case "frame: socket round-trip + record + EOF" `Quick
      test_frame_socket_roundtrip;
    Alcotest.test_case "frame: torn write detected" `Quick test_frame_torn;
    Alcotest.test_case "frame: oversized prefix rejected" `Quick
      test_frame_too_large;
    Alcotest.test_case "frame: malformed payload rejected" `Quick
      test_frame_malformed;
    Alcotest.test_case "frame: 1-byte partial reads reassemble" `Quick
      test_frame_one_byte_dribble;
    Alcotest.test_case "frame: EINTR-peppered round-trip" `Quick
      test_frame_eintr_interleaved;
    Alcotest.test_case "frame: torn capture rejected by scan" `Quick
      test_scan_torn_capture;
    Alcotest.test_case "protocol: request round-trip" `Quick
      test_request_roundtrip;
    Alcotest.test_case "protocol: reply round-trip" `Quick test_reply_roundtrip;
    Alcotest.test_case "protocol: bad requests rejected" `Quick
      test_request_decode_rejects;
    Alcotest.test_case "protocol: coalesce keys" `Quick test_coalesce_key;
    Alcotest.test_case "admission: coalesce, shed, FIFO, drain" `Quick
      test_admission_coalesce_shed;
    Alcotest.test_case "admission: retry hint tracks service time" `Quick
      test_admission_retry_hint_tracks_service_time;
    Alcotest.test_case "client: backoff schedule" `Quick test_backoff_schedule;
    Alcotest.test_case "client: retries exhaust without a daemon" `Quick
      test_retry_exhaustion_without_server;
    Alcotest.test_case "e2e: ping/compile/run/stats" `Quick test_e2e_basics;
    Alcotest.test_case "e2e: structured errors for bad input" `Quick
      test_e2e_bad_requests;
    Alcotest.test_case "e2e: injected crash/torn/slow faults" `Quick
      test_e2e_faults;
    Alcotest.test_case "determinism: coalesced = uncoalesced bytes" `Quick
      test_coalesced_bytes_identical;
    Alcotest.test_case "determinism: replies independent of telemetry" `Quick
      test_replies_independent_of_telemetry;
    Alcotest.test_case "loop: too many workers is a startup error" `Quick
      test_too_many_workers;
    Alcotest.test_case "loop: a non-reading peer cannot wedge the daemon"
      `Quick test_non_reading_peer;
    Alcotest.test_case "loop: a dribbling peer does not delay a ping" `Quick
      test_dribbling_peer;
    Alcotest.test_case "loop: the connection over the cap is refused" `Quick
      test_connection_cap;
    Alcotest.test_case "faultkit: server clauses one-shot" `Quick
      test_server_fault_clauses;
    Alcotest.test_case "faultkit: malformed server clauses rejected" `Quick
      test_server_fault_spec_rejects;
  ]
