(* nisqd — the compile-as-a-service daemon.

   Subcommands:
     serve   listen on a Unix socket and serve compile/run requests
     call    send one request to a running daemon and print the reply

   Exit codes follow the nisqc conventions: 0 clean (including a drain
   requested over the wire), 2 usage or startup errors, 130/143 when a
   drain was started by SIGINT/SIGTERM, and for `call` 4 when the
   server answered with a non-retryable error, 5 when no answer could
   be obtained within the retry budget. *)

open Cmdliner
module Server = Nisq_serve.Server
module Client = Nisq_serve.Client
module Protocol = Nisq_serve.Protocol
module Deadline = Nisq_runkit.Deadline
module Telemetry = Nisq_obs.Telemetry
module Obs_json = Nisq_obs.Json
module Obs_metrics = Nisq_obs.Metrics
module Events = Nisq_obs.Events
module Faultkit = Nisq_faultkit.Faultkit

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "s"; "socket" ] ~docv:"PATH"
        ~doc:"Unix socket the daemon listens on / the client connects to.")

(* ------------------------------- serve ------------------------------ *)

let serve_cmd =
  let run socket workers queue deadline_ms grace inject events prom metrics
      calib calib_prev calib_watch reload_report max_drift =
    Telemetry.init_from_env ();
    Telemetry.configure
      ?metrics:(if metrics then Some true else None)
      ?events ?prom ();
    Events.set_enabled true;
    Obs_metrics.set_enabled true;
    Faultkit.init_from_env ();
    (match inject with
    | None -> ()
    | Some spec -> (
        match Faultkit.configure spec with
        | Ok () -> ()
        | Error msg ->
            Printf.eprintf "nisqd: bad --inject spec: %s\n" msg;
            exit 2));
    (match (calib, calib_prev, calib_watch, reload_report) with
    | None, Some _, _, _ | None, _, Some _, _ | None, _, _, Some _ ->
        Printf.eprintf
          "nisqd: --calib-prev/--calib-watch/--reload-report need --calib\n";
        exit 2
    | _ -> ());
    let calib =
      Option.map
        (fun path ->
          let thresholds =
            match max_drift with
            | None -> Nisq_device.Calib_diff.default_thresholds
            | Some d ->
                {
                  Nisq_device.Calib_diff.default_thresholds with
                  max_mean_cnot_drift = d;
                  max_mean_readout_drift = d;
                }
          in
          Server.calib_config ?prev:calib_prev ?watch_s:calib_watch
            ~thresholds ?report:reload_report path)
        calib
    in
    let cfg =
      {
        (Server.default_config ~socket) with
        workers;
        queue_capacity = queue;
        default_deadline_ms = deadline_ms;
        drain_grace_s = grace;
        calib;
      }
    in
    match Server.run ~signals:true cfg with
    | Server.Drained reason ->
        Telemetry.finish ();
        exit (match reason with None -> 0 | Some r -> Deadline.exit_code r)
    | exception Server.Startup_error msg ->
        Printf.eprintf "nisqd: %s\n" msg;
        exit 2
  in
  let workers_arg =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N" ~doc:"Worker domains serving requests.")
  in
  let queue_arg =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Admission queue capacity; beyond it requests are shed with            an $(b,overloaded) reply.")
  in
  let deadline_arg =
    Arg.(
      value & opt int 30_000
      & info [ "default-deadline-ms" ] ~docv:"MS"
          ~doc:"Deadline for requests that do not carry their own.")
  in
  let grace_arg =
    Arg.(
      value & opt float 5.0
      & info [ "drain-grace" ] ~docv:"SECONDS"
          ~doc:
            "Stage-1 drain budget: how long in-flight work may finish            after SIGTERM before it is cancelled.")
  in
  let inject_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "inject" ] ~docv:"SPEC"
          ~doc:
            "Deterministic fault injection, e.g.            $(b,net:torn@req2;server:crash-handler@req5). Env:            $(b,NISQ_FAULTS).")
  in
  let events_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "events" ] ~docv:"FILE"
          ~doc:"Write the event ledger as JSONL at exit.")
  in
  let prom_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "prom" ] ~docv:"FILE"
          ~doc:"Write a Prometheus scrape of the metrics at exit.")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ] ~doc:"Dump the metrics registry at exit.")
  in
  let calib_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "calib" ] ~docv:"FILE"
          ~doc:
            "Serve the calibration in $(docv) (epoch 0) instead of            synthetic per-request calibration; enables the $(b,reload)            verb, SIGHUP reload, and $(b,--calib-watch).")
  in
  let calib_prev_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "calib-prev" ] ~docv:"FILE"
          ~doc:
            "Previous-day calibration seeding the sanitizer's backfill            chain for the initial load (reloads backfill from the live            epoch automatically).")
  in
  let calib_watch_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "calib-watch" ] ~docv:"SECONDS"
          ~doc:
            "Poll the $(b,--calib) file's mtime every $(docv) seconds            and reload when it changes.")
  in
  let reload_report_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "reload-report" ] ~docv:"FILE"
          ~doc:
            "Write each reload attempt's $(b,nisq-reload/1) JSON report            to $(docv) (overwritten per attempt); check with            $(b,jsonlint --reload).")
  in
  let max_drift_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-drift" ] ~docv:"FRACTION"
          ~doc:
            "Reload drift gate: reject a candidate whose mean CNOT or            readout error drifted by more than $(docv) relative to the            live epoch (default 0.5).")
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Serve compile/run requests on a Unix socket")
    Term.(
      const run $ socket_arg $ workers_arg $ queue_arg $ deadline_arg
      $ grace_arg $ inject_arg $ events_arg $ prom_arg $ metrics_arg
      $ calib_arg $ calib_prev_arg $ calib_watch_arg $ reload_report_arg
      $ max_drift_arg)

(* ------------------------------- call ------------------------------- *)

let call_cmd =
  let run socket verb program method_s trials deadline_ms attempts seed record
      =
    let req_of_verb v = { Protocol.id = 1; deadline_ms; verb = v } in
    let work_verb () =
      let params program =
        match Protocol.method_of_string method_s with
        | Error msg ->
            Printf.eprintf "nisqd: %s\n" msg;
            exit 2
        | Ok method_ ->
            {
              Protocol.program;
              method_;
              routing = None;
              movement = Nisq_compiler.Config.Swap_back;
              day = 0;
              calib_seed = Nisq_device.Ibmq16.default_seed;
              emit_qasm = false;
            }
      in
      match (verb, program) with
      | "ping", _ -> Protocol.Ping
      | "stats", _ -> Protocol.Stats
      | "drain", _ -> Protocol.Drain
      | "reload", path ->
          (* PATH overrides the daemon's configured calibration file for
             this one attempt; exit 0 on any decision — the RPC
             succeeded, the report says promoted or rolled-back. *)
          Protocol.Reload { path }
      | "compile", Some p -> Protocol.Compile (params (Protocol.Named p))
      | "run", Some p ->
          Protocol.Run
            {
              compile = params (Protocol.Named p);
              trials;
              sim_seed = 424242;
            }
      | ("compile" | "run"), None ->
          Printf.eprintf "nisqd: %s needs a PROGRAM argument\n" verb;
          exit 2
      | other, _ ->
          Printf.eprintf
            "nisqd: unknown verb %S (ping | stats | drain | reload | compile \
             | run)\n"
            other;
          exit 2
    in
    let req = req_of_verb (work_verb ()) in
    let capture = Buffer.create 256 in
    let result =
      match record with
      | None ->
          Client.call_with_retry ~attempts ~seed ~socket req
      | Some _ -> (
          (* --record wants the raw frames, so drive a single connection
             by hand instead of the retry loop. *)
          match Client.connect ~socket with
          | Error msg -> Error (Client.Unavailable msg)
          | Ok conn ->
              let r =
                Client.call ~record:(Buffer.add_string capture) conn req
              in
              Client.close conn;
              (match r with
              | Ok { Protocol.body = Protocol.Result v; _ } -> Ok v
              | Ok { body = Protocol.Overloaded { retry_after_ms; _ }; _ } ->
                  Error
                    (Client.Unavailable
                       (Printf.sprintf "overloaded; retry after %d ms"
                          retry_after_ms))
              | Ok { body = Protocol.Failed { code; message; retryable }; _ }
                ->
                  if retryable then Error (Client.Unavailable message)
                  else Error (Client.Remote { code; message })
              | Error msg -> Error (Client.Unavailable msg)))
    in
    Option.iter
      (fun path -> Obs_json.write_atomic ~path (Buffer.contents capture))
      record;
    match result with
    | Ok v ->
        print_endline (Obs_json.to_string v);
        exit 0
    | Error (Client.Remote { code; message }) ->
        Printf.eprintf "nisqd: server error [%s]: %s\n" code message;
        exit 4
    | Error (Client.Unavailable msg) ->
        Printf.eprintf "nisqd: unavailable: %s\n" msg;
        exit 5
  in
  let verb_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"VERB"
          ~doc:"ping, stats, drain, reload, compile or run.")
  in
  let program_arg =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"PROGRAM"
          ~doc:
            "Benchmark name for compile/run; candidate calibration file            path for reload (defaults to the daemon's $(b,--calib)            file).")
  in
  let method_arg =
    Arg.(
      value & opt string "rsmt:0.5"
      & info [ "m"; "method" ] ~docv:"METHOD" ~doc:"Mapping method.")
  in
  let trials_arg =
    Arg.(
      value & opt int 4096
      & info [ "t"; "trials" ] ~docv:"N" ~doc:"Trials for the run verb.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Per-request deadline.")
  in
  let attempts_arg =
    Arg.(
      value & opt int 5
      & info [ "attempts" ] ~docv:"N" ~doc:"Retry budget (backoff between).")
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "retry-seed" ] ~docv:"SEED"
          ~doc:"Seed of the deterministic retry jitter.")
  in
  let record_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "record" ] ~docv:"FILE"
          ~doc:
            "Capture the raw wire bytes of the exchange (request and            reply frames) to $(docv); check with $(b,jsonlint --frame).            Disables retries.")
  in
  Cmd.v
    (Cmd.info "call" ~doc:"Send one request to a running daemon")
    Term.(
      const run $ socket_arg $ verb_arg $ program_arg $ method_arg
      $ trials_arg $ deadline_arg $ attempts_arg $ seed_arg $ record_arg)

(* -------------------------------- main ------------------------------ *)

let () =
  let doc = "noise-adaptive NISQ compile service daemon" in
  let info = Cmd.info "nisqd" ~version:Protocol.build_id ~doc in
  exit (Cmd.eval (Cmd.group info [ serve_cmd; call_cmd ]))
