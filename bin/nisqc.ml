(* nisqc — noise-adaptive NISQ compiler command-line interface.

   Subcommands:
     compile      map a benchmark or OpenQASM file onto the machine and
                  print mapping, metrics and (optionally) OpenQASM
     run          compile then estimate the success rate by simulation
     calibration  show a day's machine calibration
     list         list built-in benchmarks and compiler configurations
     experiment   regenerate one of the paper's tables/figures *)

open Cmdliner
module Circuit = Nisq_circuit.Circuit
module Qasm = Nisq_circuit.Qasm
module Calibration = Nisq_device.Calibration
module Calib_io = Nisq_device.Calib_io
module Calib_sanitize = Nisq_device.Calib_sanitize
module Faultkit = Nisq_faultkit.Faultkit
module Ibmq16 = Nisq_device.Ibmq16
module Config = Nisq_compiler.Config
module Compile = Nisq_compiler.Compile
module Layout = Nisq_compiler.Layout
module Budget = Nisq_solver.Budget
module Benchmarks = Nisq_bench.Benchmarks
module Experiments = Nisq_bench.Experiments
module Runner = Nisq_sim.Runner
module Telemetry = Nisq_obs.Telemetry
module Obs_clock = Nisq_obs.Clock
module Obs_json = Nisq_obs.Json
module Obs_metrics = Nisq_obs.Metrics
module Report = Nisq_obs.Report
module Deadline = Nisq_runkit.Deadline
module Ledger = Nisq_runkit.Run
module Signals = Nisq_runkit.Signals
module Serve_client = Nisq_serve.Client
module Serve_protocol = Nisq_serve.Protocol

(* ------------------------- shared arguments ------------------------ *)

let method_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "qiskit" -> Ok Config.Qiskit
    | "tsmt" | "t-smt" -> Ok Config.T_smt
    | "tsmt*" | "t-smt*" | "tsmt-star" -> Ok Config.T_smt_star
    | "greedyv" | "greedyv*" -> Ok Config.Greedy_v
    | "greedye" | "greedye*" -> Ok Config.Greedy_e
    | s when String.length s > 5 && String.sub s 0 5 = "rsmt:" ->
        (try Ok (Config.R_smt_star (Float.of_string (String.sub s 5 (String.length s - 5))))
         with _ -> Error (`Msg "bad omega in rsmt:<omega>"))
    | "rsmt" | "rsmt*" | "r-smt*" -> Ok (Config.R_smt_star 0.5)
    | _ ->
        Error
          (`Msg
            "unknown method (qiskit | tsmt | tsmt* | rsmt | rsmt:<omega> | \
             greedyv | greedye)")
  in
  let print ppf m =
    Format.pp_print_string ppf
      (match m with
      | Config.Qiskit -> "qiskit"
      | Config.T_smt -> "tsmt"
      | Config.T_smt_star -> "tsmt*"
      | Config.R_smt_star w -> Printf.sprintf "rsmt:%g" w
      | Config.Greedy_v -> "greedyv"
      | Config.Greedy_e -> "greedye")
  in
  Arg.conv (parse, print)

let routing_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "rr" -> Ok Config.Rectangle_reservation
    | "1bp" -> Ok Config.One_bend
    | "bestpath" | "best-path" -> Ok Config.Best_path
    | _ -> Error (`Msg "unknown routing policy (rr | 1bp | bestpath)")
  in
  let print ppf r = Format.pp_print_string ppf (Config.routing_name r) in
  Arg.conv (parse, print)

let method_arg =
  Arg.(
    value
    & opt method_conv (Config.R_smt_star 0.5)
    & info [ "m"; "method" ] ~docv:"METHOD"
        ~doc:
          "Mapping method: qiskit, tsmt, tsmt*, rsmt (= rsmt:0.5), \
           rsmt:$(i,OMEGA), greedyv, greedye.")

let movement_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "swap-back" | "swapback" | "static" -> Ok Config.Swap_back
    | "move" | "move-and-stay" | "dynamic" -> Ok Config.Move_and_stay
    | _ -> Error (`Msg "unknown movement model (swap-back | move-and-stay)")
  in
  let print ppf m =
    Format.pp_print_string ppf
      (match m with Config.Swap_back -> "swap-back" | Config.Move_and_stay -> "move-and-stay")
  in
  Arg.conv (parse, print)

let movement_arg =
  Arg.(
    value
    & opt movement_conv Config.Swap_back
    & info [ "movement" ] ~docv:"MODEL"
        ~doc:"Qubit movement model: swap-back (the paper's static \
              placement) or move-and-stay (dynamic routing).")

let routing_arg =
  Arg.(
    value
    & opt (some routing_conv) None
    & info [ "r"; "routing" ] ~docv:"POLICY"
        ~doc:"Routing policy: rr, 1bp or bestpath (default: the paper's \
              choice for the method).")

let day_arg =
  Arg.(
    value & opt int 0
    & info [ "d"; "day" ] ~docv:"DAY" ~doc:"Calibration day to compile for.")

let seed_arg =
  Arg.(
    value & opt int Ibmq16.default_seed
    & info [ "calibration-seed" ] ~docv:"SEED"
        ~doc:"Seed of the synthetic calibration stream.")

let calib_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "calib" ] ~docv:"FILE"
        ~doc:
          "Compile against the archived calibration in $(docv) (the            format of $(b,nisqc calibration --save)) instead of the            synthetic stream; $(b,--day) and $(b,--calibration-seed) are            then ignored.")

let calib_prev_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "calib-prev" ] ~docv:"FILE"
        ~doc:
          "Previous-day calibration seeding the sanitizer's backfill            chain when loading $(b,--calib).")

let program_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"PROGRAM"
        ~doc:
          "Benchmark name (see $(b,nisqc list)), an OpenQASM 2.0 file, or a \
           mini-Scaffold file (.scaf).")

(* Parse diagnostics go to stderr as "file:line: message" (no line part
   when the error is not tied to one) and exit with status 2, the
   conventional usage/input-error code — never a backtrace. *)
let die_parse file line message =
  if line > 0 then Printf.eprintf "%s:%d: %s\n" file line message
  else Printf.eprintf "%s: %s\n" file message;
  exit 2

let load_program name =
  if Sys.file_exists name then begin
    if Filename.check_suffix name ".scaf" then
      match Nisq_frontend.Scaffold.parse_file name with
      | c -> (Filename.basename name, c, None)
      | exception Nisq_frontend.Scaffold.Parse_error { line; message } ->
          die_parse name line message
    else begin
      let ic = open_in name in
      let len = in_channel_length ic in
      let src = really_input_string ic len in
      close_in ic;
      match Qasm.of_string src with
      | Ok c -> (Filename.basename name, c, None)
      | Error { Qasm.line; message } -> die_parse name line message
    end
  end
  else
    let b = Benchmarks.by_name name in
    (b.Benchmarks.name, b.Benchmarks.circuit, Some b.Benchmarks.expected)

(* --trace/--metrics ride on compile and run; the environment variables
   NISQ_TRACE / NISQ_METRICS arm the same collectors, flags win. *)
let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON (Perfetto-loadable) of the            compile/simulate spans to $(docv), and print the span tree.            Env: $(b,NISQ_TRACE).")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Dump the metrics registry (counters, gauges, histograms) after            the command. Env: $(b,NISQ_METRICS=1).")

let events_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "events" ] ~docv:"FILE"
        ~doc:
          "Record the structured event ledger (warnings, cache and            sanitizer notices) and write it to $(docv) as JSONL at exit.            Env: $(b,NISQ_EVENTS).")

let prom_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "prom" ] ~docv:"FILE"
        ~doc:
          "Write a Prometheus text-format scrape of the metrics registry            to $(docv) at exit. Env: $(b,NISQ_PROM).")

let report_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "report" ] ~docv:"FILE"
        ~doc:
          "Write a structured explain report (JSON) of the compile to            $(docv): ESP decomposition per qubit and link, solver evidence            (rung, nodes, bound-ladder prunes), cache provenance and            per-phase timings. Collection never changes the compile —            output is byte-identical either way.")

let inject_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "inject" ] ~docv:"SPEC"
        ~doc:
          "Deterministically inject faults for resilience testing, e.g.            $(b,calib:nan@q3;solver:blow;pool:crash@chunk7). Env:            $(b,NISQ_FAULTS).")

let deadline_conv =
  let parse s =
    match Deadline.parse_duration s with
    | Ok f -> Ok f
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun ppf s -> Format.fprintf ppf "%gs" s)

let deadline_arg =
  Arg.(
    value
    & opt (some deadline_conv) None
    & info [ "deadline" ] ~docv:"DUR"
        ~doc:
          "Cancel cooperatively after $(docv) (e.g. 30s, 5m, 1h30m):            in-flight work drains, partial results are checkpointed when a            run ledger is active, and the exit status is 3. Env:            $(b,NISQ_DEADLINE).")

let run_id_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "run-id" ] ~docv:"ID"
        ~doc:
          "Journal simulation results under $(b,_runs/)$(docv)$(b,/) as            they complete, enabling $(b,--resume).")

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"ID"
        ~doc:
          "Replay the journal of run $(docv): completed cells are reused            (bit-identically — the simulator is deterministic), only the            remainder is computed.")

let resume_force_arg =
  Arg.(
    value & flag
    & info [ "resume-force" ]
        ~doc:
          "Resume even if the run's recorded identity (program, method,            trials, seeds) differs from this invocation. Individual cells            are still only replayed on an exact digest match.")

(* Arm the cancellation token sources and run [f]; on cancellation,
   checkpoint the ledger (if any), flush telemetry, and exit with the
   reason's code (3 deadline / 130 SIGINT / 143 SIGTERM). *)
let with_cancellation ?ledger deadline f =
  Deadline.init_from_env ();
  Option.iter Deadline.arm_seconds deadline;
  Signals.install ();
  match f () with
  | v ->
      Option.iter (fun r -> Ledger.finish r ~status:"completed") ledger;
      v
  | exception Deadline.Cancelled reason ->
      let status =
        match reason with
        | Deadline.Deadline -> "degraded:deadline"
        | Deadline.Sigint -> "interrupted:sigint"
        | Deadline.Sigterm -> "interrupted:sigterm"
      in
      Option.iter
        (fun r ->
          Ledger.finish r ~status;
          Printf.eprintf
            "nisqc: %s — partial results checkpointed in %s; resume with \
             --resume %s\n\
             %!"
            status (Ledger.dir r) (Ledger.id r))
        ledger;
      if ledger = None then
        Printf.eprintf "nisqc: %s — cancelled before completion\n%!" status;
      Telemetry.finish ();
      exit (Deadline.exit_code reason)

(* Open (or reopen) the run ledger named on the command line. *)
let ledger_of ~identity ~run_id ~resume ~force =
  match (resume, run_id) with
  | Some id, _ -> (
      match Ledger.resume ~run_id:id ~identity ~force () with
      | Ok r ->
          Printf.eprintf "nisqc: resuming run %s from %s\n%!" id (Ledger.dir r);
          Some r
      | Error msg ->
          Printf.eprintf "nisqc: cannot resume: %s\n" msg;
          exit 2)
  | None, Some id -> Some (Ledger.start ~run_id:id ~identity ())
  | None, None -> None

let setup_telemetry ?inject ?events ?prom ?report trace metrics =
  Telemetry.init_from_env ();
  Telemetry.configure ?trace
    ?metrics:(if metrics then Some true else None)
    ?events ?prom ();
  (match report with
  | Some _ ->
      (* Cache provenance in the report is counter deltas, so the
         registry must collect; --report alone does not print the
         metrics table. *)
      Report.set_enabled true;
      Obs_metrics.set_enabled true
  | None -> ());
  Faultkit.init_from_env ();
  match inject with
  | None -> ()
  | Some spec -> (
      match Faultkit.configure spec with
      | Ok () -> ()
      | Error msg ->
          Printf.eprintf "nisqc: bad --inject spec: %s\n" msg;
          exit 2)

(* The synthetic calibration stream, with any armed calib:* faults
   corrupting it and the sanitizer repairing/quarantining the result —
   exactly the path a real (possibly damaged) calibration log takes. *)
let effective_calibration ~seed ~day () =
  let calib = Ibmq16.calibration ~seed ~day () in
  match Faultkit.calib_faults () with
  | [] -> calib
  | faults ->
      let raw =
        Calib_sanitize.apply_faults (Calib_sanitize.of_calibration calib) faults
      in
      let previous =
        if day > 0 then Some (Ibmq16.calibration ~seed ~day:(day - 1) ())
        else None
      in
      let calib, report = Calib_sanitize.sanitize ?previous raw in
      if not (Calib_sanitize.is_clean report) then begin
        print_endline "calibration sanitizer:";
        print_string (Calib_sanitize.render report);
        print_newline ()
      end;
      calib

(* File-backed calibration for local compiles: the same lenient
   raw-parse + sanitize path the daemon's epoch loading uses, so a file
   that boots nisqd compiles identically here. *)
let file_calibration ?prev path =
  let parse p =
    match Calib_io.load_raw ~path:p with
    | Ok raw -> raw
    | Error { Calib_io.line; message } -> die_parse p line message
  in
  let previous =
    Option.map (fun p -> fst (Calib_sanitize.sanitize (parse p))) prev
  in
  match Calib_sanitize.sanitize ?previous (parse path) with
  | calib, report ->
      if not (Calib_sanitize.is_clean report) then begin
        print_endline "calibration sanitizer:";
        print_string (Calib_sanitize.render report);
        print_newline ()
      end;
      calib
  | exception Invalid_argument msg -> die_parse path 0 msg

let local_calibration ?calib_file ?calib_prev ~seed ~day () =
  match calib_file with
  | Some path -> file_calibration ?prev:calib_prev path
  | None ->
      if Option.is_some calib_prev then begin
        Printf.eprintf "nisqc: --calib-prev needs --calib\n";
        exit 2
      end;
      effective_calibration ~seed ~day ()

let reject_remote_calib calib_file calib_prev =
  if Option.is_some calib_file || Option.is_some calib_prev then begin
    Printf.eprintf
      "nisqc: --calib/--calib-prev are local-only; a daemon serves its own \
       --calib file\n";
    exit 2
  end

(* ------------------------- daemon client --------------------------- *)

let connect_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"SOCK"
        ~doc:
          "Route the request through a running $(b,nisqd) listening on            the Unix socket $(docv) instead of compiling in-process, and            print the daemon's JSON reply payload. Retries with capped            exponential backoff, honoring the server's            $(b,retry_after_ms) hint when it sheds load. Exit codes: 4 on            a non-retryable server error, 5 when the daemon stays            unavailable.")

(* Benchmark names travel by name; OpenQASM files travel as source.
   mini-Scaffold needs the local frontend, so it stays local. *)
let remote_program program =
  if Sys.file_exists program then begin
    if Filename.check_suffix program ".scaf" then begin
      Printf.eprintf
        "nisqc: --connect does not support .scaf files; compile locally\n";
      exit 2
    end;
    let ic = open_in program in
    let len = in_channel_length ic in
    let src = really_input_string ic len in
    close_in ic;
    Serve_protocol.Qasm src
  end
  else Serve_protocol.Named program

let remote_call ~socket ?deadline verb =
  let deadline_ms =
    Option.map (fun s -> max 1 (int_of_float (s *. 1000.0))) deadline
  in
  let req = { Serve_protocol.id = 1; deadline_ms; verb } in
  match Serve_client.call_with_retry ~socket req with
  | Ok payload ->
      print_endline (Obs_json.to_string payload);
      Telemetry.finish ()
  | Error (Serve_client.Remote { code; message }) ->
      Printf.eprintf "nisqc: server error [%s]: %s\n" code message;
      exit 4
  | Error (Serve_client.Unavailable msg) ->
      Printf.eprintf "nisqc: daemon unavailable: %s\n" msg;
      exit 5

let config_of ?(movement = Config.Swap_back) method_ routing =
  match routing with
  | Some r -> Config.make ~routing:r ~movement method_
  | None -> Config.make ~movement method_

let describe_result name (r : Compile.t) =
  Printf.printf "program     : %s (%d qubits, %d gates, %d CNOTs)\n" name
    r.Compile.program.Circuit.num_qubits
    (Circuit.gate_count r.Compile.program)
    (Circuit.cnot_count r.Compile.program);
  Printf.printf "config      : %s\n" (Config.name r.Compile.config);
  Printf.printf "day         : %d\n" r.Compile.calib.Calibration.day;
  Printf.printf "swaps       : %d\n" r.Compile.swap_count;
  Printf.printf "duration    : %d timeslots (%.2f us)\n" r.Compile.duration
    (Float.of_int r.Compile.duration *. Calibration.timeslot_ns /. 1000.0);
  Printf.printf "ESP         : %.4f\n" r.Compile.esp;
  Printf.printf "compile time: %.4f s\n" r.Compile.compile_seconds;
  (match r.Compile.solver_stats with
  | Some s ->
      Printf.printf "solver      : %d nodes, %s%s\n" s.Budget.nodes_visited
        (if s.Budget.proven_optimal then "proven optimal" else "budget-truncated")
        (if s.Budget.degraded then ", DEGRADED (budget blown)" else "")
  | None -> ());
  (match r.Compile.rung with
  | Some Compile.Rung_full | None -> ()
  | Some rung ->
      Printf.printf "fallback    : %s rung of the solver ladder\n"
        (Compile.rung_name rung));
  Printf.printf "\nmapping (program qubits on the device grid):\n%s\n"
    (Layout.render Ibmq16.topology ~calib:r.Compile.calib r.Compile.layout)

(* ------------------------------ compile ---------------------------- *)

let compile_cmd =
  let run program method_ routing movement day seed emit_qasm diagram trace
      metrics events prom report inject deadline connect
      calib_file calib_prev =
    setup_telemetry ?inject ?events ?prom ?report trace metrics;
    match connect with
    | Some socket ->
        reject_remote_calib calib_file calib_prev;
        remote_call ~socket ?deadline
          (Serve_protocol.Compile
             {
               program = remote_program program;
               method_;
               routing;
               movement;
               day;
               calib_seed = seed;
               emit_qasm;
             })
    | None ->
    with_cancellation deadline @@ fun () ->
    let name, circuit, _ = load_program program in
    let calib = local_calibration ?calib_file ?calib_prev ~seed ~day () in
    if diagram then begin
      print_endline "source circuit:";
      print_string (Nisq_circuit.Draw.render circuit);
      print_newline ()
    end;
    let r = Compile.run ~config:(config_of ~movement method_ routing) ~calib circuit in
    describe_result name r;
    if emit_qasm then begin
      print_endline "compiled OpenQASM:";
      print_string (Compile.to_qasm r)
    end;
    (match (report, r.Compile.report) with
    | Some path, Some rep ->
        Obs_json.to_file ~path (Report.to_json rep);
        Printf.eprintf "explain report written to %s\n%!" path
    | _ -> ());
    Telemetry.finish ()
  in
  let qasm_arg =
    Arg.(value & flag & info [ "emit-qasm" ] ~doc:"Print the compiled OpenQASM.")
  in
  let diagram_arg =
    Arg.(value & flag & info [ "diagram" ] ~doc:"Print an ASCII circuit diagram.")
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Map a program onto the machine")
    Term.(
      const run $ program_arg $ method_arg $ routing_arg $ movement_arg
      $ day_arg $ seed_arg $ qasm_arg $ diagram_arg $ trace_arg $ metrics_arg
      $ events_arg $ prom_arg $ report_arg $ inject_arg $ deadline_arg
      $ connect_arg $ calib_file_arg $ calib_prev_arg)

(* -------------------------------- run ------------------------------ *)

let run_cmd =
  let run program method_ routing movement day seed trials sim_seed trace
      metrics events prom inject deadline run_id resume force connect
      calib_file calib_prev =
    setup_telemetry ?inject ?events ?prom trace metrics;
    (match connect with
    | Some socket ->
        reject_remote_calib calib_file calib_prev;
        remote_call ~socket ?deadline
          (Serve_protocol.Run
             {
               compile =
                 {
                   program = remote_program program;
                   method_;
                   routing;
                   movement;
                   day;
                   calib_seed = seed;
                   emit_qasm = false;
                 };
               trials;
               sim_seed;
             });
        exit 0
    | None -> ());
    (* The summary's chunk-latency percentiles read the sim histogram,
       so the registry collects during `run` regardless of --metrics. *)
    Obs_metrics.set_enabled true;
    let identity =
      Obs_json.Obj
        [
          ("harness", Obs_json.String "nisqc run");
          ("program", Obs_json.String program);
          ("method", Obs_json.String (Config.name (config_of method_ routing)));
          ("day", Obs_json.Int day);
          ("calibration_seed", Obs_json.Int seed);
          ("trials", Obs_json.Int trials);
          ("sim_seed", Obs_json.Int sim_seed);
        ]
    in
    let ledger = ledger_of ~identity ~run_id ~resume ~force in
    Option.iter Ledger.install ledger;
    with_cancellation ?ledger deadline @@ fun () ->
    let name, circuit, expected = load_program program in
    let calib = local_calibration ?calib_file ?calib_prev ~seed ~day () in
    let r = Compile.run ~config:(config_of ~movement method_ routing) ~calib circuit in
    describe_result name r;
    let runner = Experiments.runner_of r in
    let pool = Nisq_util.Pool.default () in
    let t0 = Obs_clock.now_ns () in
    (* Journalled when a ledger is active: a resumed run replays the
       cell (same digest ⇒ same value) instead of re-simulating. *)
    let success =
      Experiments.checkpointed_success_rate ~trials ~seed:sim_seed ~pool r
    in
    let wall_s = Int64.to_float (Int64.sub (Obs_clock.now_ns ()) t0) /. 1e9 in
    Printf.printf "ideal answer : %d (probability %.4f)\n"
      (Runner.ideal_answer runner)
      (Runner.ideal_answer_probability runner);
    (match expected with
    | Some e ->
        Printf.printf "expected     : %d (%s)\n" e
          (if e = Runner.ideal_answer runner then "matches" else "MISMATCH")
    | None -> ());
    Printf.printf "success rate : %.4f over %d trials\n" success trials;
    (* Pool-size-independent summary: throughput plus chunk-latency
       percentiles from the sim histogram — the worker count lives in
       the metrics/trace output, not here. *)
    Printf.printf "sim wall     : %.3f s (%.0f trials/s)\n" wall_s
      (Float.of_int trials /. Float.max wall_s 1e-9);
    let h = Obs_metrics.histogram "sim.chunk_latency_ns" in
    let chunks = Obs_metrics.histogram_count h in
    if chunks > 0 then begin
      let q p = Obs_metrics.quantile h p /. 1e6 in
      Printf.printf
        "chunk latency: p50 %.2f ms, p95 %.2f ms, p99 %.2f ms (%d chunks)\n"
        (q 0.5) (q 0.95) (q 0.99) chunks
    end;
    (* Fast-path routing: how many noisy trials the exact stabilizer
       backend took vs the dense fallback, with per-backend chunk
       latencies — the evidence that the Clifford tier engaged (ideal
       no-fault trials skip both backends and appear in neither). *)
    let hits = Obs_metrics.value (Obs_metrics.counter "sim.clifford.hit") in
    let falls =
      Obs_metrics.value (Obs_metrics.counter "sim.clifford.fallback")
    in
    if hits + falls > 0 then begin
      Printf.printf
        "sim backends : %d tableau trials, %d dense trials (job %s)\n" hits
        falls
        (if Runner.clifford_capable runner then "clifford"
         else "non-clifford");
      List.iter
        (fun (label, name) ->
          let h = Obs_metrics.histogram name in
          let n = Obs_metrics.histogram_count h in
          if n > 0 then begin
            let q p = Obs_metrics.quantile h p /. 1e6 in
            Printf.printf
              "  %-7s    : p50 %.2f ms, p95 %.2f ms, p99 %.2f ms (%d chunks)\n"
              label (q 0.5) (q 0.95) (q 0.99) n
          end)
        [
          ("tableau", "sim.chunk_latency_tableau_ns");
          ("dense", "sim.chunk_latency_dense_ns");
        ]
    end;
    Telemetry.finish ()
  in
  let trials_arg =
    Arg.(value & opt int 4096
         & info [ "t"; "trials" ] ~docv:"N" ~doc:"Number of noisy trials.")
  in
  let sim_seed_arg =
    Arg.(value & opt int 424242
         & info [ "sim-seed" ] ~docv:"SEED" ~doc:"Simulation seed.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Compile then simulate noisy execution")
    Term.(
      const run $ program_arg $ method_arg $ routing_arg $ movement_arg
      $ day_arg $ seed_arg $ trials_arg $ sim_seed_arg $ trace_arg
      $ metrics_arg $ events_arg $ prom_arg $ inject_arg $ deadline_arg
      $ run_id_arg $ resume_arg $ resume_force_arg $ connect_arg
      $ calib_file_arg $ calib_prev_arg)

(* ---------------------------- calibration -------------------------- *)

let calibration_cmd =
  let run day seed save load =
    let calib =
      match load with
      | Some path -> (
          (* Lenient load: structural errors are fatal, but bad field
             values are repaired/quarantined by the sanitizer, with the
             repair report shown. *)
          match Calib_io.load_raw ~path with
          | Error { Calib_io.line; message } -> die_parse path line message
          | Ok raw ->
              let calib, report = Calib_sanitize.sanitize raw in
              if not (Calib_sanitize.is_clean report) then begin
                print_endline "sanitizer report:";
                print_string (Calib_sanitize.render report);
                print_newline ()
              end;
              calib)
      | None -> Ibmq16.calibration ~seed ~day ()
    in
    Format.printf "%a@." Calibration.pp_summary calib;
    print_newline ();
    if Nisq_device.Topology.is_grid calib.Calibration.topology then begin
      print_string
        (Layout.render calib.Calibration.topology ~calib
           (Layout.of_array
              ~num_hw:(Nisq_device.Topology.num_qubits calib.Calibration.topology)
              [||]));
      print_endline
        "(nodes: readout error %; edges: CNOT error %; all values daily)"
    end;
    match save with
    | Some path ->
        Nisq_device.Calib_io.save calib ~path;
        Printf.printf "saved calibration to %s\n" path
    | None -> ()
  in
  let save_arg =
    Arg.(value & opt (some string) None
         & info [ "save" ] ~docv:"FILE" ~doc:"Archive the calibration to a file.")
  in
  let load_arg =
    Arg.(value & opt (some string) None
         & info [ "load" ] ~docv:"FILE" ~doc:"Show an archived calibration instead.")
  in
  Cmd.v
    (Cmd.info "calibration" ~doc:"Show, archive or reload machine calibration")
    Term.(const run $ day_arg $ seed_arg $ save_arg $ load_arg)

(* -------------------------------- list ----------------------------- *)

let list_cmd =
  let run () =
    print_endline "benchmarks:";
    List.iter
      (fun b ->
        let name, q, g, c = Benchmarks.characteristics b in
        Printf.printf "  %-8s %d qubits, %2d gates, %2d CNOTs  — %s\n" name q g
          c b.Benchmarks.description)
      Benchmarks.all;
    print_endline "\nconfigurations (Table 1):";
    List.iter
      (fun c -> Printf.printf "  %s\n" (Config.name c))
      Config.paper_suite
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List built-in benchmarks and configurations")
    Term.(const run $ const ())

(* ----------------------------- experiment -------------------------- *)

let experiment_cmd =
  let run which trials =
    let out =
      match which with
      | "table2" -> Experiments.table2 ()
      | "fig1" -> Experiments.fig1 ()
      | "fig5" -> Experiments.fig5 ~trials ()
      | "fig6" -> Experiments.fig6 ~trials ()
      | "fig7" -> Experiments.fig7 ~trials ()
      | "fig8" -> Experiments.fig8 ()
      | "fig9" -> Experiments.fig9 ()
      | "fig10" -> Experiments.fig10 ~trials ()
      | "fig11" -> Experiments.fig11 ()
      | "all" -> Experiments.run_all ~trials ()
      | other -> Printf.sprintf "unknown experiment %S\n" other
    in
    print_string out
  in
  let which_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ID" ~doc:"table2, fig1, fig5..fig11, or all.")
  in
  let trials_arg =
    Arg.(value & opt int 2048
         & info [ "t"; "trials" ] ~docv:"N" ~doc:"Trials per success-rate point.")
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate a table/figure from the paper")
    Term.(const run $ which_arg $ trials_arg)

(* -------------------------------- main ----------------------------- *)

let () =
  let doc = "noise-adaptive compiler mappings for NISQ computers" in
  let info = Cmd.info "nisqc" ~version:Serve_protocol.build_id ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ compile_cmd; run_cmd; calibration_cmd; list_cmd; experiment_cmd ]))
