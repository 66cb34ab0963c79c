(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's experiment index) and runs Bechamel
   micro-benchmarks of the compile passes.

   Usage:
     main.exe                  run everything (figures + micro-benches)
     main.exe fig5 [trials]    one figure (table2, fig1, fig5..fig11)
     main.exe micro            only the Bechamel micro-benchmarks
     main.exe micro-compile [--out PATH]
                               only the compile fast-path benches; writes
                               a BENCH_compile.json baseline (default CWD)
     main.exe scale [--smoke] [--out PATH]
                               simulator weak/strong scaling sweep over
                               domains x qubits x trials; appends a dated
                               entry to BENCH_sim.json (default CWD)
     main.exe quick            figures with reduced trial counts

   Crash-safe long runs (see DESIGN.md §8):
     --run-id ID       journal results under _runs/ID/ as they complete
     --resume ID       replay _runs/ID's journal, recompute only the rest
     --resume-force    resume even if the run identity does not match
     --deadline DUR    cancel cooperatively after DUR (e.g. 30s, 5m)
   SIGINT/SIGTERM checkpoint and exit 130/143; a blown deadline exits 3. *)

module E = Nisq_bench.Experiments
module Benchmarks = Nisq_bench.Benchmarks
module Synth = Nisq_bench.Synth
module Config = Nisq_compiler.Config
module Compile = Nisq_compiler.Compile
module Calib_gen = Nisq_device.Calib_gen
module Ibmq16 = Nisq_device.Ibmq16
module Runner = Nisq_sim.Runner
module Atomic_io = Nisq_runkit.Atomic_io
module Deadline = Nisq_runkit.Deadline
module Run = Nisq_runkit.Run
module Signals = Nisq_runkit.Signals

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one per table/figure compile path        *)
(* ------------------------------------------------------------------ *)

module Pool = Nisq_util.Pool
module Obs_metrics = Nisq_obs.Metrics
module Obs_trace = Nisq_obs.Trace
module Obs_json = Nisq_obs.Json

(* ------------------------------------------------------------------ *)
(* Per-figure telemetry capture                                        *)
(*                                                                     *)
(* Each figure run gets a fresh metrics registry + span store and      *)
(* leaves a machine-readable summary in _telemetry/<id>.telemetry.json *)
(* (override the directory with NISQ_TELEMETRY_DIR).                   *)
(* ------------------------------------------------------------------ *)

let telemetry_dir () =
  Option.value (Sys.getenv_opt "NISQ_TELEMETRY_DIR") ~default:"_telemetry"

(* The telemetry summary is written in a [Fun.protect] finaliser: a
   figure aborted by a deadline, a signal or any exception still
   disables the registries and flushes what it measured — partial
   telemetry from a cancelled run is exactly what you want to inspect.
   The dump itself goes through the atomic write path in [Json.to_file]. *)
let figure_telemetry name f =
  Obs_metrics.set_enabled true;
  Obs_trace.set_enabled true;
  Obs_metrics.reset ();
  Obs_trace.reset ();
  Fun.protect f ~finally:(fun () ->
      let doc =
        Obs_json.Obj
          [
            ("figure", Obs_json.String name);
            ("metrics", Obs_metrics.dump_json ());
            ("spans", Obs_trace.summary_json ());
          ]
      in
      Obs_metrics.set_enabled false;
      Obs_trace.set_enabled false;
      let dir = telemetry_dir () in
      Atomic_io.mkdir_p dir;
      let path = Filename.concat dir (name ^ ".telemetry.json") in
      Obs_json.to_file ~path doc;
      Printf.eprintf "[nisq-bench] telemetry written to %s\n%!" path)

(* Shared Bechamel driver: measure a test tree, return sorted
   (name, ns/run) rows. *)
let measure ~quota tests =
  let open Bechamel in
  let open Toolkit in
  let cfg =
    Benchmark.cfg ~limit:2000 ~stabilize:false ~quota:(Time.second quota) ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      let ns =
        match Analyze.OLS.estimates ols with
        | Some (t :: _) -> t
        | _ -> Float.nan
      in
      (name, ns) :: acc)
    results []
  |> List.sort compare

let print_rows rows =
  List.iter
    (fun (name, ns) ->
      if ns >= 1_000_000.0 then
        Printf.printf "%-40s %10.3f ms/run\n" name (ns /. 1_000_000.0)
      else if ns >= 1_000.0 then
        Printf.printf "%-40s %10.3f us/run\n" name (ns /. 1_000.0)
      else Printf.printf "%-40s %10.1f ns/run\n" name ns)
    rows

(* The compile fast-path micro-benchmarks: the placement DFS inner loop,
   the all-pairs routing solve a cold cache pays once per calibration,
   and a small figure-cell sweep over the domain pool (warm route cache,
   cells fanned out). [micro-compile] runs only these, with a short
   quota, and writes the machine-readable baseline BENCH_compile.json
   that tools/jsonlint --bench checks in CI. *)
let compile_path_tests () =
  let open Bechamel in
  let calib = Ibmq16.calibration ~day:0 () in
  let bv4 = Benchmarks.by_name "BV4" in
  let adder = Benchmarks.by_name "Adder" in
  let topo64 = Synth.grid_for ~qubits:64 in
  let calib64 = Calib_gen.generate ~topology:topo64 ~seed:11 ~day:0 () in
  let paths = Nisq_device.Paths.make calib in
  let problem =
    Nisq_compiler.Reliability.placement_problem paths ~omega:0.5
      ~policy:Config.One_bend adder.Benchmarks.circuit
  in
  let bv8 = Benchmarks.by_name "BV8" in
  let forbid slot = not (Nisq_device.Calibration.qubit_live calib slot) in
  let problem_bv8 =
    Nisq_compiler.Reliability.placement_problem paths ~omega:0.5
      ~policy:Config.One_bend bv8.Benchmarks.circuit
  in
  let stage f = Staged.stage f in
  [
    Test.make ~name:"solver:placement-dfs"
      (stage (fun () -> Nisq_solver.Placement.solve problem));
    Test.make ~name:"solver:placement-dfs-bv8"
      (stage (fun () -> Nisq_solver.Placement.solve ~forbid problem_bv8));
    Test.make ~name:"paths:all-pairs"
      (stage (fun () -> Nisq_device.Paths.make calib64));
    Test.make ~name:"bench:figure-cells"
      (stage (fun () ->
           E.map_cells
             (List.concat_map
                (fun b ->
                  List.map
                    (fun config () ->
                      (E.evaluate ~trials:64 ~config ~calib b).E.success)
                    [
                      Config.make Config.T_smt_star;
                      Config.make (Config.R_smt_star 0.5);
                    ])
                [ bv4; adder ])));
  ]

let today_utc () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday

(* Prior trajectory entries of an existing baseline at [path] carrying
   the given [schema]: a matching trajectory file contributes its
   entries as-is, a legacy compile/1 file becomes a single entry dated
   "legacy", anything unreadable starts the trajectory over (with a
   note — growth must never make `make bench-compile` fail). *)
let read_trajectory ~schema path =
  if not (Sys.file_exists path) then []
  else
    let parsed =
      try Obs_json.of_string (In_channel.with_open_text path In_channel.input_all)
      with Sys_error msg -> Error msg
    in
    match parsed with
    | Error msg ->
        Printf.eprintf "[nisq-bench] %s unreadable (%s); starting a fresh trajectory\n%!"
          path msg;
        []
    | Ok v -> (
        match (Obs_json.member "schema" v, Obs_json.member "trajectory" v) with
        | Some (Obs_json.String s), Some (Obs_json.List entries) when s = schema
          ->
            entries
        | Some (Obs_json.String "nisq-bench-compile/1"), _
          when schema = "nisq-bench-compile/2" -> (
            match Obs_json.member "benchmarks" v with
            | Some benchmarks ->
                [
                  Obs_json.Obj
                    [
                      ("date", Obs_json.String "legacy");
                      ("benchmarks", benchmarks);
                    ];
                ]
            | None -> [])
        | _ ->
            Printf.eprintf
              "[nisq-bench] %s has an unknown schema; starting a fresh trajectory\n%!"
              path;
            [])

(* Append today's entry to the trajectory at [out]; a same-day rerun
   replaces its previous entry so repeated local runs stay idempotent. *)
let append_trajectory ~schema ~out benchmarks =
  let today = today_utc () in
  let entry =
    Obs_json.Obj
      [ ("date", Obs_json.String today); ("benchmarks", benchmarks) ]
  in
  let prior =
    List.filter
      (fun e ->
        match Obs_json.member "date" e with
        | Some (Obs_json.String d) -> d <> today
        | _ -> true)
      (read_trajectory ~schema out)
  in
  let doc =
    Obs_json.Obj
      [
        ("schema", Obs_json.String schema);
        ("trajectory", Obs_json.List (prior @ [ entry ]));
      ]
  in
  Obs_json.to_file ~path:out doc;
  List.length prior + 1

let micro_compile ~out () =
  let open Bechamel in
  Obs_metrics.set_enabled false;
  Obs_trace.set_enabled false;
  let tests =
    Test.make_grouped ~name:"nisq" ~fmt:"%s/%s" (compile_path_tests ())
  in
  let rows = measure ~quota:0.25 tests in
  print_endline "=== Bechamel micro-benchmarks: compile fast path ===";
  print_rows rows;
  let benchmarks =
    Obs_json.List
      (List.map
         (fun (name, ns) ->
           (* a pathological estimate must not turn into JSON null *)
           let ns = if Float.is_finite ns then ns else 0.0 in
           Obs_json.Obj
             [
               ("name", Obs_json.String name);
               ("ns_per_run", Obs_json.Float ns);
             ])
         rows)
  in
  let entries =
    append_trajectory ~schema:"nisq-bench-compile/2" ~out benchmarks
  in
  Printf.eprintf "[nisq-bench] compile baseline appended to %s (%d entries)\n%!"
    out entries

(* ------------------------------------------------------------------ *)
(* scale: the simulator weak/strong scaling sweep (make bench-scale)   *)
(* ------------------------------------------------------------------ *)

(* GHZ chain over [qubits]: H then a CNOT ladder — pure Clifford, so
   the stabilizer fast path owns every noisy trial. [poison] inserts a
   single T gate, which disqualifies the whole job and routes every
   trial to the dense backend: the pair measures both simulator tiers
   over the same topology and noise model. *)
let scale_runner ~calib ~qubits ~poison =
  let module B = Nisq_circuit.Circuit.Builder in
  let b =
    B.create
      ~name:(Printf.sprintf "GHZ%d%s" qubits (if poison then "t" else ""))
      qubits
  in
  B.h b 0;
  for q = 1 to qubits - 1 do
    B.cnot b (q - 1) q
  done;
  if poison then B.t_gate b 0;
  B.measure_all b;
  E.runner_of
    (Compile.run ~config:(Config.make Config.Greedy_e) ~calib (B.build b))

let scale ~out ~smoke () =
  Obs_metrics.set_enabled false;
  Obs_trace.set_enabled false;
  let strong_trials = if smoke then 256 else 4096 in
  let weak_base = if smoke then 128 else 1024 in
  let qubit_counts = if smoke then [ 4; 6 ] else [ 4; 8; 12 ] in
  (* The committed sweep always covers the same pool sizes so every
     trajectory entry carries one benchmark-name set; the CI smoke
     instead probes the single size NISQ_DOMAINS selected for its job
     (and writes to a scratch file the gate never reads). *)
  let pool_sizes =
    if smoke then [ Pool.size (Pool.default ()) ] else [ 0; 1; 4 ]
  in
  let seed = 7 in
  let calib = Ibmq16.calibration ~day:0 () in
  let rows = ref [] in
  let push name ns extras = rows := (name, ns, extras) :: !rows in
  (* Wall clock over one full success_rate call. The minor-GC word
     delta only counts this domain's allocation, so it is published
     solely for d0 rows, where every chunk runs right here. *)
  let timed ~size ~trials runner =
    let pool = Pool.create ~size () in
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
    (* one small untimed run first: pool spin-up, scratch-arena
       creation and lazy code paths must not bill the first row *)
    let (_ : float) = Runner.success_rate ~trials:64 ~pool ~seed runner in
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let (_ : float) = Runner.success_rate ~trials ~pool ~seed runner in
    let dt = Unix.gettimeofday () -. t0 in
    (dt, Gc.minor_words () -. w0)
  in
  let record ~name ~qubits ~domains ~mode ~trials (dt, words) =
    let ns = dt *. 1e9 /. float_of_int trials in
    let extras =
      [
        ("trials_per_sec", Obs_json.Float (float_of_int trials /. dt));
        ("qubits", Obs_json.Int qubits);
        ("domains", Obs_json.Int domains);
        ("mode", Obs_json.String mode);
        ("trials", Obs_json.Int trials);
      ]
      @
      if domains = 0 then
        [
          ( "minor_words_per_trial",
            Obs_json.Float (words /. float_of_int trials) );
        ]
      else []
    in
    push name ns extras
  in
  List.iter
    (fun qubits ->
      let clifford = scale_runner ~calib ~qubits ~poison:false in
      let dense = scale_runner ~calib ~qubits ~poison:true in
      List.iter
        (fun d ->
          (* strong scaling: fixed total work, growing pool *)
          record
            ~name:(Printf.sprintf "scale:ghz%d:d%d:strong" qubits d)
            ~qubits ~domains:d ~mode:"strong" ~trials:strong_trials
            (timed ~size:d ~trials:strong_trials clifford);
          (* weak scaling: work grows with the pool *)
          let wt = weak_base * max 1 d in
          record
            ~name:(Printf.sprintf "scale:ghz%d:d%d:weak" qubits d)
            ~qubits ~domains:d ~mode:"weak" ~trials:wt
            (timed ~size:d ~trials:wt clifford))
        pool_sizes;
      (* The fast-off reference: identical job, stabilizer path forced
         off — the committed before/after evidence for the Clifford
         tier (results stay bit-identical either way). *)
      Runner.set_stabilizer_enabled (Some false);
      Fun.protect
        ~finally:(fun () -> Runner.set_stabilizer_enabled None)
        (fun () ->
          record
            ~name:(Printf.sprintf "scale:ghz%d:d0:fastoff" qubits)
            ~qubits ~domains:0 ~mode:"fastoff" ~trials:strong_trials
            (timed ~size:0 ~trials:strong_trials clifford));
      (* The T-poisoned twin exercises the dense Bigarray kernels via
         the per-job fallback. *)
      record
        ~name:(Printf.sprintf "scale:ghzt%d:d0:strong" qubits)
        ~qubits ~domains:0 ~mode:"dense" ~trials:strong_trials
        (timed ~size:0 ~trials:strong_trials dense))
    qubit_counts;
  let rows = List.rev !rows in
  print_endline "=== simulator scaling sweep (wall clock) ===";
  print_rows (List.map (fun (n, ns, _) -> (n, ns)) rows);
  List.iter
    (fun qubits ->
      let find suffix =
        List.find_map
          (fun (n, ns, _) ->
            if n = Printf.sprintf "scale:ghz%d:%s" qubits suffix then Some ns
            else None)
          rows
      in
      match (find "d0:strong", find "d0:fastoff") with
      | Some fast, Some off when fast > 0.0 ->
          Printf.printf
            "ghz%-2d stabilizer speedup: %4.1fx (%.0f -> %.0f ns/trial)\n"
            qubits (off /. fast) off fast
      | _ -> ())
    qubit_counts;
  let benchmarks =
    Obs_json.List
      (List.map
         (fun (name, ns, extras) ->
           let ns = if Float.is_finite ns then ns else 0.0 in
           Obs_json.Obj
             (("name", Obs_json.String name)
             :: ("ns_per_run", Obs_json.Float ns)
             :: extras))
         rows)
  in
  let entries = append_trajectory ~schema:"nisq-bench-sim/1" ~out benchmarks in
  Printf.eprintf
    "[nisq-bench] sim scaling baseline appended to %s (%d entries)\n%!" out
    entries

let micro () =
  let open Bechamel in
  (* The obs:* benchmarks quantify the DISABLED telemetry path; make the
     state explicit so a preceding figure run cannot leak an enabled
     registry into the measurements. *)
  Obs_metrics.set_enabled false;
  Obs_trace.set_enabled false;
  Nisq_obs.Events.set_enabled false;
  let obs_counter = Obs_metrics.counter "bench.obs.counter" in
  let pool = Pool.default () in
  let calib = Ibmq16.calibration ~day:0 () in
  let bv4 = (Benchmarks.by_name "BV4").Benchmarks.circuit in
  let toffoli = (Benchmarks.by_name "Toffoli").Benchmarks.circuit in
  let adder = (Benchmarks.by_name "Adder").Benchmarks.circuit in
  let rand64 = Synth.random_circuit ~qubits:64 ~gates:512 ~seed:11 () in
  let topo64 = Synth.grid_for ~qubits:64 in
  let calib64 = Calib_gen.generate ~topology:topo64 ~seed:11 ~day:0 () in
  let compiled_bv4 =
    Compile.run ~config:(Config.make (Config.R_smt_star 0.5)) ~calib bv4
  in
  let runner = E.runner_of compiled_bv4 in
  let stage f = Staged.stage f in
  let tests =
    Test.make_grouped ~name:"nisq" ~fmt:"%s/%s"
      ([
        Test.make ~name:"table2:build-suite"
          (stage (fun () -> List.length Benchmarks.all));
        Test.make ~name:"fig1:one-day-calibration"
          (stage (fun () -> Ibmq16.calibration ~day:3 ()));
        Test.make ~name:"fig5:rsmt-compile-bv4"
          (stage (fun () ->
               Compile.run ~config:(Config.make (Config.R_smt_star 0.5)) ~calib bv4));
        Test.make ~name:"fig6:rsmt-compile-toffoli"
          (stage (fun () ->
               Compile.run ~config:(Config.make (Config.R_smt_star 0.5)) ~calib
                 toffoli));
        Test.make ~name:"fig7:tsmt-star-compile-toffoli"
          (stage (fun () ->
               Compile.run ~config:(Config.make Config.T_smt_star) ~calib toffoli));
        Test.make ~name:"fig8:qiskit-compile-bv4"
          (stage (fun () ->
               Compile.run ~config:(Config.make Config.Qiskit) ~calib bv4));
        Test.make ~name:"fig9:tsmt-rr-compile-adder"
          (stage (fun () ->
               Compile.run
                 ~config:(Config.make ~routing:Config.Rectangle_reservation Config.T_smt)
                 ~calib adder));
        Test.make ~name:"fig10:greedy-e-compile-adder"
          (stage (fun () ->
               Compile.run ~config:(Config.make Config.Greedy_e) ~calib adder));
        Test.make ~name:"fig11:greedy-e-compile-64q"
          (stage (fun () ->
               Compile.run ~config:(Config.make Config.Greedy_e) ~calib:calib64
                 rand64));
        Test.make ~name:"sim:one-noisy-trial-bv4"
          (stage
             (let rng = Nisq_util.Rng.create 1 in
              fun () -> Runner.run_trial runner rng));
        (* trial-loop throughput: the domain-pool path vs the sequential
           reference, same seed, bit-identical results *)
        Test.make ~name:"sim:success-rate-256"
          (stage (fun () -> Runner.success_rate ~trials:256 ~pool ~seed:1 runner));
        Test.make ~name:"sim:success-rate-256-seq"
          (stage (fun () -> Runner.success_rate_seq ~trials:256 ~seed:1 runner));
        (* disabled-telemetry overhead: these three should be within
           noise of each other (see EXPERIMENTS.md) *)
        Test.make ~name:"obs:noop"
          (stage (fun () -> Sys.opaque_identity 0));
        Test.make ~name:"obs:span-overhead"
          (stage (fun () ->
               Obs_trace.with_span "bench" (fun () -> Sys.opaque_identity 0)));
        Test.make ~name:"obs:counter-incr"
          (stage (fun () -> Obs_metrics.incr obs_counter));
        Test.make ~name:"obs:event-disabled"
          (stage (fun () ->
               Nisq_obs.Events.emit ~domain:"bench" Nisq_obs.Events.Debug
                 "tick"));
      ]
      @ compile_path_tests ())
  in
  let rows = measure ~quota:0.5 tests in
  print_endline "=== Bechamel micro-benchmarks (monotonic clock) ===";
  print_rows rows;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Run lifecycle: argument parsing, checkpointed dispatch, shutdown     *)
(* ------------------------------------------------------------------ *)

type options = {
  target : string;
  trials : int;
  resume : string option;
  force : bool;
  run_id : string option;
  deadline : float option;
  out : string option;
  smoke : bool;
}

let usage () =
  Printf.eprintf
    "usage: main.exe [TARGET] [TRIALS] [--run-id ID] [--resume ID] \
     [--resume-force] [--deadline DUR] [--out PATH] [--smoke]\n\
     TARGET: table2|fig1|fig5..fig11|ablations|micro|micro-compile|scale|quick|all\n";
  exit 2

let parse_args () =
  let positional = ref [] in
  let resume = ref None and force = ref false in
  let run_id = ref None and deadline = ref None in
  let out = ref None in
  let smoke = ref false in
  let rec go = function
    | [] -> ()
    | "--resume" :: v :: rest ->
        resume := Some v;
        go rest
    | "--resume-force" :: rest ->
        force := true;
        go rest
    | "--smoke" :: rest ->
        smoke := true;
        go rest
    | "--run-id" :: v :: rest ->
        run_id := Some v;
        go rest
    | "--out" :: v :: rest ->
        out := Some v;
        go rest
    | "--deadline" :: v :: rest ->
        (match Deadline.parse_duration v with
        | Ok s -> deadline := Some s
        | Error msg ->
            Printf.eprintf "main.exe: bad --deadline %S: %s\n" v msg;
            exit 2);
        go rest
    | ("--resume" | "--run-id" | "--deadline" | "--out") :: [] ->
        Printf.eprintf "main.exe: missing value for the last flag\n";
        exit 2
    | arg :: _ when String.length arg > 2 && String.sub arg 0 2 = "--" ->
        Printf.eprintf "main.exe: unknown flag %s\n" arg;
        usage ()
    | arg :: rest ->
        positional := arg :: !positional;
        go rest
  in
  go (List.tl (Array.to_list Sys.argv));
  let target, trials =
    match List.rev !positional with
    | [] -> ("all", 2048)
    | [ t ] -> (t, 2048)
    | [ t; n ] -> (
        match int_of_string_opt n with
        | Some n when n > 0 -> (t, n)
        | _ ->
            Printf.eprintf "main.exe: TRIALS must be a positive integer\n";
            exit 2)
    | _ -> usage ()
  in
  { target; trials; resume = !resume; force = !force; run_id = !run_id;
    deadline = !deadline; out = !out; smoke = !smoke }

(* The figures of the composite targets, in print order. Splitting
   [run_all] per figure is what gives resume its granularity: a
   completed figure replays from its saved table, an unfinished one
   recomputes only the cells missing from the journal. *)
let figure_specs ~trials ~quick : (string * (unit -> string)) list =
  [
    ("table2", fun () -> E.table2 ());
    ("fig1", fun () -> E.fig1 ());
    ("fig5", fun () -> E.fig5 ~trials ());
    ("fig6", fun () -> E.fig6 ~trials ());
    ("fig7", fun () -> E.fig7 ~trials ());
    ("fig8", fun () -> E.fig8 ());
    ("fig9", fun () -> E.fig9 ());
    ("fig10", fun () -> E.fig10 ~trials ());
    ("fig11", fun () -> E.fig11 ~quick ());
    ("ablation_movement", fun () -> E.ablation_movement ~trials ());
    ("ablation_topology", fun () -> E.ablation_topology ~trials ());
    ("ablation_trials", fun () -> E.ablation_trials ());
    ("ablation_high_variance", fun () -> E.ablation_high_variance ~trials ());
    ("ablation_architecture", fun () -> E.ablation_architecture ~trials ());
  ]

(* One figure under an optional checkpointed run: replay the saved table
   if the journal says the figure completed, otherwise compute it (its
   cells consult the journal individually) and mark it done. *)
let figure_text run name f =
  match run with
  | None -> f ()
  | Some r -> (
      match Run.figure_cached r name with
      | Some text -> text
      | None ->
          Deadline.raise_if_cancelled ();
          let text = f () in
          Run.figure_done r name text;
          text)

let dispatch opts run =
  let trials = opts.trials in
  let single name f = print_string (figure_telemetry name (fun () -> figure_text run name f)) in
  let composite name specs =
    figure_telemetry name (fun () ->
        List.iter
          (fun (fname, f) ->
            print_string (figure_text run fname f);
            print_newline ())
          specs)
  in
  match opts.target with
  | "table2" -> single "table2" (fun () -> E.table2 ())
  | "fig1" -> single "fig1" (fun () -> E.fig1 ())
  | "fig5" -> single "fig5" (fun () -> E.fig5 ~trials ())
  | "fig6" -> single "fig6" (fun () -> E.fig6 ~trials ())
  | "fig7" -> single "fig7" (fun () -> E.fig7 ~trials ())
  | "fig8" -> single "fig8" (fun () -> E.fig8 ())
  | "fig9" -> single "fig9" (fun () -> E.fig9 ())
  | "fig10" -> single "fig10" (fun () -> E.fig10 ~trials ())
  | "fig11" -> single "fig11" (fun () -> E.fig11 ())
  | "ablations" ->
      single "ablations" (fun () ->
          String.concat ""
            [
              E.ablation_movement ~trials ();
              E.ablation_topology ~trials ();
              E.ablation_trials ();
              E.ablation_high_variance ~trials ();
              E.ablation_architecture ~trials ();
            ])
  | "micro" -> micro ()
  | "micro-compile" ->
      micro_compile
        ~out:(Option.value opts.out ~default:"BENCH_compile.json")
        ()
  | "scale" ->
      scale
        ~out:(Option.value opts.out ~default:"BENCH_sim.json")
        ~smoke:opts.smoke ()
  | "quick" ->
      composite "quick" (figure_specs ~trials:512 ~quick:true);
      micro ()
  | "all" ->
      composite "all" (figure_specs ~trials ~quick:false);
      micro ()
  | other ->
      Printf.eprintf
        "unknown argument %S (want \
         table2|fig1|fig5..fig11|ablations|micro|micro-compile|scale|quick|all)\n"
        other;
      exit 2

let () =
  let opts = parse_args () in
  Nisq_obs.Telemetry.set_sink Atomic_io.write_file;
  Nisq_obs.Telemetry.init_from_env ();
  Nisq_faultkit.Faultkit.init_from_env ();
  Deadline.init_from_env ();
  Option.iter Deadline.arm_seconds opts.deadline;
  Signals.install ();
  (* Every figure's Monte-Carlo trials run on the shared domain pool;
     results are bit-identical for any worker count (NISQ_DOMAINS). *)
  Printf.eprintf "[nisq-bench] domain pool: %d workers (NISQ_DOMAINS=%s)\n%!"
    (Pool.size (Pool.default ()))
    (Option.value ~default:"unset" (Sys.getenv_opt "NISQ_DOMAINS"));
  (* The run identity ties a journal to what was asked of the binary;
     resuming under different arguments would splice answers to a
     different question into the tables, so it is refused (unless
     forced). Cell digests additionally pin seed, calibration and the
     compiled circuit, so even a forced resume only ever replays cells
     that are exactly equal. *)
  let identity =
    Obs_json.Obj
      [
        ("harness", Obs_json.String "bench/main");
        ("target", Obs_json.String opts.target);
        ("trials", Obs_json.Int opts.trials);
      ]
  in
  let run =
    match (opts.resume, opts.run_id) with
    | Some id, _ -> (
        match Run.resume ~run_id:id ~identity ~force:opts.force () with
        | Ok r ->
            Printf.eprintf "[nisq-bench] resuming run %s from %s\n%!" id
              (Run.dir r);
            Some r
        | Error msg ->
            Printf.eprintf "main.exe: cannot resume: %s\n" msg;
            exit 2)
    | None, Some id ->
        let r = Run.start ~run_id:id ~identity () in
        Printf.eprintf "[nisq-bench] journaling run %s under %s\n%!" id
          (Run.dir r);
        Some r
    | None, None -> None
  in
  Option.iter Run.install run;
  match dispatch opts run with
  | () ->
      Option.iter
        (fun r ->
          let cached, computed = Run.cache_stats r in
          Printf.eprintf
            "[nisq-bench] run %s completed (%d cells replayed, %d computed)\n%!"
            (Run.id r) cached computed;
          Run.finish r ~status:"completed")
        run;
      (* Flush any NISQ_EVENTS/NISQ_PROM destinations armed above. *)
      if
        Nisq_obs.Telemetry.events_path () <> None
        || Nisq_obs.Telemetry.prom_path () <> None
      then Nisq_obs.Telemetry.finish ()
  | exception Deadline.Cancelled reason ->
      let status =
        match reason with
        | Deadline.Deadline -> "degraded:deadline"
        | Deadline.Sigint -> "interrupted:sigint"
        | Deadline.Sigterm -> "interrupted:sigterm"
      in
      Option.iter
        (fun r ->
          Run.finish r ~status;
          Printf.eprintf
            "[nisq-bench] %s: partial results checkpointed in %s — resume \
             with --resume %s\n\
             %!"
            status (Run.dir r) (Run.id r))
        run;
      if run = None then
        Printf.eprintf
          "[nisq-bench] %s: no --run-id given, nothing checkpointed\n%!" status;
      exit (Deadline.exit_code reason)
