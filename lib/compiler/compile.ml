module Circuit = Nisq_circuit.Circuit
module Dag = Nisq_circuit.Dag
module Decompose = Nisq_circuit.Decompose
module Qasm = Nisq_circuit.Qasm
module Calibration = Nisq_device.Calibration
module Topology = Nisq_device.Topology
module Paths = Nisq_device.Paths
module Trace = Nisq_obs.Trace
module Metrics = Nisq_obs.Metrics
module Report = Nisq_obs.Report
module Events = Nisq_obs.Events
module Deadline = Nisq_runkit.Deadline

let m_compiles = Metrics.counter "compiler.compiles"
let m_swaps = Metrics.counter "compiler.swaps_inserted"
let m_fallback_capped = Metrics.counter "resilience.compiler.fallback_capped"
let m_fallback_greedy = Metrics.counter "resilience.compiler.fallback_greedy"
let g_esp = Metrics.gauge "compiler.esp"
let g_esp_cnot = Metrics.gauge "compiler.esp.cnot"
let g_esp_readout = Metrics.gauge "compiler.esp.readout"
let g_esp_single = Metrics.gauge "compiler.esp.single"

(* ESP split by error channel (Π of per-channel reliabilities), so the
   metrics dump shows which channel dominates the success-probability
   loss for the last compile. *)
let esp_by_channel calib (ops : Emit.phys array) =
  let module Gate = Nisq_circuit.Gate in
  let cnot = ref 1.0 and readout = ref 1.0 and single = ref 1.0 in
  Array.iter
    (fun (op : Emit.phys) ->
      match op.Emit.kind with
      | Gate.Cnot ->
          cnot :=
            !cnot *. Calibration.cnot_reliability calib op.qubits.(0) op.qubits.(1)
      | Gate.Measure ->
          readout := !readout *. Calibration.readout_reliability calib op.qubits.(0)
      | Gate.Barrier | Gate.Swap -> ()
      | Gate.H | Gate.X | Gate.Y | Gate.Z | Gate.S | Gate.Sdg | Gate.T
      | Gate.Tdg | Gate.Rz _ | Gate.Rx _ | Gate.Ry _ ->
          single :=
            !single *. (1.0 -. calib.Calibration.single_error.(op.qubits.(0))))
    ops;
  (!cnot, !readout, !single)

type rung = Rung_full | Rung_capped | Rung_greedy

let rung_name = function
  | Rung_full -> "full"
  | Rung_capped -> "node-capped"
  | Rung_greedy -> "greedy"

(* Calibration-keyed layout (solver-solution) cache. A figure sweep — and
   even more so an `all` run — re-solves identical layout instances: the
   same benchmark under the same config against the same calibration day
   shows up in fig5, fig6's day-0 column, fig10 and the ablations. The
   layout is a pure function of (decision calibration, method, routing
   policy, budget, program), so it is memoized under exactly that key:
   the calibration digest plus a salt hashing the rest. Movement is
   deliberately NOT in the key — it changes routing downstream, never the
   layout — so move-and-stay ablations reuse the swap-back layouts.
   Cached: the assignment plus the solver stats and ladder rung of the
   solve that produced it (replayed verbatim on a hit). Builds run
   outside the cache lock so fanned-out figure cells solving distinct
   instances never serialize. *)
let layout_memo :
    (int array * Nisq_solver.Budget.stats option * rung option)
    Nisq_device.Calib_cache.shared_memo =
  Nisq_device.Calib_cache.shared_memo "compiler.layout"

let layout_salt (config : Config.t) (program : Circuit.t) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( config.Config.method_,
            config.Config.routing,
            config.Config.budget,
            program.Circuit.name,
            program.Circuit.num_qubits,
            program.Circuit.gates )
          []))

type t = {
  config : Config.t;
  program : Circuit.t;
  calib : Calibration.t;
  layout : Layout.t;
  final_positions : int array;
  plan : Route.entry array;
  schedule : Schedule.t;
  phys : Emit.phys array;
  hw_circuit : Circuit.t;
  duration : int;
  esp : float;
  swap_count : int;
  compile_seconds : float;
  solver_stats : Nisq_solver.Budget.stats option;
  rung : rung option;
  report : Report.t option;
}

(* Second-rung budget: small enough to finish fast when the configured
   budget has already blown, node-only so the result is deterministic. *)
let fallback_budget = Nisq_solver.Budget.nodes 20_000

(* ------------------------- explain reports ------------------------- *)

let movement_name = function
  | Config.Swap_back -> "swap-back"
  | Config.Move_and_stay -> "move-and-stay"

let config_kvs (config : Config.t) =
  [
    ("name", Config.name config);
    ("routing", Config.routing_name config.Config.routing);
    ("movement", movement_name config.Config.movement);
    ("uses_calibration", string_of_bool (Config.uses_calibration config));
  ]

(* Cache provenance is attributed by counter deltas around the compile:
   the registry is armed whenever reports are, and report assembly only
   ever reads counters, so the deltas are exactly this compile's. *)
let cache_counter_snapshot () =
  if not (Report.enabled ()) then []
  else Metrics.counter_values ()

let caches_of_delta before after =
  let delta name =
    Option.value (List.assoc_opt name after) ~default:0
    - Option.value (List.assoc_opt name before) ~default:0
  in
  let table n =
    {
      Report.cache = n;
      hits = delta (Printf.sprintf "cache.%s.hit" n);
      misses = delta (Printf.sprintf "cache.%s.miss" n);
    }
  in
  { Report.cache = "total"; hits = delta "cache.hit"; misses = delta "cache.miss" }
  :: List.map table (Nisq_device.Calib_cache.registered_names ())

let solver_report solver_stats rung =
  match solver_stats with
  | None -> None
  | Some (s : Nisq_solver.Budget.stats) ->
      Some
        {
          Report.rung =
            (match rung with Some r -> rung_name r | None -> "-");
          mode = "seq";
          nodes_visited = s.Nisq_solver.Budget.nodes_visited;
          elapsed_seconds = s.Nisq_solver.Budget.elapsed_seconds;
          proven_optimal = s.Nisq_solver.Budget.proven_optimal;
          degraded = s.Nisq_solver.Budget.degraded;
          bound_hits = s.Nisq_solver.Budget.bound_hits;
        }

let criterion_of (config : Config.t) : Route.criterion =
  match config.method_ with
  | Config.Qiskit | Config.T_smt -> Route.Min_hops
  | Config.T_smt_star -> Route.Min_duration
  | Config.R_smt_star _ | Config.Greedy_v | Config.Greedy_e ->
      Route.Max_reliability

let run ~(config : Config.t) ~calib circuit =
  Trace.with_span "compile"
    ~attrs:[ ("config", Config.name config); ("program", circuit.Circuit.name) ]
  @@ fun () ->
  (* Cancellation point: don't start a compile the run layer is already
     tearing down. *)
  Deadline.raise_if_cancelled ();
  Metrics.incr m_compiles;
  let cache_before = cache_counter_snapshot () in
  let phase_log = ref [] in
  (* [measured name f] is [Trace.with_span name f] plus, when a report
     is being assembled, per-phase wall and GC accounting. *)
  let measured name f =
    if not (Report.enabled ()) then Trace.with_span name f
    else begin
      let t0 = Unix.gettimeofday () in
      let g0 = Gc.quick_stat () in
      Fun.protect
        ~finally:(fun () ->
          let g1 = Gc.quick_stat () in
          phase_log :=
            {
              Report.phase = name;
              wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0;
              minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
              major_words = g1.Gc.major_words -. g0.Gc.major_words;
            }
            :: !phase_log)
        (fun () -> Trace.with_span name f)
    end
  in
  let cache_bypassed = ref false in
  let started = Unix.gettimeofday () in
  let program = Decompose.lower_swaps circuit in
  let dag = Dag.of_circuit program in
  let topo = calib.Calibration.topology in
  if program.Circuit.num_qubits > Topology.num_qubits topo then
    invalid_arg "Compile.run: program needs more qubits than the machine has";
  if program.Circuit.num_qubits > Calibration.num_live calib then
    invalid_arg
      (Printf.sprintf
         "Compile.run: program needs %d qubits but only %d are live \
          (quarantine)"
         program.Circuit.num_qubits (Calibration.num_live calib));
  let decision_calib =
    if Config.uses_calibration config then calib
    else
      (* Calibration-blind planning still must not place work on
         quarantined hardware: propagate the masks into the uniform view. *)
      Calibration.with_quarantine (Calibration.uniform topo)
        ~qubit_ok:calib.Calibration.qubit_ok ~link_ok:calib.Calibration.link_ok
  in
  (* Calibration-keyed cache: the ~120 compiles of a figure run share
     one all-pairs routing solve per distinct (noise, quarantine) key
     instead of re-running Dijkstra per compile. *)
  let decision_paths = Nisq_device.Calib_cache.paths decision_calib in
  let criterion = criterion_of config in
  (* Solver-backed layouts walk a fallback ladder: the configured budget
     first; if it blows, a small node-capped search (deterministic, no
     wall clock); if that blows too, the greedy heuristic closest to the
     method (§5). Each downgrade is counted. *)
  let solver_ladder solve greedy =
    let l1, s1 = solve config.Config.budget in
    if not s1.Nisq_solver.Budget.degraded then (l1, Some s1, Some Rung_full)
    else begin
      Metrics.incr m_fallback_capped;
      (* Between rungs: a budget that "blew" because the run was
         cancelled must not descend the ladder — propagate instead. *)
      Deadline.raise_if_cancelled ();
      let l2, s2 = solve fallback_budget in
      if not s2.Nisq_solver.Budget.degraded then (l2, Some s2, Some Rung_capped)
      else begin
        Metrics.incr m_fallback_greedy;
        Deadline.raise_if_cancelled ();
        (greedy (), Some s2, Some Rung_greedy)
      end
    end
  in
  (* Solver-backed layouts go through the calibration-keyed cache: one
     solve per distinct (calibration, method, routing, budget, program)
     instance per process. Bypassed under solver fault injection so an
     injected blow always exercises the live ladder instead of replaying
     a healthy cached layout. *)
  let cached_ladder solve greedy =
    if Nisq_faultkit.Faultkit.solver_blow () then begin
      cache_bypassed := true;
      Events.emit ~domain:"cache" Events.Info
        "layout cache bypassed: solver fault injection active"
        ~fields:
          [
            ("memo", "compiler.layout");
            ("program", program.Circuit.name);
            ("config", Config.name config);
          ];
      solver_ladder solve greedy
    end
    else
      let assignment, stats, rung =
        Nisq_device.Calib_cache.find_shared layout_memo
          ~salt:(layout_salt config program) decision_calib
          ~compute:(fun () ->
            let layout, stats, rung = solver_ladder solve greedy in
            (Layout.to_array layout, stats, rung))
      in
      ( Layout.of_array ~num_hw:(Topology.num_qubits topo) assignment,
        stats,
        rung )
  in
  let layout, solver_stats, rung =
    measured "layout" @@ fun () ->
    match config.method_ with
    | Config.Qiskit ->
        ( Layout.identity ~num_prog:program.Circuit.num_qubits
            ~num_hw:(Topology.num_qubits topo),
          None,
          None )
    | Config.T_smt | Config.T_smt_star ->
        cached_ladder
          (fun budget ->
            Tsmt.compile_layout ~decision_paths ~policy:config.routing
              ~criterion ~budget program dag)
          (fun () -> Greedy.vertex_first decision_paths program)
    | Config.R_smt_star omega ->
        cached_ladder
          (fun budget ->
            let layout, stats, _objective =
              Rsmt.compile_layout ~decision_paths ~omega ~policy:config.routing
                ~budget program
            in
            (layout, stats))
          (fun () -> Greedy.edge_first decision_paths program)
    | Config.Greedy_v ->
        (Greedy.vertex_first decision_paths program, None, None)
    | Config.Greedy_e -> (Greedy.edge_first decision_paths program, None, None)
  in
  let num_hw = Topology.num_qubits topo in
  let eval_paths_blind () =
    if Config.uses_calibration config then decision_paths
    else Nisq_device.Calib_cache.paths calib
  in
  let scheduled_circuit, plan, final_positions, swap_count, compile_seconds =
    measured "route" @@ fun () ->
    match config.Config.movement with
    | Config.Swap_back ->
        (* The paper's static model: plan over the program circuit, SWAPs
           implicit in each CNOT's route, placement invariant. *)
        let decision_plan =
          Route.plan decision_paths ~policy:config.routing ~criterion ~layout
            program
        in
        let compile_seconds = Unix.gettimeofday () -. started in
        (* Evaluation against the real machine: reprice the committed
           routing decisions with the day's calibration. *)
        let plan = Route.reprice (eval_paths_blind ()) decision_plan in
        ( program,
          plan,
          Array.init program.Circuit.num_qubits (Layout.hw_of layout),
          Route.swap_count plan,
          compile_seconds )
    | Config.Move_and_stay ->
        (* Dynamic model: expand routing into an explicit hardware
           circuit whose SWAPs move state permanently. *)
        let routed, final_positions =
          Route.expand_move_and_stay decision_paths ~policy:config.routing
            ~criterion ~layout program
        in
        let compile_seconds = Unix.gettimeofday () -. started in
        let id_layout = Layout.identity ~num_prog:num_hw ~num_hw in
        let plan =
          Route.plan (eval_paths_blind ()) ~policy:config.routing ~criterion
            ~layout:id_layout routed
        in
        let swaps =
          Array.fold_left
            (fun acc (g : Nisq_circuit.Gate.t) ->
              if g.Nisq_circuit.Gate.kind = Nisq_circuit.Gate.Swap then acc + 1
              else acc)
            0 routed.Circuit.gates
        in
        (routed, plan, final_positions, swaps, compile_seconds)
  in
  let sched_dag =
    if scheduled_circuit == program then dag else Dag.of_circuit scheduled_circuit
  in
  let schedule =
    measured "schedule" @@ fun () ->
    Schedule.compute sched_dag ~circuit:scheduled_circuit plan
  in
  let phys, hw_circuit =
    measured "emit" @@ fun () ->
    let phys = Emit.physical_ops calib scheduled_circuit schedule plan in
    (phys, Emit.to_circuit ~num_hw phys)
  in
  Metrics.add m_swaps swap_count;
  let esp = Reliability.esp calib phys in
  if Metrics.enabled () then begin
    let c, r, s1 = esp_by_channel calib phys in
    Metrics.set g_esp esp;
    Metrics.set g_esp_cnot c;
    Metrics.set g_esp_readout r;
    Metrics.set g_esp_single s1
  end;
  let report =
    if not (Report.enabled ()) then None
    else
      Some
        {
          Report.program = program.Circuit.name;
          qubits = program.Circuit.num_qubits;
          hw_qubits = num_hw;
          config = config_kvs config;
          duration = schedule.Schedule.makespan;
          swap_count;
          compile_seconds;
          esp = Reliability.esp_breakdown calib phys;
          solver = solver_report solver_stats rung;
          cache_bypassed = !cache_bypassed;
          caches = caches_of_delta cache_before (cache_counter_snapshot ());
          phases = List.rev !phase_log;
        }
  in
  {
    config;
    program;
    calib;
    layout;
    final_positions;
    plan;
    schedule;
    phys;
    hw_circuit;
    duration = schedule.Schedule.makespan;
    esp;
    swap_count;
    compile_seconds;
    solver_stats;
    rung;
    report;
  }

let best_of ~configs ~calib circuit =
  match configs with
  | [] -> invalid_arg "Compile.best_of: no configurations"
  | first :: rest ->
      List.fold_left
        (fun best config ->
          let r = run ~config ~calib circuit in
          if
            r.esp > best.esp +. 1e-12
            || (Float.abs (r.esp -. best.esp) <= 1e-12
               && r.duration < best.duration)
          then r
          else best)
        (run ~config:first ~calib circuit)
        rest

let readout_map t =
  Circuit.measured_qubits t.program
  |> List.map (fun p -> (p, t.final_positions.(p)))
  |> List.sort compare

let to_qasm t = Qasm.to_string t.hw_circuit
