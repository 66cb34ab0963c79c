(** The compiler driver (Fig. 3).

    [run ~config ~calib circuit] takes a program circuit, a configuration
    (Table 1) and the day's calibration, and produces a fully mapped,
    routed and scheduled executable. Calibration-blind configurations
    (Qiskit, T-SMT) make all decisions against the uniform machine view
    and are then *evaluated* — durations, ESP, physical gates — against
    the real calibration, which is exactly what happens when a statically
    compiled program runs on that day's machine. *)

(** Which rung of the solver fallback ladder produced the layout: the
    full configured budget, the small node-capped retry after the full
    budget blew, or the greedy heuristic after both solver rungs blew. *)
type rung = Rung_full | Rung_capped | Rung_greedy

val rung_name : rung -> string

type t = {
  config : Config.t;
  program : Nisq_circuit.Circuit.t;  (** input, swaps lowered *)
  calib : Nisq_device.Calibration.t;  (** the day it runs on *)
  layout : Layout.t;
  final_positions : int array;
      (** hardware position of each program qubit after execution —
          equals the layout under [Swap_back], drifts under
          [Move_and_stay] *)
  plan : Route.entry array;
      (** priced against [calib]; indexed by the gates of the scheduled
          circuit (the program under [Swap_back], the routed hardware
          circuit under [Move_and_stay]) *)
  schedule : Schedule.t;
  phys : Emit.phys array;
  hw_circuit : Nisq_circuit.Circuit.t;  (** physical gates over hw qubits *)
  duration : int;  (** makespan in timeslots *)
  esp : float;  (** analytic estimated success probability *)
  swap_count : int;
  compile_seconds : float;
  solver_stats : Nisq_solver.Budget.stats option;
      (** SMT variants only; the stats of the last rung attempted *)
  rung : rung option;  (** SMT variants only *)
  report : Nisq_obs.Report.t option;
      (** Explain report, assembled iff [Nisq_obs.Report.enabled ()] at
          compile time: ESP decomposition, solver evidence (rung, bound
          ladder), cache hit/miss provenance and
          per-phase wall/GC stats. Collection never changes the compile
          itself — output and metrics are byte-identical either way. *)
}

val run :
  config:Config.t ->
  calib:Nisq_device.Calibration.t ->
  Nisq_circuit.Circuit.t ->
  t

val best_of :
  configs:Config.t list ->
  calib:Nisq_device.Calibration.t ->
  Nisq_circuit.Circuit.t ->
  t
(** Compile under every configuration and keep the result with the
    highest analytic ESP (ties: shortest duration, then compile order) —
    a portfolio driver for users who don't want to pick a Table-1 row by
    hand. Raises [Invalid_argument] on an empty list. *)

val readout_map : t -> (int * int) list
(** [(program qubit, hardware qubit)] for every measured program qubit,
    ascending program order — what the success-rate runner needs to
    assemble answers. *)

val to_qasm : t -> string
(** Executable OpenQASM of the compiled program. *)
