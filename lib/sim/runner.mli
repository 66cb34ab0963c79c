(** Monte-Carlo noisy execution — the stand-in for running 8192 trials on
    IBMQ16 (§6 "Metrics").

    The noise model is derived from the calibration data the compiler
    optimizes against:

    - every CNOT suffers a uniform random two-qubit Pauli error with the
      edge's calibrated error probability;
    - every single-qubit gate suffers a uniform random Pauli with the
      qubit's single-gate error probability;
    - between operations, an idle qubit dephases: a Z error fires with
      probability (1 − exp(−t/T2))/2 for idle time t;
    - an idle qubit also relaxes: with probability 1 − exp(−t/T1) an
      amplitude-damping jump is attempted, decaying |1⟩ → |0⟩ with the
      qubit's current excited-state probability (the √(1−γ) no-jump
      backaction on |1⟩ is neglected — a second-order effect at NISQ
      idle times);
    - every readout flips classically with the qubit's readout error.

    The success rate of a job is the fraction of trials whose outcome
    equals the noiseless most-likely outcome, exactly the paper's
    metric.

    {2 Determinism and parallelism}

    Trials are split into fixed-size chunks; chunk [i] draws every
    random number from its own stream seeded by
    [Rng.create (Rng.mix seed i)]. The chunk decomposition depends only
    on [trials] and [seed], so {!success_rate} and {!distribution} are
    bit-for-bit identical whether the chunks run sequentially
    ({!success_rate_seq}) or across any number of domains of a
    {!Nisq_util.Pool.t} — the same answer on a laptop, a 64-core server,
    or with [NISQ_DOMAINS=1]. *)

type op = {
  kind : Nisq_circuit.Gate.kind;
  qubits : int array;  (** hardware qubits *)
  start : int;  (** timeslot *)
  duration : int;
}

type t

val chunk_size : int
(** Trials per Monte-Carlo chunk (256). Fixed: it is part of the
    determinism contract, and checkpoint cell digests assume it. *)

val prepare :
  calib:Nisq_device.Calibration.t ->
  ops:op array ->
  readout:(int * int) list ->
  t
(** [readout] maps measured program qubits to their hardware locations;
    answer bit [i] is the measured value of the [i]-th entry (ascending
    program-qubit order). [ops] must be time-ordered, contain one
    [Measure] per readout entry, and touch no qubit after measuring it.
    Raises [Invalid_argument] otherwise. *)

val num_active_qubits : t -> int
(** Hardware qubits the job actually touches (simulation width). *)

val clifford_capable : t -> bool
(** Whether every unitary in the job is a Clifford generator, making its
    noisy trials eligible for the stabilizer fast path. The injected
    error channels (Pauli faults, dephasing, readout flips) never
    disqualify a job; a fired amplitude-damping site only reroutes that
    single trial to the dense backend. *)

val set_stabilizer_enabled : bool option -> unit
(** Override the stabilizer fast path: [Some false] forces every noisy
    trial onto the dense backend, [Some true] forces the path on for
    Clifford-capable jobs, [None] restores the default (on, unless the
    process started with [NISQ_STABILIZER=0]). Either way the simulated
    results are bit-for-bit identical — this switch exists for the
    equivalence tests and for benchmarking the dense path. *)

val stabilizer_enabled : unit -> bool
(** The switch's current effective value. *)

val ideal_answer : t -> int
(** Most likely noiseless outcome, as a bit-packed answer. *)

val ideal_answer_probability : t -> float
(** Noiseless probability of {!ideal_answer} (≈ 1 for the deterministic
    paper benchmarks). *)

val ideal_distribution : t -> (int * float) list
(** The noiseless answer distribution, ascending by answer. Probabilities
    sum to 1. *)

val run_trial : t -> Nisq_util.Rng.t -> int
(** One noisy execution; returns the (possibly corrupted) answer. *)

val success_rate :
  ?trials:int -> ?pool:Nisq_util.Pool.t -> seed:int -> t -> float
(** Fraction of [trials] (default 4096) matching {!ideal_answer}.
    Chunks run on [pool] (default {!Nisq_util.Pool.default}); the result
    is independent of the pool size (see the determinism contract
    above). *)

val success_rate_seq : ?trials:int -> seed:int -> t -> float
(** The same estimate computed strictly sequentially in the calling
    domain — bit-identical to {!success_rate} for equal arguments; kept
    as the reference path for tests, benchmarks and fanned-out figure
    cells. Each estimate, on either path, records one [simulate] span. *)

val distribution :
  ?trials:int -> ?pool:Nisq_util.Pool.t -> seed:int -> t -> (int * int) list
(** Histogram of noisy outcomes, descending count (ties ascending by
    answer). Parallel over [pool] with the same determinism contract as
    {!success_rate}. *)

val distribution_seq : ?trials:int -> seed:int -> t -> (int * int) list
(** Sequential reference path for {!distribution}; bit-identical. *)
