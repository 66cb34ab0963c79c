(** Optimal injective placement by branch-and-bound.

    This is the optimization core standing in for Z3/νZ (§3.1): given
    [num_items] program qubits and [num_slots ≥ num_items] hardware
    locations, find an injective assignment maximizing an additive
    objective

    {v Σ_i unary(i, π(i))  +  Σ_(i,j) pairwise(i,j)(π(i), π(j)) v}

    which is exactly the linearized log-reliability objective of Eq. 12
    once [unary] carries weighted readout log-reliabilities and [pairwise]
    carries CNOT-count-weighted routed-CNOT log-reliabilities (the EC
    matrix of Constraint 11). Mapping constraints 1–2 (distinctness,
    range) are structural here.

    The search places the most pairwise-involved items first, explores
    slots in decreasing incremental-score order, and prunes with an
    admissible bound built from per-pair/per-item maxima, so on
    paper-scale instances it proves optimality; on larger instances the
    budget truncates the search and the best-found placement is returned
    with [proven_optimal = false] (the paper's "SMT stops scaling past 32
    qubits" regime, §7.4). *)

type problem = {
  num_items : int;
  num_slots : int;
  unary : float array array;  (** [num_items × num_slots] *)
  pairwise : (int * int * float array array) list;
      (** [(i, j, m)] with [i < j]; [m] is [num_slots × num_slots],
          [m.(si).(sj)] scored when [π(i) = si, π(j) = sj]. Multiple
          entries for one pair are summed. *)
}

type solution = {
  assignment : int array;  (** item → slot *)
  objective : float;
  stats : Budget.stats;
}

val solve : ?budget:Budget.t -> ?forbid:(int -> bool) -> problem -> solution
(** Raises [Invalid_argument] on malformed problems (more items than
    slots, bad matrix dimensions, out-of-range pair indices). Always
    returns a feasible assignment: even when the budget is blown, the
    first DFS descent has completed. [forbid slot] excludes a slot from
    every assignment (quarantined hardware); raises [Invalid_argument]
    if fewer than [num_items] slots remain. Only strictly better leaves
    replace the best-found assignment, so among equal-objective optima
    the first one the search order reaches is returned. *)

val brute_force : problem -> int array * float
(** Exhaustive enumeration over all injective assignments — exponential;
    only for cross-checking the solver in tests. *)

val score : problem -> int array -> float
(** Objective value of a complete assignment. *)
