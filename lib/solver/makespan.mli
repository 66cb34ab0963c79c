(** Minimizing branch-and-bound over injective placements with
    caller-supplied cost model.

    Used by the duration-oriented compiler variants (T-SMT, T-SMT⋆): the
    objective — the finish time of the last gate under the scheduling
    constraints of §4.2 — is not additive over placement decisions, so the
    caller provides an admissible [lower_bound] for partial placements
    (e.g. a critical path with optimistic routing durations) and the exact
    [leaf_cost] for complete placements (the list scheduler's makespan).

    Item [i] unplaced is encoded as [placement.(i) = -1]. [leaf_cost] may
    return [Int.max_int] to reject an infeasible placement (e.g. one whose
    schedule violates the coherence constraint, Eq. 4/6). *)

type problem = {
  num_items : int;
  num_slots : int;
  order : int array option;  (** placement order; default [0..n-1] *)
  lower_bound : int array -> int;
      (** admissible: never exceeds the best completion's [leaf_cost] *)
  leaf_cost : int array -> int;
}

type solution = {
  assignment : int array;
  cost : int;  (** [Int.max_int] iff no feasible placement was found *)
  stats : Budget.stats;
}

val solve :
  ?budget:Budget.t -> ?forbid:(int -> bool) -> problem -> solution
(** [forbid slot] excludes a slot from every assignment (quarantined
    hardware); raises [Invalid_argument] if fewer than [num_items] slots
    remain. Only strictly cheaper leaves replace the best-found
    assignment. If no leaf is accepted (the budget blew before any, or
    every leaf was infeasible), a greedy completion (best lower bound per
    item, in order) is returned, so callers always get an assignment. *)
