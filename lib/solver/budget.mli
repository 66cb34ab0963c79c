(** Search budgets and statistics for the optimization engine.

    The paper's Z3 runs are wall-clock bounded in practice (R-SMT⋆ takes
    up to 3 hours at 32 qubits, §7.4); our engine makes the budget explicit
    so scalability experiments terminate and report whether the returned
    solution is proven optimal or merely the best found in budget. *)

type t = {
  max_nodes : int option;  (** search-tree node limit *)
  max_seconds : float option;  (** wall-clock limit *)
}

val unlimited : t

val nodes : int -> t

val seconds : float -> t

val make : ?max_nodes:int -> ?max_seconds:float -> unit -> t

type stats = {
  nodes_visited : int;  (** search-tree nodes expanded *)
  elapsed_seconds : float;  (** wall-clock duration of the solve *)
  proven_optimal : bool;
      (** true iff the search space was exhausted within budget *)
  degraded : bool;
      (** true iff the budget blew: the answer is best-so-far (or a greedy
          completion), not the search's verdict. Callers such as
          [Compile] use this to walk their fallback ladder. *)
  bound_hits : (string * int) list;
      (** Per-level admissible-bound prune counts, in ladder order
          (for {!Placement}: ["static"], ["cheap"], ["tight"],
          ["matching"]). Searches without a bound ladder report [[]].
          Like [nodes_visited], a pure function of the problem under a
          node budget. *)
}

(** Internal budget-tracking clock handed to searches. *)
module Clock : sig
  type budget := t
  type t

  val start : budget -> t
  val tick : t -> bool
  (** Count one node; [false] when the budget is exhausted. *)

  val stats : ?bound_hits:(string * int) list -> t -> exhausted:bool -> stats
  (** [bound_hits] (default [[]]) is threaded into the result verbatim;
      the search that owns the ladder supplies its counts. *)
end
