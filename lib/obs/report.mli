(** Compile explain reports.

    A report is a structured audit artifact for one compile: where the
    predicted ESP comes from (per-site reliability terms and the
    routing overhead paid versus an untouched-circuit bound), what the
    solver did (fallback rung, nodes, per-level bound-ladder hits,
    proof status), which caches served the compile, and
    where the wall-clock went. The compiler assembles a {!t} when
    {!enabled}; [nisqc compile --report FILE] writes {!to_json}
    atomically.

    This module owns only the schema — plain data, {!to_json} and
    {!validate} — so that tools ([jsonlint --report]) and tests can
    check artifacts without linking the compiler. *)

val schema : string
(** ["nisq-report/1"], stamped into every document. *)

val set_enabled : bool -> unit
(** Arm report collection (default off). The compiler consults this
    before doing any per-phase measurement work. *)

val enabled : unit -> bool

(** {1 Schema} *)

type esp_term = {
  channel : string;  (** ["readout"], ["single"], ["cnot"] or ["swap"] *)
  site : string;  (** ["q<N>"] for qubits, ["e<A>-<B>"] for links *)
  ops : int;  (** physical ops folded into this term *)
  reliability : float;  (** per-op reliability (first occurrence) *)
  contribution : float;  (** product of the per-op reliabilities *)
}

type esp = {
  predicted : float;  (** the ESP the compiler published *)
  untouched_bound : float;
      (** ESP of the same stream with every routing SWAP removed — an
          upper bound no routing can beat *)
  routing_overhead : float;  (** [untouched_bound /. predicted], >= 1 *)
  terms : esp_term list;
      (** multiplies back to [predicted] within 1e-9 *)
}

type solver = {
  rung : string;  (** fallback-ladder rung: ["full"] etc. *)
  mode : string;
      (** solver mode tag; always ["seq"] (the field is kept so the
          [nisq-report/1] schema is unchanged) *)
  nodes_visited : int;
  elapsed_seconds : float;
  proven_optimal : bool;
  degraded : bool;
  bound_hits : (string * int) list;
      (** per-level bound-ladder prune counts, e.g. [("static", n)] *)
}

type cache = { cache : string; hits : int; misses : int }
(** Hit/miss deltas attributed to this compile, per memo table. *)

type phase = {
  phase : string;
  wall_ms : float;
  minor_words : float;  (** GC words allocated during the phase *)
  major_words : float;
}

type t = {
  program : string;
  qubits : int;  (** program qubits *)
  hw_qubits : int;  (** device qubits *)
  config : (string * string) list;  (** compile policy, key=value *)
  duration : int;  (** schedule makespan, timeslots *)
  swap_count : int;
  compile_seconds : float;
  esp : esp;
  solver : solver option;  (** [None] when no B&B ran (pure greedy) *)
  cache_bypassed : bool;  (** caches skipped under fault injection *)
  caches : cache list;
  phases : phase list;
}

(** {1 Export / validation} *)

val to_json : t -> Json.t
(** One object, [{"schema":"nisq-report/1", ...}]; deterministic field
    order. *)

val validate : Json.t -> (unit, string) result
(** Structural and semantic check of a report document: schema tag,
    required fields and types, and the arithmetic invariants — ESP
    terms multiply back to [predicted] within 1e-9, non-swap terms
    multiply to [untouched_bound] within 1e-9, and
    [routing_overhead = untouched_bound / predicted] (within 1e-9,
    when [predicted > 0]). *)
