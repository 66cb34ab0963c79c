(** Structured span tracing on a monotonic clock.

    [with_span "route" f] runs [f ()] and records a completed span —
    name, start timestamp, duration, domain id, nesting depth, optional
    string attributes. Spans nest through a per-domain depth counter,
    and an exception escaping [f] still closes the span.

    Spans go to the calling domain's ring in {!Recorder}, shared with
    {!Events}: no lock on the hot path, at most
    {!Recorder.span_capacity} spans per domain (the oldest are dropped
    and counted), and the rings of exited domains are recycled — a
    long-lived [nisqd] with tracing on holds a bounded trace.

    Disabled (the default), [with_span name f] is one ref read, a
    conditional jump and a tail call to [f] — no allocation, no clock
    read; the [obs:span-overhead] micro-benchmark pins this. Span
    timestamps and durations are wall-clock; names and nesting are
    reproducible. Counter-style facts belong in {!Metrics}. *)

type span = Recorder.span = {
  name : string;
  ts_ns : int64;  (** monotonic start time *)
  dur_ns : int64;
  tid : int;  (** recording domain's id *)
  depth : int;  (** 1 = top-level span on its domain *)
  seq : int;  (** opening order on the recording ring *)
  attrs : (string * string) list;
}

val set_enabled : bool -> unit
(** Turn tracing on or off. Off (the default) makes {!with_span} call
    through with no recording. *)

val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a named span. The span is recorded when the
    thunk returns {e or raises}; the exception is re-raised unchanged. *)

val spans : unit -> span list
(** All retained spans merged across domains, sorted by start time
    (ties broken by domain id, then opening order — parents before
    children). *)

val total : unit -> int
(** Spans recorded since the last {!reset}, dropped ones included. *)

val dropped : unit -> int
(** Spans evicted from full rings since the last {!reset}. *)

val reset : unit -> unit
(** Drop all recorded spans (events are kept). Call only while no
    domain is inside {!with_span}. *)

val export_json : unit -> Json.t
(** Chrome [trace_event] document:
    [{"traceEvents": [{name; cat; ph:"X"; ts; dur; pid; tid; args}, ...],
      "displayTimeUnit": "ms"}].
    Timestamps are microseconds, rebased so the earliest span starts at
    0 — loadable in Perfetto / [chrome://tracing]. *)

val render_tree : unit -> string
(** Human-readable pass-timing tree: per-domain spans indented by
    nesting depth with durations in ms, followed by a by-name aggregate
    (count and total time). *)

val summary_json : unit -> Json.t
(** By-name aggregate as JSON:
    [{"<name>": {"count": n, "total_ms": t}, ...}], sorted by name. *)
