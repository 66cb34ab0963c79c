(** Structured event ledger, bounded per domain.

    Libraries report notable conditions (a malformed environment
    variable, a cache bypassed under fault injection, a quarantined
    qubit) as structured events instead of bare [Printf.eprintf] calls.
    Events go to the calling domain's ring in {!Recorder}, shared with
    {!Trace} but in a lane of their own, so a flood of spans never
    evicts an event. The lane keeps the newest 512 events (see
    {!configure}); older ones are dropped and counted, and the rings of
    exited domains are recycled, so a daemon that spawns a domain per
    connection keeps a bounded ledger.

    Disabled (the default), an {!emit} below {!Warn} is one ref read,
    one branch and a severity comparison — no allocation; the
    [obs:event-disabled] micro-benchmark pins it. [Warn]/[Error] events
    also echo their message to stderr {e even while disabled}, so
    user-facing warning text does not depend on telemetry being armed. *)

type severity = Recorder.severity = Debug | Info | Warn | Error

val severity_name : severity -> string
(** ["debug"] / ["info"] / ["warn"] / ["error"]. *)

type event = Recorder.event = {
  seq : int;  (** emission index, monotonic within [tid] *)
  ts_ns : int64;  (** monotonic clock, same base as {!Trace} spans *)
  tid : int;  (** OCaml domain id that emitted the event *)
  domain : string;  (** component name: ["pool"], ["cache"], ... *)
  severity : severity;
  message : string;
  fields : (string * string) list;  (** key=value details *)
}

val set_enabled : bool -> unit
(** Turn recording on or off (default off). Echoing of [Warn]+
    messages to stderr is unconditional and unaffected. *)

val configure : ?capacity:int -> unit -> unit
(** Set the per-domain event capacity (default 512) and empty every
    event lane; each reallocates at its owner's next {!emit}. Raises
    [Invalid_argument] on [capacity < 1]. *)

val emit :
  ?fields:(string * string) list ->
  domain:string ->
  severity ->
  string ->
  unit
(** [emit ~domain sev msg] records an event on the calling domain's
    ring (when enabled) and, for [Warn] or [Error], echoes [msg] plus
    a newline to stderr (always). [msg] should not end in a newline. *)

val events : unit -> event list
(** Merged snapshot of every ring, sorted by [(ts_ns, tid, seq)].
    Dropped events are gone — only the newest [capacity] per ring
    survive. *)

val total : unit -> int
(** Events recorded since the last {!reset} (dropped ones included). *)

val dropped : unit -> int
(** Events evicted from full rings since the last {!reset}. *)

val export_jsonl : unit -> string
(** One compact JSON object per line, in {!events} order, each
    [{"ts_ns":…,"tid":…,"domain":…,"severity":…,"msg":…,"fields":{…}}].
    Ends with a trailing newline when nonempty. *)

val export_json : unit -> Json.t
(** The same data as one document:
    [{"schema":"nisq-events/1","dropped":…,"events":[…]}]. *)

val reset : unit -> unit
(** Empty every event lane and zero the counters (capacity survives;
    spans are kept). *)
