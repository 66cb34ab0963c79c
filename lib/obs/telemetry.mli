(** Session-level switchboard for the telemetry layer.

    The CLI and the bench harness talk to this module instead of
    flipping {!Trace}, {!Metrics} and {!Events} individually:
    {!configure} (from [--trace FILE] / [--metrics] / [--events FILE] /
    [--prom FILE]) or {!init_from_env} (from [NISQ_TRACE] /
    [NISQ_METRICS] / [NISQ_EVENTS] / [NISQ_PROM]) arm the collectors
    before the work runs, and {!finish} flushes everything afterwards —
    Chrome trace JSON, the event ledger as JSONL, the metrics table,
    and a Prometheus text scrape to their respective files.

    Spans and events are held in one bounded per-domain recorder
    ({!Recorder}), so {!finish} reports for each kind how many records
    were made and how many the full rings dropped. Every file goes
    through the one crash-safe writer, {!Json.write_atomic} (temp file,
    fsync, rename, directory fsync). *)

val configure :
  ?trace:string ->
  ?metrics:bool ->
  ?events:string ->
  ?prom:string ->
  unit ->
  unit
(** Arm collectors. [~trace:path] enables span tracing and remembers
    where {!finish} should write the Chrome trace; [~metrics:true]
    enables the metrics registry; [~events:path] enables the event
    ledger and remembers the JSONL destination; [~prom:path] enables
    the metrics registry (scrapes need data) and remembers where the
    Prometheus text goes. Omitted arguments leave the corresponding
    collector untouched, so env-derived settings survive a flagless
    CLI invocation. *)

val init_from_env : unit -> unit
(** Read [NISQ_TRACE] / [NISQ_EVENTS] / [NISQ_PROM] (file paths) and
    [NISQ_METRICS] (truthy: "1"/"true"/"yes"/"on", case-insensitive)
    and {!configure} accordingly. Call before CLI flags so flags win. *)

val events_path : unit -> string option
(** Where {!finish} will write the event ledger, if armed. *)

val prom_path : unit -> string option
(** Where {!finish} will write the Prometheus scrape, if armed. *)

val finish : ?out:out_channel -> unit -> unit
(** Flush: write the Chrome trace to the configured path (if any), note
    recorded/dropped span counts and print the span tree; drain the
    event ledger to its JSONL file (if armed) and note recorded/dropped
    event counts; print the metrics table (if requested); write the
    Prometheus scrape (if armed) — all status lines to [out] (default
    [stderr]). Collectors stay enabled;
    call [reset] on the individual collectors to reuse the process. *)
