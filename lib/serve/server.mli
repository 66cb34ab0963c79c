(** The `nisqd` daemon: accept loop, worker pool, graceful drain,
    calibration hot-reload.

    {2 Architecture}

    One [Unix.select] loop on the calling domain owns the listener and
    every connection, and is the only code that closes one. It decodes
    frames; administrative verbs ([ping]/[stats]/[drain]) are answered
    inline, work verbs ([compile]/[run]) go through the bounded
    {!Admission} queue — or come straight back as [overloaded] when it
    is full. A fixed pool of worker domains pops entries, runs each
    handler under a per-request {!Nisq_runkit.Deadline.with_scoped}
    deadline, and writes one reply body to every (possibly coalesced)
    waiter. A handler that raises produces a structured [error] reply
    and a [resilience.serve.handler_crashes] tick; the worker survives.
    A 1 s send timeout drops a peer that stops reading.

    {2 Calibration epochs and hot reload}

    With [config.calib = Some _] the daemon serves a file-backed
    calibration through a {!Nisq_device.Calib_store}: every work
    request pins ([Calib_store.acquire]) the epoch current at
    admission, compiles against exactly that epoch, and releases the
    pin after delivery — so a reload promoted while the request is
    queued or in flight cannot change its reply bytes. The epoch id is
    folded into the coalesce key; requests on either side of a
    promotion never share an entry.

    Reload attempts — triggered by the [reload] verb, SIGHUP (when
    [~signals:true]), or [watch_s] mtime polling — run one at a time on
    a dedicated reload domain, through {!Reload.run}'s
    parse → sanitize → drift gate → canary pipeline. Failure at any
    stage leaves the live epoch untouched (crash-only); success swaps
    atomically. The SIGHUP handler only flips an atomic flag — the
    reload domain notices it within one poll tick — because
    Events/Metrics take mutexes a signal handler could deadlock on.

    Without [calib] the daemon behaves as before: synthetic
    per-request [Ibmq16] calibration, no store, [reload] answered with
    a non-retryable [no-calibration] error.

    {2 Drain}

    SIGTERM (when [~signals:true]), SIGINT, or the [drain] verb starts
    a two-stage drain: stage 1 stops accepting (socket closed and
    unlinked, intake closed — late submissions get a retryable
    [draining] error) and lets queued + in-flight work finish for up to
    [drain_grace_s]; stage 2 flips the process-wide cancellation token
    so stubborn handlers cancel at their next cooperative checkpoint,
    then the reload and worker domains stop (still-queued reload
    triggers and undelivered entries are answered [draining]), every
    connection is closed, and {!run} returns. The loop keeps reading
    through both stages. A second signal exits immediately with the
    signal's conventional code.

    {2 Fault injection}

    [Nisq_faultkit] server clauses are serviced here, keyed by the
    arrival index of {e work} requests (administrative verbs do not
    consume indices): [net:torn@req<N>] / [net:close@req<N>] damage the
    reply write; [server:slow@req<N>] stalls the handler until its
    deadline; [server:crash-handler@req<N>] raises inside it. Reload
    clauses ([calib:reload-*@epoch<N>], [server:slow-reload@epoch<N>])
    are serviced inside {!Reload.run}, keyed by candidate epoch id. All
    are one-shot, so a client retry observes a healthy server. *)

type calib_config = {
  calib_path : string;  (** the file served, and the default reload source *)
  calib_prev : string option;
      (** previous-day calibration seeding the sanitizer's backfill
          chain at startup (reloads use the live epoch automatically) *)
  watch_s : float option;
      (** poll [calib_path]'s mtime every [watch_s] seconds and reload
          on change; [None] disables watching *)
  thresholds : Nisq_device.Calib_diff.thresholds;
      (** drift-gate and canary rejection thresholds *)
  reload_report : string option;
      (** write each attempt's [nisq-reload/1] report here (overwritten
          per attempt) *)
}

type config = {
  socket : string;  (** Unix socket path; created, and unlinked on every exit *)
  workers : int;  (** worker domains (>= 0; 0 admits but never serves) *)
  queue_capacity : int;  (** admission slots before shedding *)
  default_deadline_ms : int;  (** per-request deadline when unspecified *)
  drain_grace_s : float;  (** stage-1 drain budget *)
  calib : calib_config option;
      (** [None]: synthetic per-request calibration (the historical
          behaviour); [Some]: file-backed epochs with hot reload *)
}

val default_config : socket:string -> config
(** 2 workers, 64 slots, 30 s deadline, 5 s drain grace, no
    file-backed calibration. *)

val calib_config :
  ?prev:string ->
  ?watch_s:float ->
  ?thresholds:Nisq_device.Calib_diff.thresholds ->
  ?report:string ->
  string ->
  calib_config
(** [calib_config path] with defaults: no previous file, no watching,
    {!Nisq_device.Calib_diff.default_thresholds}, no report file. *)

type outcome = Drained of Nisq_runkit.Deadline.reason option
(** Why {!run} returned: [Some Sigterm]/[Some Sigint] for a signal,
    [None] for the [drain] verb. The daemon binary maps these to exit
    codes 143/130/0. *)

val max_connections : int
(** Connections served at once; one more gets [overloaded] and EOF. *)

exception Startup_error of string
(** Raised before serving begins: socket already served by a live
    daemon, bind failure, unwritable path, an initial calibration file
    that fails to parse or sanitize, or too many worker domains. *)

val run : ?on_ready:(unit -> unit) -> ?signals:bool -> config -> outcome
(** Serve until drained. [on_ready] fires once the socket is
    listening (tests use it to connect without polling). [signals]
    (default [false]) installs the two-stage SIGTERM/SIGINT drain
    handlers and — when [calib] is set — the SIGHUP reload trigger;
    the daemon binary turns it on, in-process tests leave it off.
    Blocks the calling domain. *)

val handle_work :
  ?calib:Nisq_device.Calibration.t -> Protocol.verb -> Protocol.reply_body
(** The [compile]/[run] handler the workers run, exposed for the
    determinism tests: a pure function of the verb and the calibration
    (modulo the shared calibration caches, which never change a cached
    value), so calling it twice — or once, delivering the body to two
    coalesced waiters — yields byte-identical [Result] payloads.
    [calib] overrides the synthetic per-request calibration — this is
    how a pinned epoch reaches the compiler. Administrative verbs
    return a non-retryable [error]; the daemon answers those inline on
    its select loop, never here. *)
