module Json = Nisq_obs.Json
module Metrics = Nisq_obs.Metrics
module Events = Nisq_obs.Events
module Clock = Nisq_obs.Clock
module Deadline = Nisq_runkit.Deadline
module Faultkit = Nisq_faultkit.Faultkit
module Config = Nisq_compiler.Config
module Compile = Nisq_compiler.Compile
module Layout = Nisq_compiler.Layout
module Budget = Nisq_solver.Budget
module Circuit = Nisq_circuit.Circuit
module Qasm = Nisq_circuit.Qasm
module Ibmq16 = Nisq_device.Ibmq16
module Calibration = Nisq_device.Calibration
module Calib_io = Nisq_device.Calib_io
module Calib_sanitize = Nisq_device.Calib_sanitize
module Calib_diff = Nisq_device.Calib_diff
module Calib_store = Nisq_device.Calib_store
module Benchmarks = Nisq_bench.Benchmarks
module Experiments = Nisq_bench.Experiments
module Runner = Nisq_sim.Runner
module Pool = Nisq_util.Pool

type calib_config = {
  calib_path : string;
  calib_prev : string option;
  watch_s : float option;
  thresholds : Calib_diff.thresholds;
  reload_report : string option;
}

type config = {
  socket : string;
  workers : int;
  queue_capacity : int;
  default_deadline_ms : int;
  drain_grace_s : float;
  calib : calib_config option;
}

let default_config ~socket =
  {
    socket;
    workers = 2;
    queue_capacity = 64;
    default_deadline_ms = 30_000;
    drain_grace_s = 5.0;
    calib = None;
  }

let calib_config ?prev ?watch_s ?(thresholds = Calib_diff.default_thresholds)
    ?report path =
  {
    calib_path = path;
    calib_prev = prev;
    watch_s;
    thresholds;
    reload_report = report;
  }

type outcome = Drained of Deadline.reason option

exception Startup_error of string

let m_requests = Metrics.counter "serve.requests"
let m_served = Metrics.counter "serve.served"
let m_handler_crashes = Metrics.counter "resilience.serve.handler_crashes"
let m_deadline_expired = Metrics.counter "serve.deadline_expired"
let m_conns = Metrics.counter "serve.connections"
let g_in_flight = Metrics.gauge "serve.in_flight"

(* One latency histogram per verb, shared across server instances —
   metrics names are process-global anyway. *)
let latency_hist =
  let table = Hashtbl.create 8 in
  fun verb_name ->
    match Hashtbl.find_opt table verb_name with
    | Some h -> h
    | None ->
        let h = Metrics.histogram ("serve.latency_ms." ^ verb_name) in
        Hashtbl.replace table verb_name h;
        h

(* ------------------------------ handler ----------------------------- *)

(* Request-level failures that are the client's fault, not ours. *)
exception Bad_request of string

let circuit_of (p : Protocol.compile_params) =
  match p.program with
  | Protocol.Named n -> (
      match Benchmarks.by_name n with
      | b -> (b.Benchmarks.name, b.Benchmarks.circuit)
      | exception Not_found ->
          raise (Bad_request (Printf.sprintf "unknown benchmark %S" n)))
  | Protocol.Qasm src -> (
      match Qasm.of_string src with
      | Ok c -> ("<qasm>", c)
      | Error { Qasm.line; message } ->
          raise (Bad_request (Printf.sprintf "qasm:%d: %s" line message)))

let config_of (p : Protocol.compile_params) =
  match p.routing with
  | Some r -> Config.make ~routing:r ~movement:p.movement p.method_
  | None -> Config.make ~movement:p.movement p.method_

(* The compile reply payload. Deterministic by construction: every
   field is a pure function of the request params and the calibration —
   wall-clock values (compile_seconds) are deliberately left out so
   coalesced waiters and repeated requests get byte-identical bytes.
   [calib] overrides the synthetic per-request calibration when the
   daemon serves file-backed epochs; the reply's [day] then reports the
   epoch's day, not the (ignored) request parameter. *)
let compile_result ?calib (p : Protocol.compile_params) =
  let name, circuit = circuit_of p in
  let calib =
    match calib with
    | Some c -> c
    | None -> Ibmq16.calibration ~seed:p.calib_seed ~day:p.day ()
  in
  let r = Compile.run ~config:(config_of p) ~calib circuit in
  let solver =
    match r.Compile.solver_stats with
    | None -> []
    | Some s ->
        [
          ( "solver",
            Json.Obj
              ([
                 ("nodes", Json.Int s.Budget.nodes_visited);
                 ("proven_optimal", Json.Bool s.Budget.proven_optimal);
               ]
              @
              match r.Compile.rung with
              | None -> []
              | Some rung ->
                  [ ("rung", Json.String (Compile.rung_name rung)) ]) );
        ]
  in
  let qasm =
    if p.emit_qasm then [ ("qasm", Json.String (Compile.to_qasm r)) ] else []
  in
  ( r,
    Json.Obj
      ([
         ("program", Json.String name);
         ("qubits", Json.Int r.Compile.program.Circuit.num_qubits);
         ("gates", Json.Int (Circuit.gate_count r.Compile.program));
         ("cnots", Json.Int (Circuit.cnot_count r.Compile.program));
         ("config", Json.String (Config.name r.Compile.config));
         ("day", Json.Int calib.Calibration.day);
         ("swaps", Json.Int r.Compile.swap_count);
         ("duration_slots", Json.Int r.Compile.duration);
         ("esp", Json.Float r.Compile.esp);
         ( "layout",
           Json.List
             (Array.to_list
                (Array.map (fun h -> Json.Int h)
                   (Layout.to_array r.Compile.layout))) );
       ]
      @ solver @ qasm) )

let run_result ?calib (p : Protocol.run_params) =
  let r, compile_json = compile_result ?calib p.Protocol.compile in
  let runner = Experiments.runner_of r in
  let success =
    Runner.success_rate ~trials:p.Protocol.trials ~pool:(Pool.default ())
      ~seed:p.Protocol.sim_seed runner
  in
  let extra =
    [
      ("trials", Json.Int p.Protocol.trials);
      ("sim_seed", Json.Int p.Protocol.sim_seed);
      ("ideal_answer", Json.Int (Runner.ideal_answer runner));
      ("success_rate", Json.Float success);
    ]
  in
  match compile_json with
  | Json.Obj kvs -> Json.Obj (kvs @ extra)
  | _ -> assert false

let failed ?(retryable = false) code message =
  Protocol.Failed { code; message; retryable }

let handle_work ?calib verb =
  match verb with
  | Protocol.Compile p -> Protocol.Result (snd (compile_result ?calib p))
  | Protocol.Run p -> Protocol.Result (run_result ?calib p)
  | Protocol.Ping | Protocol.Stats | Protocol.Drain | Protocol.Reload _ ->
      failed "not-work"
        (Printf.sprintf "%S is answered inline, not queued"
           (Protocol.verb_name verb))

(* --------------------------- server state --------------------------- *)

type conn = {
  fd : Unix.file_descr;
  wmutex : Mutex.t;
  (* No more writes: the peer is gone, a write timed out, or the loop
     closed the fd (and its number may be reused). Set under [wmutex]. *)
  mutable dead : bool;
  dec : Frame.decoder;
}

type drain_cause = Running | By_signal of Deadline.reason | By_verb

(* One queued reload attempt: [rpath] overrides the configured file,
   [rdeliver] answers the triggering connection (None for SIGHUP /
   watcher attempts, which have no one to answer). *)
type reload_request = {
  rpath : string option;
  rdeliver : (Protocol.reply_body -> unit) option;
}

type t = {
  cfg : config;
  queue : Admission.t;
  drain : drain_cause Atomic.t;
  req_counter : int Atomic.t;
  in_flight : int Atomic.t;
  served : int Atomic.t;
  crashes : int Atomic.t;
  started_ns : int64;
  (* Owned by the select loop on the calling domain. *)
  mutable conns : conn list;
  (* server:slow / server:crash-handler clauses consumed by the loop
     at arrival (the faultkit is one-shot) but acted on by the worker. *)
  faults_mutex : Mutex.t;
  handler_faults : (int, Faultkit.server_fault) Hashtbl.t;
  (* Calibration epochs: None = synthetic per-request calibration (the
     pre-reload behaviour); Some = file-backed, hot-reloadable. *)
  store : Calib_store.t option;
  reload_mutex : Mutex.t;
  reload_pending : reload_request Queue.t;
  reload_stop : bool Atomic.t;
  hup : bool Atomic.t;
  r_attempts : int Atomic.t;
  r_promotions : int Atomic.t;
  r_rollbacks : int Atomic.t;
}

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* ------------------------------ replies ----------------------------- *)

(* Deliver one reply frame, honoring a one-shot net:* fault. Never
   raises: a peer that vanished mid-reply is that peer's problem — the
   connection is marked dead and the server moves on. *)
let send_reply ?net_fault conn (reply : Protocol.reply) =
  locked conn.wmutex (fun () ->
      if not conn.dead then
        let json = Protocol.reply_to_json reply in
        try
          match net_fault with
          | Some Faultkit.Net_torn ->
              Frame.write_torn conn.fd json;
              (* Sever so the client sees the tear now, not on its next
                 request. *)
              Unix.shutdown conn.fd Unix.SHUTDOWN_SEND
          | Some Faultkit.Net_close ->
              Unix.shutdown conn.fd Unix.SHUTDOWN_SEND
          | _ -> ignore (Frame.write conn.fd json)
        with Unix.Unix_error _ -> conn.dead <- true)

(* ------------------------------ workers ----------------------------- *)

let take_handler_fault t idx =
  locked t.faults_mutex (fun () ->
      match Hashtbl.find_opt t.handler_faults idx with
      | Some f ->
          Hashtbl.remove t.handler_faults idx;
          Some f
      | None -> None)

(* The server:slow fault: burn the request's whole deadline budget,
   cooperatively — the scoped deadline (or a drain's global cancel)
   ends the stall. *)
let rec stall () =
  (match Deadline.cancelled () with
  | Some r -> raise (Deadline.Cancelled r)
  | None -> ());
  Unix.sleepf 0.005;
  stall ()

let deliver_all entry body =
  List.iter (fun deliver -> deliver body) entry.Admission.waiters

let release_pin t epoch =
  match (t.store, epoch) with
  | Some store, Some e -> Calib_store.release store e
  | _ -> ()

let work_one t (entry : Admission.entry) =
  Atomic.incr t.in_flight;
  Metrics.set g_in_flight (float_of_int (Atomic.get t.in_flight));
  let t0 = Clock.now_ns () in
  let deadline_ms =
    Option.value entry.deadline_ms ~default:t.cfg.default_deadline_ms
  in
  let fault = take_handler_fault t entry.req_index in
  let verb_name = Protocol.verb_name entry.verb in
  (* The request compiles against the epoch it was admitted under, not
     whatever is current by the time a worker picks it up — that is the
     byte-identity contract across a concurrent reload. *)
  let calib =
    Option.map (fun e -> e.Calib_store.calib) entry.Admission.epoch
  in
  let body =
    match
      Deadline.with_scoped
        ~seconds:(float_of_int deadline_ms /. 1000.0)
        (fun () ->
          (match fault with
          | Some Faultkit.Crash_handler ->
              failwith "injected handler crash (server:crash-handler)"
          | Some Faultkit.Slow -> stall ()
          | _ -> ());
          handle_work ?calib entry.verb)
    with
    | Ok body -> body
    | Error _ ->
        Metrics.incr m_deadline_expired;
        failed "deadline"
          (Printf.sprintf "request exceeded its %d ms deadline" deadline_ms)
    | exception Deadline.Cancelled _ ->
        (* Drain stage 2: the global token is flipped. Fail the request
           as retryable — a restarted daemon will serve it — and keep
           looping; the queue is stopped, so the worker exits once the
           backlog of instantly-cancelling entries is delivered. *)
        failed ~retryable:true "draining"
          "server is draining; retry against the next instance"
    | exception Bad_request message -> failed "bad-request" message
    | exception exn ->
        (* The resilience contract: a crashing handler produces a
           structured error reply and a metric tick; the worker domain
           survives to serve the next request. *)
        Atomic.incr t.crashes;
        Metrics.incr m_handler_crashes;
        Events.emit ~domain:"serve" Events.Warn
          (Printf.sprintf "nisqd: %s handler crashed: %s" verb_name
             (Printexc.to_string exn))
          ~fields:[ ("verb", verb_name) ];
        failed ~retryable:true "internal" (Printexc.to_string exn)
  in
  let ms = Int64.to_float (Int64.sub (Clock.now_ns ()) t0) /. 1e6 in
  Admission.note_service_ms t.queue ms;
  Metrics.observe (latency_hist verb_name) ms;
  (* Count and unpin before delivering: a client that sees its reply and
     immediately asks for stats must find this request in [served] and
     must not observe its epoch pin. The epoch was only needed while
     computing [body], so releasing here is safe. *)
  Atomic.incr t.served;
  Metrics.incr m_served;
  release_pin t entry.Admission.epoch;
  deliver_all entry body;
  Atomic.decr t.in_flight;
  Metrics.set g_in_flight (float_of_int (Atomic.get t.in_flight))

let rec worker_loop t =
  match Admission.pop t.queue with
  | None -> ()
  | Some entry ->
      work_one t entry;
      worker_loop t

(* ------------------------------ reload ------------------------------ *)

let draining_reply =
  failed ~retryable:true "draining" "server is draining; not accepting reloads"

let enqueue_reload t req =
  if Atomic.get t.reload_stop then
    Option.iter (fun deliver -> deliver draining_reply) req.rdeliver
  else
    locked t.reload_mutex (fun () -> Queue.push req t.reload_pending)

let run_reload t ccfg store req =
  Atomic.incr t.r_attempts;
  let path = Option.value req.rpath ~default:ccfg.calib_path in
  let res = Reload.run ~store ~path ~thresholds:ccfg.thresholds () in
  (match res.Reload.outcome with
  | Reload.Promoted _ -> Atomic.incr t.r_promotions
  | Reload.Rolled_back _ -> Atomic.incr t.r_rollbacks);
  Option.iter
    (fun path -> Json.to_file ~path res.Reload.report)
    ccfg.reload_report;
  Option.iter
    (fun deliver -> deliver (Protocol.Result res.Reload.report))
    req.rdeliver

(* The reload domain: one pipeline at a time, fed by the reload verb,
   SIGHUP (the handler only flips an atomic — Events/Metrics take locks
   a signal could deadlock on), and the --calib-watch mtime poller.
   Serving never blocks on it; it never blocks serving. *)
let reload_loop t ccfg store =
  let mtime () =
    match Unix.stat ccfg.calib_path with
    | st -> st.Unix.st_mtime
    | exception Unix.Unix_error _ -> 0.0
  in
  let watch_last = ref (mtime ()) in
  let watch_next =
    ref
      (match ccfg.watch_s with
      | None -> Float.infinity
      | Some w -> Unix.gettimeofday () +. w)
  in
  let rec loop () =
    if Atomic.get t.reload_stop then
      (* Answer every still-queued trigger; nobody is left hanging. *)
      locked t.reload_mutex (fun () ->
          Queue.iter
            (fun req ->
              Option.iter (fun d -> d draining_reply) req.rdeliver)
            t.reload_pending;
          Queue.clear t.reload_pending)
    else begin
      if Atomic.exchange t.hup false then
        enqueue_reload t { rpath = None; rdeliver = None };
      (match ccfg.watch_s with
      | Some w when Unix.gettimeofday () >= !watch_next ->
          watch_next := Unix.gettimeofday () +. w;
          let m = mtime () in
          if m <> !watch_last then begin
            watch_last := m;
            enqueue_reload t { rpath = None; rdeliver = None }
          end
      | _ -> ());
      let req =
        locked t.reload_mutex (fun () -> Queue.take_opt t.reload_pending)
      in
      (match req with
      | Some req -> run_reload t ccfg store req
      | None -> Unix.sleepf 0.02);
      loop ()
    end
  in
  loop ()

(* ---------------------------- admin verbs --------------------------- *)

let ping_json =
  Json.Obj
    [
      ("pong", Json.Bool true);
      ("build", Json.String Protocol.build_id);
      ("protocol", Json.Int Protocol.protocol_version);
    ]

let stats_json t =
  let uptime_s =
    Int64.to_float (Int64.sub (Clock.now_ns ()) t.started_ns) /. 1e9
  in
  let admitted, coalesced, shed = Admission.counts t.queue in
  let calib =
    match t.store with
    | None -> [ ("calib", Json.Null) ]
    | Some store ->
        let e = Calib_store.current store in
        [
          ( "calib",
            Json.Obj
              [
                ("epoch", Json.Int e.Calib_store.id);
                ("day", Json.Int e.Calib_store.calib.Calibration.day);
                ("source", Json.String e.Calib_store.source);
                ("live_epochs", Json.Int (Calib_store.live_epochs store));
                ("pins", Json.Int (Calib_store.pins store));
              ] );
        ]
  in
  Json.Obj
    ([
       ("build", Json.String Protocol.build_id);
       ("protocol", Json.Int Protocol.protocol_version);
       ("workers", Json.Int t.cfg.workers);
       ("queue_capacity", Json.Int t.cfg.queue_capacity);
       ("queue_depth", Json.Int (Admission.depth t.queue));
       ("in_flight", Json.Int (Atomic.get t.in_flight));
       ("served", Json.Int (Atomic.get t.served));
       ("admitted", Json.Int admitted);
       ("coalesced", Json.Int coalesced);
       ("shed", Json.Int shed);
       ("handler_crashes", Json.Int (Atomic.get t.crashes));
       ( "reloads",
         Json.Obj
           [
             ("attempts", Json.Int (Atomic.get t.r_attempts));
             ("promotions", Json.Int (Atomic.get t.r_promotions));
             ("rollbacks", Json.Int (Atomic.get t.r_rollbacks));
           ] );
       ("uptime_s", Json.Float uptime_s);
       ( "draining",
         Json.Bool
           (match Atomic.get t.drain with Running -> false | _ -> true) );
     ]
    @ calib)

(* ----------------------------- dispatch ----------------------------- *)

let request_drain t cause =
  ignore (Atomic.compare_and_set t.drain Running cause)

let dispatch t conn (req : Protocol.request) =
  Metrics.incr m_requests;
  match req.verb with
  | Protocol.Ping -> send_reply conn { id = req.id; body = Result ping_json }
  | Protocol.Stats ->
      send_reply conn { id = req.id; body = Result (stats_json t) }
  | Protocol.Drain ->
      send_reply conn
        { id = req.id; body = Result (Json.Obj [ ("draining", Json.Bool true) ]) };
      request_drain t By_verb
  | Protocol.Reload { path } -> (
      match t.store with
      | None ->
          send_reply conn
            {
              id = req.id;
              body =
                failed "no-calibration"
                  "daemon serves synthetic calibration; start with --calib \
                   FILE to enable reload";
            }
      | Some _ ->
          (* Queued to the reload domain; the reply arrives once the
             pipeline decides. The loop keeps reading — other requests
             on this connection are served meanwhile. *)
          let deliver body = send_reply conn { id = req.id; body } in
          enqueue_reload t { rpath = path; rdeliver = Some deliver })
  | Protocol.Compile _ | Protocol.Run _ ->
      (* Work verbs consume arrival indices — the faultkit's @req<N>
         targets count these, not pings. *)
      let idx = Atomic.fetch_and_add t.req_counter 1 in
      let net_fault, handler_faulted =
        match Faultkit.server_fault idx with
        | Some (Faultkit.Net_torn | Faultkit.Net_close) as f -> (f, false)
        | Some ((Faultkit.Slow | Faultkit.Crash_handler) as fault) ->
            locked t.faults_mutex (fun () ->
                Hashtbl.replace t.handler_faults idx fault);
            (None, true)
        | None -> (None, false)
      in
      let deliver body = send_reply ?net_fault conn { id = req.id; body } in
      (* Pin the serving epoch at admission: a reload promoted a moment
         later must not change this request's reply bytes. *)
      let epoch = Option.map Calib_store.acquire t.store in
      (* A handler-faulted request must own its entry: coalescing onto
         a clean twin would both dodge the fault (the worker consumes it
         by the entry's index) and blast the twin's waiters with it. *)
      let verdict =
        Admission.submit ~coalescable:(not handler_faulted) ?epoch t.queue
          ~verb:req.verb ~deadline_ms:req.deadline_ms ~req_index:idx ~deliver
      in
      (match verdict with
      | Admission.Admitted -> ()
      | Admission.Coalesced ->
          (* The queued twin holds its own pin on the same epoch (the
             epoch id is part of the coalesce key). *)
          release_pin t epoch
      | Admission.Shed { retry_after_ms; queue_depth } ->
          release_pin t epoch;
          deliver (Protocol.Overloaded { retry_after_ms; queue_depth })
      | Admission.Draining ->
          release_pin t epoch;
          deliver
            (failed ~retryable:true "draining"
               "server is draining; not accepting new work"))

(* ------------------------------- loop ------------------------------- *)

(* Live connections stay well below select's FD_SETSIZE (1024): OCaml's
   [Unix.select] raises EINVAL on a larger fd. *)
let max_connections = 256

(* A blocked reply write fails after this long, so a peer that stops
   reading cannot block the loop or a worker forever. *)
let send_timeout_s = 1.0

(* Only the loop closes an fd, and only here: under the write mutex,
   so a worker never writes to a reused fd number. *)
let hang_up conn =
  locked conn.wmutex (fun () ->
      conn.dead <- true;
      try Unix.close conn.fd with Unix.Unix_error _ -> ())

(* One read, then every whole frame it completed. [false]: hang up. An
   unframed stream is answered what we can (id 0 is reserved for "could
   not even parse the request") and then hung up. *)
let serve_readable t conn =
  let unframed e =
    send_reply conn { id = 0; body = failed "bad-frame" (Frame.error_message e) };
    false
  in
  let rec frames () =
    match Frame.next conn.dec with
    | None -> true
    | Some (Error e) -> unframed e
    | Some (Ok json) ->
        (match Protocol.request_of_json json with
        | Error message -> send_reply conn { id = 0; body = failed "bad-request" message }
        | Ok req -> dispatch t conn req);
        frames ()
  in
  match Frame.fill conn.dec conn.fd 65536 with
  | None -> frames ()
  | Some Frame.Eof -> false
  | Some e -> unframed e

(* [false]: accept failed for want of a resource (EMFILE, ENFILE,
   ENOBUFS, ENOMEM) or a peer that gave up; leave the listener out of
   the next select rather than spin on it while it stays readable. *)
let accept t listener =
  match Unix.accept listener with
  | fd, _ ->
      Metrics.incr m_conns;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO send_timeout_s;
      let conn =
        { fd; wmutex = Mutex.create (); dead = false; dec = Frame.decoder () }
      in
      if List.length t.conns < max_connections then t.conns <- conn :: t.conns
      else begin
        let queue_depth = Admission.depth t.queue in
        send_reply conn { id = 0; body = Overloaded { retry_after_ms = 1000; queue_depth } };
        hang_up conn
      end;
      true
  | exception
      Unix.Unix_error
        ( ( EMFILE | ENFILE | ENOBUFS | ENOMEM | ECONNABORTED | EAGAIN
          | EWOULDBLOCK | EINTR ), _, _ ) ->
      false

(* One pass: wait up to [timeout] for the listener (when given) or any
   connection, serve every readable connection, hang up on the ones a
   worker marked dead, accept at most one. Returns whether the listener
   may be polled on the next pass. *)
let poll t listener timeout =
  let fds = Option.to_list listener @ List.map (fun c -> c.fd) t.conns in
  let readable =
    match Unix.select fds [] [] timeout with
    | r, _, _ -> r
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  in
  t.conns <-
    List.filter
      (fun c ->
        let keep =
          (not c.dead) && ((not (List.mem c.fd readable)) || serve_readable t c)
        in
        if not keep then hang_up c;
        keep)
      t.conns;
  match listener with
  | Some l when List.mem l readable -> accept t l
  | _ -> true

let fail_leftovers t =
  let rec loop () =
    match Admission.pop t.queue with
    | None -> ()
    | Some entry ->
        deliver_all entry
          (failed ~retryable:true "draining"
             "server drained before this request was served");
        (* The entry owned its epoch pin from admission; an unserved
           entry must still release it or the epoch leaks forever. *)
        release_pin t entry.Admission.epoch;
        loop ()
  in
  loop ()

(* ------------------------- initial calibration ---------------------- *)

(* Load the file the daemon will serve. Startup is strict — a daemon
   that cannot establish epoch 0 must not come up — but routes through
   the same raw-parse + sanitize pipeline reloads use, so a file good
   enough to promote is good enough to boot from. [calib_prev] seeds
   the sanitizer's previous-day backfill chain exactly as the live
   epoch does for later reloads. *)
let load_initial_calib ccfg =
  let parse path =
    match Calib_io.load_raw ~path with
    | Ok raw -> raw
    | Error { Calib_io.line; message } ->
        raise
          (Startup_error
             (if line > 0 then Printf.sprintf "%s:%d: %s" path line message
              else Printf.sprintf "%s: %s" path message))
  in
  let previous =
    Option.map
      (fun path -> fst (Calib_sanitize.sanitize (parse path)))
      ccfg.calib_prev
  in
  let raw = parse ccfg.calib_path in
  match
    match previous with
    | Some previous -> Calib_sanitize.sanitize ~previous raw
    | None -> Calib_sanitize.sanitize raw
  with
  | calib, report ->
      if not (Calib_sanitize.is_clean report) then
        Events.emit ~domain:"serve" Events.Info
          (Printf.sprintf
             "calibration %s sanitized at startup: %d repairs, %d qubits + \
              %d links quarantined"
             ccfg.calib_path
             (Calib_sanitize.repairs report)
             (List.length report.Calib_sanitize.quarantined_qubits)
             (List.length report.Calib_sanitize.quarantined_links))
          ~fields:[ ("path", ccfg.calib_path) ];
      calib
  | exception Invalid_argument msg ->
      raise (Startup_error (Printf.sprintf "%s: %s" ccfg.calib_path msg))

(* -------------------------------- run ------------------------------- *)

let assert_socket_free path =
  if Sys.file_exists path then begin
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    if live then
      raise
        (Startup_error
           (Printf.sprintf "socket %s is already served by a live daemon" path));
    (* Stale socket from a crashed daemon: reclaim it. *)
    try Unix.unlink path
    with Unix.Unix_error (e, _, _) ->
      raise
        (Startup_error
           (Printf.sprintf "cannot reclaim stale socket %s: %s" path
              (Unix.error_message e)))
  end

let run ?(on_ready = fun () -> ()) ?(signals = false) cfg =
  if cfg.workers < 0 then invalid_arg "Server.run: workers must be >= 0";
  (* A client hanging up mid-reply must be an EPIPE result, not a
     process-killing signal. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  assert_socket_free cfg.socket;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket)
   with Unix.Unix_error (e, _, _) ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise
       (Startup_error
          (Printf.sprintf "cannot bind %s: %s" cfg.socket (Unix.error_message e))));
  (* From here on every exit path, an exception included, closes the
     listener and unlinks the socket — exactly once, so a later daemon's
     socket on the same path is never removed. *)
  let listening = ref true in
  let stop_listening () =
    if !listening then begin
      listening := false;
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      try Unix.unlink cfg.socket with Unix.Unix_error _ -> ()
    end
  in
  let old_signals = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (s, b) -> try Sys.set_signal s b with Invalid_argument _ -> ())
        !old_signals;
      stop_listening ())
  @@ fun () ->
  Unix.listen listen_fd 64;
  let epoch0 c = Calib_store.create ~calib:(load_initial_calib c) ~source:c.calib_path in
  let store = Option.map epoch0 cfg.calib in
  let t =
    {
      cfg;
      queue =
        Admission.create ~capacity:cfg.queue_capacity
          ~workers:(max 1 cfg.workers) ();
      drain = Atomic.make Running;
      req_counter = Atomic.make 0;
      in_flight = Atomic.make 0;
      served = Atomic.make 0;
      crashes = Atomic.make 0;
      started_ns = Clock.now_ns ();
      conns = [];
      faults_mutex = Mutex.create ();
      handler_faults = Hashtbl.create 8;
      store;
      reload_mutex = Mutex.create ();
      reload_pending = Queue.create ();
      reload_stop = Atomic.make false;
      hup = Atomic.make false;
      r_attempts = Atomic.make 0;
      r_promotions = Atomic.make 0;
      r_rollbacks = Atomic.make 0;
    }
  in
  if signals then begin
    let install s b = old_signals := (s, Sys.signal s b) :: !old_signals in
    let on_signal reason _ =
      match Atomic.get t.drain with
      | Running -> request_drain t (By_signal reason)
      | _ ->
          (* Second signal: the operator means it. *)
          Stdlib.exit (Deadline.exit_code reason)
    in
    install Sys.sigterm (Sys.Signal_handle (on_signal Deadline.Sigterm));
    install Sys.sigint (Sys.Signal_handle (on_signal Deadline.Sigint));
    if Option.is_some t.store then
      (* The handler only flips an atomic: Events/Metrics take mutexes
         a signal handler could deadlock on. The reload domain notices
         the flag within one poll tick. *)
      install Sys.sighup (Sys.Signal_handle (fun _ -> Atomic.set t.hup true))
  end;
  (* [live] counts the reload and worker domains still running, so the
     loop keeps serving while they stop and the joins never block it. *)
  let live = Atomic.make 0 and domains = ref [] in
  let stop_domains () =
    Admission.stop t.queue;
    Atomic.set t.reload_stop true;
    while Atomic.get live > 0 do ignore (poll t None 0.01) done;
    List.iter Domain.join !domains
  in
  let spawn f =
    Atomic.incr live;
    match Domain.spawn (fun () -> Fun.protect ~finally:(fun () -> Atomic.decr live) f) with
    | d -> domains := d :: !domains
    | exception Failure msg ->
        Atomic.decr live;
        stop_domains ();
        let msg = Printf.sprintf "cannot start %d workers: %s" cfg.workers msg in
        raise (Startup_error msg)
  in
  (match (t.store, cfg.calib) with
  | Some store, Some ccfg -> spawn (fun () -> reload_loop t ccfg store)
  | _ -> ());
  for _ = 1 to cfg.workers do
    spawn (fun () -> worker_loop t)
  done;
  Events.emit ~domain:"serve" Events.Info
    (Printf.sprintf "nisqd listening on %s (%d workers, queue %d)" cfg.socket
       cfg.workers cfg.queue_capacity)
    ~fields:[ ("socket", cfg.socket) ];
  on_ready ();
  (* The select loop: a 100 ms tick notices a drain request (from a
     signal or the drain verb, the latter answered on this very loop)
     promptly. *)
  let rec serve accepting =
    match Atomic.get t.drain with
    | Running -> serve (poll t (if accepting then Some listen_fd else None) 0.1)
    | cause -> cause
  in
  let cause = serve true in
  (* Stage 1: stop accepting. New connects fail, queued submissions get
     "draining", queued + in-flight work keeps going, and the loop keeps
     reading so a late submission is answered "draining" too. *)
  stop_listening ();
  Admission.close_intake t.queue;
  Events.emit ~domain:"serve" Events.Info "nisqd drain stage 1: intake closed";
  let grace_deadline =
    Int64.add (Clock.now_ns ()) (Int64.of_float (cfg.drain_grace_s *. 1e9))
  in
  let rec await_idle () =
    if Admission.is_empty t.queue && Atomic.get t.in_flight = 0 then true
    else if Clock.now_ns () >= grace_deadline then false
    else begin
      ignore (poll t None 0.01);
      await_idle ()
    end
  in
  (* Stage 2: cancel stragglers. Flipping the global token makes every
     cooperative checkpoint (solver ticks, pool chunk boundaries, the
     injected-slow stall) raise; their requests answer "draining". *)
  let flipped = not (await_idle ()) in
  if flipped then begin
    Events.emit ~domain:"serve" Events.Warn
      (Printf.sprintf
         "nisqd drain stage 2: grace (%.1fs) expired with work in flight — \
          cancelling"
         cfg.drain_grace_s);
    Deadline.cancel (match cause with By_signal r -> r | _ -> Deadline.Sigterm)
  end;
  stop_domains ();
  (* With zero workers (or a worker lost to the grace cutoff) the queue
     can still hold undelivered entries — every waiter gets an answer. *)
  fail_leftovers t;
  List.iter hang_up t.conns;
  (* In-process callers (tests) reuse the domain: leave the token as
     clean as we found it. The daemon binary exits right after anyway. *)
  if flipped then Deadline.reset ();
  Events.emit ~domain:"serve" Events.Info
    (Printf.sprintf "nisqd drained (%d served, %d crashes handled)"
       (Atomic.get t.served) (Atomic.get t.crashes));
  Drained (match cause with By_signal r -> Some r | _ -> None)
