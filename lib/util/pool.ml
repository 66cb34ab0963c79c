module Clock = Nisq_obs.Clock
module Metrics = Nisq_obs.Metrics
module Faultkit = Nisq_faultkit.Faultkit
module Deadline = Nisq_runkit.Deadline

(* Registered once; updates are no-ops while telemetry is disabled.
   [pool.tasks]/[pool.parallel_calls] only count work items, so they are
   deterministic for any pool size; busy-time gauges are wall-clock. *)
let m_parallel_calls = Metrics.counter "pool.parallel_calls"
let m_tasks = Metrics.counter "pool.tasks"
let g_workers = Metrics.gauge "pool.workers"
let g_worker_busy = Metrics.gauge "pool.worker_busy_s"
let g_caller_busy = Metrics.gauge "pool.caller_busy_s"
let m_chunk_failures = Metrics.counter "resilience.pool.chunk_failures"
let m_retry_ok = Metrics.counter "resilience.pool.retry_ok"
let m_respawns = Metrics.counter "resilience.pool.respawns"

let timed busy f =
  if Metrics.enabled () then begin
    let t0 = Clock.now_ns () in
    Fun.protect f ~finally:(fun () ->
        let dt = Int64.sub (Clock.now_ns ()) t0 in
        Metrics.gauge_add busy (Int64.to_float dt /. 1e9))
  end
  else f ()

type task = Task of (unit -> unit) | Quit

type t = {
  id : int;
  size : int;
  mutable workers : unit Domain.t array;
  queue : task Queue.t;
  mutex : Mutex.t;
  nonempty : Condition.t;
  mutable stopped : bool;
  (* Workers that died (injected [Domain_kill] or an exception escaping a
     task wrapper); replacements are spawned lazily at the next
     [parallel_chunks] entry. *)
  dead : int Atomic.t;
}

let rec worker_loop t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue do
    Condition.wait t.nonempty t.mutex
  done;
  let task = Queue.pop t.queue in
  Mutex.unlock t.mutex;
  match task with
  | Quit -> ()
  | Task f -> (
      (* Chunk results and exceptions are recorded inside the wrapper
         ([run] below); anything escaping it means the worker itself is
         being killed. Mark the death and exit — the queue survives, the
         remaining workers and the helping caller keep draining it. *)
      match timed g_worker_busy f with
      | () -> worker_loop t
      | exception _ -> Atomic.incr t.dead)

(* Re-entrancy guard: the ids of the pools whose chunk functions are
   executing on the current domain. A chunk that resubmits to its own
   pool can deadlock it (every worker blocked waiting for queue slots
   only they can drain) or, on the sequential path, recurse silently —
   the docs have always forbidden it; this enforces the ban with a clear
   error on every execution path (worker, helping caller, sequential).
   Distinct pools nest fine: a figure-cell task on the default pool may
   submit a solve to the dedicated solver pool. *)
let next_id = Atomic.make 0

let entered_key : int list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let entered t = List.mem t.id !(Domain.DLS.get entered_key)

let with_entered t f =
  let stack = Domain.DLS.get entered_key in
  stack := t.id :: !stack;
  Fun.protect f ~finally:(fun () -> stack := List.tl !stack)

(* Run one chunk, retrying once on failure with the same index: chunk
   randomness derives from the index alone (Rng.mix), so a successful
   retry is bit-identical to an undisturbed run. Returns the worker
   death sentence alongside the result: an injected [Domain_kill] still
   completes the chunk (via the retry) before the worker dies, so no
   work is lost. *)
let run_chunk f i =
  (* Cancellation point, outside the retry: a flipped token (deadline,
     signal, or an armed [kill:chunk] fault) stops the chunk before any
     work, and a cancelled chunk is not a "failure" to retry — the
     resumed run recomputes it from the same index, bit-identically. *)
  match Deadline.chunk_checkpoint i with
  | exception e -> (Error e, false)
  | () ->
  let attempt () =
    Faultkit.chunk_check i;
    f i
  in
  match attempt () with
  | v -> (Ok v, false)
  | exception (Deadline.Cancelled _ as e) ->
      (* Cancellation surfacing mid-chunk (a deadline or signal landing
         inside the work) is a shutdown, not a chunk failure: retrying
         would re-run the whole chunk only to be cancelled again. *)
      (Error e, false)
  | exception e ->
      Metrics.incr m_chunk_failures;
      Nisq_obs.Events.emit ~domain:"pool" Nisq_obs.Events.Info
        (Printf.sprintf "pool: chunk %d failed, retrying once" i)
        ~fields:[ ("chunk", string_of_int i); ("error", Printexc.to_string e) ];
      let die = match e with Faultkit.Domain_kill -> true | _ -> false in
      (match attempt () with
      | v ->
          Metrics.incr m_retry_ok;
          (Ok v, die)
      | exception e2 -> (Error e2, die))

(* NISQ_DOMAINS diagnostics: a malformed value silently falling back to
   the default worker count is invisible and has burnt people; warn once
   per process on stderr and then use the default. *)
let env_warned = ref false

let warn_env raw reason =
  if not !env_warned then begin
    env_warned := true;
    (* Warn-severity events echo to stderr even with the ledger off, so
       the user-visible text is unchanged from the old eprintf. *)
    Nisq_obs.Events.emit ~domain:"pool" Nisq_obs.Events.Warn
      (Printf.sprintf
         "nisq: warning: ignoring NISQ_DOMAINS=%S (%s); using the default \
          worker count"
         raw reason)
      ~fields:[ ("env", "NISQ_DOMAINS"); ("value", raw); ("reason", reason) ]
  end

let env_size () =
  match Sys.getenv_opt "NISQ_DOMAINS" with
  | None -> None
  | Some raw -> (
      match int_of_string_opt (String.trim raw) with
      | None ->
          warn_env raw "not an integer";
          None
      | Some n when n < 0 ->
          warn_env raw "negative";
          None
      | Some n -> Some n)

let create ?size () =
  let size =
    match size with
    | Some n -> n
    | None -> (
        match env_size () with
        | Some n -> n
        | None -> Domain.recommended_domain_count () - 1)
  in
  let size = max 0 size in
  let t =
    {
      id = Atomic.fetch_and_add next_id 1;
      size;
      workers = [||];
      queue = Queue.create ();
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      stopped = false;
      dead = Atomic.make 0;
    }
  in
  if size > 1 then
    t.workers <- Array.init size (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let size t = t.size

let sequential t = t.size <= 1

let shutdown t =
  Mutex.lock t.mutex;
  let workers = t.workers in
  t.workers <- [||];
  t.stopped <- true;
  Array.iter (fun _ -> Queue.push Quit t.queue) workers;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex;
  Array.iter Domain.join workers

let default_pool = ref None
let default_mutex = Mutex.create ()

let default () =
  Mutex.lock default_mutex;
  let p =
    match !default_pool with
    | Some p -> p
    | None ->
        let p = create () in
        default_pool := Some p;
        at_exit (fun () -> shutdown p);
        p
  in
  Mutex.unlock default_mutex;
  p

let in_caller chunks f =
  List.init chunks (fun i ->
      match run_chunk f i with
      | Ok v, _ -> v
      | Error e, _ -> raise e)

(* Replace workers that died since the last call. Lazy respawn keeps the
   failure path allocation-free for the dying domain and means a pool
   that lost every worker still makes progress: the caller drains the
   queue itself. *)
let heal t =
  let n = Atomic.exchange t.dead 0 in
  if n > 0 && not t.stopped then begin
    Metrics.add m_respawns n;
    Mutex.lock t.mutex;
    t.workers <-
      Array.append t.workers
        (Array.init n (fun _ -> Domain.spawn (fun () -> worker_loop t)));
    Mutex.unlock t.mutex
  end

let parallel_chunks t ~chunks f =
  if chunks <= 0 then invalid_arg "Pool.parallel_chunks: chunks must be positive";
  if entered t then
    invalid_arg
      "Pool.parallel_chunks: nested call on the same pool (chunk functions \
       must not resubmit to the pool running them)";
  (* Counted before choosing a path so the totals match for sequential
     and pooled execution alike. *)
  Metrics.incr m_parallel_calls;
  Metrics.add m_tasks chunks;
  if not (sequential t) then heal t;
  Metrics.set g_workers (float_of_int (Array.length t.workers));
  if sequential t || t.stopped || chunks = 1 then
    with_entered t (fun () -> in_caller chunks f)
  else begin
    let results = Array.make chunks None in
    let remaining = ref chunks in
    let done_mutex = Mutex.create () and done_cond = Condition.create () in
    let run i =
      let r, die = with_entered t (fun () -> run_chunk f i) in
      Mutex.lock done_mutex;
      results.(i) <- Some r;
      decr remaining;
      if !remaining = 0 then Condition.signal done_cond;
      Mutex.unlock done_mutex;
      (* After the result is safely recorded: a killed worker takes no
         chunk down with it. Escapes to [worker_loop] (domain exits, is
         respawned next call) or to [help] (caught, the caller lives). *)
      if die then raise Faultkit.Domain_kill
    in
    Mutex.lock t.mutex;
    for i = 0 to chunks - 1 do
      Queue.push (Task (fun () -> run i)) t.queue
    done;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex;
    (* The caller helps drain the queue instead of blocking idle. It must
       not consume Quit tokens destined for the workers. *)
    let rec help () =
      Mutex.lock t.mutex;
      let task =
        match Queue.peek_opt t.queue with
        | Some (Task _) -> (
            match Queue.pop t.queue with Task f -> Some f | Quit -> None)
        | Some Quit | None -> None
      in
      Mutex.unlock t.mutex;
      match task with
      | Some f ->
          (* The caller must survive anything a task throws at a worker —
             including an injected [Domain_kill] it happened to pick up. *)
          (try timed g_caller_busy f with _ -> ());
          help ()
      | None -> ()
    in
    help ();
    Mutex.lock done_mutex;
    while !remaining > 0 do
      Condition.wait done_cond done_mutex
    done;
    Mutex.unlock done_mutex;
    List.init chunks (fun i ->
        match results.(i) with
        | Some (Ok v) -> v
        | Some (Error e) -> raise e
        | None -> assert false)
  end
