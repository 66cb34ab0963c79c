(* serve-mix: a `nisqd serve --calib` subprocess with its default
   workers, driven closed-loop over two connections.

   About three quarters of the requests are [compile] across all Table-1
   configurations; the rest are [run] at 1024 trials under the Fig-5
   configurations. A quarter of the compiles carry inline OpenQASM
   instead of a benchmark name, under the configurations without a
   solver layout (Qiskit and the two greedy heuristics): an inline
   program is a distinct layout-cache key from its named twin, and the
   daemon's layout cache holds 64 entries, so inline solver compiles
   would double an epoch's 60 solver keys and make the cache thrash at a
   rate set by how the two connections interleave. A [reload] to the next
   pre-generated day is sent every [reload_every] requests while both
   connections are quiet, so the seed alone fixes which calibration epoch
   serves each request. *)

open Common
module Json = Nisq_obs.Json
module Config = Nisq_compiler.Config
module Benchmarks = Nisq_bench.Benchmarks
module Qasm = Nisq_circuit.Qasm
module Calib_io = Nisq_device.Calib_io
module Calib_sanitize = Nisq_device.Calib_sanitize
module Protocol = Nisq_serve.Protocol
module Client = Nisq_serve.Client
module Server = Nisq_serve.Server

let connections = 2
let reload_every = 2000

(* Calibration files cycled by reloads: the machine's days 0, 1, ... *)
let reload_days = 8
let run_trials = 1024

(* About 850 requests a second; a 15 s run sends 12 750, and p99 has ten
   beyond it from 1 000. *)
let rate = 850.0
let tail_q = 0.99

(* Traced runs replay this many of the first epoch's requests in-process
   to time the handler alone. *)
let replay_requests = 800

type req = {
  idx : int;
  verb : Protocol.verb;
  bench : Benchmarks.t;
  cls : string;  (** verb, program, config, inline or not *)
}

let fig5_methods =
  [ Config.Qiskit; Config.T_smt_star; Config.R_smt_star 0.5 ]

let suite_methods = List.map (fun c -> c.Config.method_) Config.paper_suite
let inline_methods = [ Config.Qiskit; Config.Greedy_v; Config.Greedy_e ]

let params ?(inline = false) (b : Benchmarks.t) method_ =
  {
    Protocol.program =
      (if inline then Protocol.Qasm (Qasm.to_string b.Benchmarks.circuit)
       else Protocol.Named b.Benchmarks.name);
    method_;
    routing = None;
    movement = Config.Swap_back;
    day = 0;
    calib_seed = 0;
    emit_qasm = false;
  }

let pick st l = List.nth l (Random.State.int st (List.length l))

(* The request list, from the seed alone. *)
let requests ~seed n =
  let st = Random.State.make [| seed; 0x5e7e |] in
  Array.init n (fun idx ->
      let bench = pick st Benchmarks.all in
      if Random.State.int st 4 < 3 then
        let inline = Random.State.int st 4 = 0 in
        let method_ = pick st (if inline then inline_methods else suite_methods) in
        {
          idx;
          verb = Protocol.Compile (params ~inline bench method_);
          bench;
          cls =
            Printf.sprintf "compile %s %s%s" bench.Benchmarks.name
              (Protocol.method_to_string method_)
              (if inline then " inline" else "");
        }
      else
        let method_ = pick st fig5_methods in
        {
          idx;
          verb =
            Protocol.Run
              {
                Protocol.compile = params bench method_;
                trials = run_trials;
                sim_seed = Hashtbl.hash (seed, idx);
              };
          bench;
          cls =
            Printf.sprintf "run %s %s" bench.Benchmarks.name
              (Protocol.method_to_string method_);
        })

(* The distinct compile requests of the mix: the set-up warm pass. *)
let warm_keys () =
  List.concat_map
    (fun b ->
      List.map (fun m -> Protocol.Compile (params b m)) suite_methods
      @ List.map (fun m -> Protocol.Compile (params ~inline:true b m)) inline_methods)
    Benchmarks.all

(* ----------------------------- daemon ------------------------------- *)

type daemon = { pid : int; socket : string; prom : string }

let live : daemon list ref = ref []

let rec waitpid_eintr pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_eintr pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let kill_all () =
  List.iter
    (fun d ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      waitpid_eintr d.pid)
    !live;
  live := []

let call conn id verb =
  match Client.call conn { Protocol.id; deadline_ms = None; verb } with
  | Ok { Protocol.body = Protocol.Result v; _ } -> Ok v
  | Ok { Protocol.body = Protocol.Overloaded _; _ } -> Error "overloaded"
  | Ok { Protocol.body = Protocol.Failed { code; message; _ }; _ } ->
      Error (code ^ ": " ^ message)
  | Error e -> Error e

let connect_retry socket =
  let t0 = now_ns () in
  let rec go () =
    match Client.connect ~socket with
    | Ok c -> c
    | Error e ->
        if ms_since t0 > 20_000.0 then failwith ("nisqd did not come up: " ^ e);
        Unix.sleepf 0.002;
        go ()
  in
  go ()

let start ~nisqd ~dir ~calib_file n =
  let socket = Printf.sprintf "%s/d%d.sock" dir n in
  let prom = Printf.sprintf "%s/d%d.prom" dir n in
  let log =
    Unix.openfile (Printf.sprintf "%s/d%d.log" dir n)
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Unix.create_process nisqd
      [| nisqd; "serve"; "--socket"; socket; "--calib"; calib_file; "--prom"; prom |]
      Unix.stdin log log
  in
  Unix.close log;
  let d = { pid; socket; prom } in
  live := d :: !live;
  d

let drain d =
  let conn = connect_retry d.socket in
  ignore (call conn 0 Protocol.Drain);
  Client.close conn;
  waitpid_eintr d.pid;
  live := List.filter (fun x -> x.pid <> d.pid) !live

let prom_counter path name =
  let key = "nisq_" ^ name ^ " " in
  List.find_map
    (fun l ->
      if String.starts_with ~prefix:key l then
        float_of_string_opt
          (String.sub l (String.length key) (String.length l - String.length key))
      else None)
    (read_lines path)
  |> Option.value ~default:0.0

(* ----------------------------- checks ------------------------------- *)

let int_field name v =
  match Json.member name v with Some (Json.Int i) -> Some i | _ -> None

let float_field name v =
  match Json.member name v with
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

(* A reply is right when it parses, was served on the epoch the request
   was sent under, and — for [run] — reports the hand-written answer as
   the noiseless one. Returns (esp, success) on success. *)
let check r ~day reply =
  match reply with
  | Error e -> Error e
  | Ok v -> (
      let esp = float_field "esp" v in
      match (int_field "day" v, esp, r.verb) with
      | Some d, _, _ when d <> day ->
          Error (Printf.sprintf "served on day %d, expected %d" d day)
      | Some _, Some esp, Protocol.Compile _ -> Ok (esp, None)
      | Some _, Some esp, Protocol.Run _ -> (
          match (int_field "ideal_answer" v, float_field "success_rate" v) with
          | Some a, Some s when a = r.bench.Benchmarks.expected -> Ok (esp, Some s)
          | Some a, _ ->
              Error
                (Printf.sprintf "ideal answer %d, expected %d" a
                   r.bench.Benchmarks.expected)
          | None, _ -> Error "run reply without ideal_answer")
      | _ -> Error "malformed reply")

(* ------------------------------ load -------------------------------- *)

type result = {
  r : req;
  ms : float;  (** host-normalized *)
  wall_ms : float;
  outcome : (float * float option, string) Stdlib.result;
}

(* Closed loop over requests 0 .. [count - 1] of [reqs] on a daemon
   fresh from set-up, from [connections] threads. Requests are taken in
   index order; at each multiple of [reload_every] both threads stop,
   the last to arrive runs [between] with the number of the segment
   about to start, sends the reload, and both resume. Returns the
   results, the reloads' verdicts and the host-normalized time outside
   [between]. *)
let load ~socket ~day_of_epoch ~reload_file ?(between = fun _ -> ()) ~count reqs =
  let lock = Mutex.create () and cond = Condition.create () in
  let results = ref [] and reloads = ref [] in
  let reload conn e =
    let s0 = now_ns () in
    let reply =
      call conn (1_000_000 + e) (Protocol.Reload { path = Some (reload_file e) })
    in
    let s1 = now_ns () in
    if !Span.enabled then Span.record ~name:"serve.roundtrip" ~tag:"reload" ~op:(-e) s0 s1;
    let promoted =
      match reply with
      | Ok v -> Json.member "decision" v = Some (Json.String "promoted")
      | Error _ -> false
    in
    Mutex.protect lock (fun () -> reloads := promoted :: !reloads)
  in
  let conns = List.init connections (fun _ -> connect_retry socket) in
  let next = ref 0 and seg_end = ref reload_every in
  let arrived = ref 0 and generation = ref 0 and finished = ref false in
  let pauses = ref [] in
  let t0 = now_ns () in
  let take () =
    Mutex.protect lock (fun () ->
        if !finished || !next >= !seg_end || !next >= count then None
        else (
          let i = !next in
          incr next;
          Some reqs.(i)))
  in
  let worker conn () =
    let rec loop () =
      match take () with
      | Some r ->
          let epoch = r.idx / reload_every in
          let s0 = now_ns () in
          let reply = call conn r.idx r.verb in
          let s1 = now_ns () in
          let outcome = check r ~day:(day_of_epoch epoch) reply in
          if !Span.enabled then
            Span.record ~name:"serve.roundtrip" ~tag:(Protocol.verb_name r.verb)
              ~op:r.idx s0 s1;
          Mutex.protect lock (fun () -> results := (r, s0, s1, outcome) :: !results);
          Host.tick ();
          loop ()
      | None ->
          (* Barrier: the last thread to arrive reloads (or ends the run). *)
          Mutex.lock lock;
          let gen = !generation in
          incr arrived;
          if !arrived = connections then (
            arrived := 0;
            if !next >= count then finished := true
            else (
              Mutex.unlock lock;
              let segment = !seg_end / reload_every in
              let p0 = now_ns () in
              between segment;
              pauses := (p0, now_ns ()) :: !pauses;
              reload conn segment;
              Mutex.lock lock;
              seg_end := !seg_end + reload_every);
            incr generation;
            Condition.broadcast cond)
          else
            while !generation = gen do
              Condition.wait cond lock
            done;
          let fin = !finished in
          Mutex.unlock lock;
          if not fin then loop ()
    in
    loop ()
  in
  let threads = List.map (fun c -> Thread.create (worker c) ()) conns in
  List.iter Thread.join threads;
  List.iter Client.close conns;
  let t1 = now_ns () in
  Host.burst ();
  let bursts = Host.snapshot () in
  let norm a b = snd (Host.normalize bursts a b) in
  let results =
    List.map
      (fun (r, s0, s1, outcome) -> { r; ms = norm s0 s1; wall_ms = ms_between s0 s1; outcome })
      !results
  in
  let results = List.sort (fun a b -> compare a.r.idx b.r.idx) results in
  let paused = List.fold_left (fun acc (a, b) -> acc +. norm a b) 0.0 !pauses in
  (results, List.rev !reloads, norm t0 t1 -. paused)

(* ------------------------------ run --------------------------------- *)

let run ctx =
  let seed = ctx.seed in
  let dir = Printf.sprintf "%s/serve-%d" (run_dir ()) (Unix.getpid ()) in
  Sys.mkdir dir 0o755;
  let cleanup () =
    if Sys.file_exists dir then (
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
  in
  (* On every way out, a signal included: stop the daemons, then remove
     their files. *)
  at_exit (fun () ->
      kill_all ();
      cleanup ());
  let day_file k = Printf.sprintf "%s/day%d.calib" dir k in
  for k = 0 to reload_days - 1 do
    Calib_io.save (machine_day k) ~path:(day_file k)
  done;
  let day_of_epoch e = e mod reload_days in
  let reload_file e = day_file (e mod reload_days) in
  (* Set-up: start a daemon and warm every distinct compile key. *)
  let warm = warm_keys () in
  let started = ref 0 in
  let setup () =
    let n = !started in
    incr started;
    let d, _, ms =
      Host.timed (fun () ->
          let d = start ~nisqd:ctx.nisqd ~dir ~calib_file:(day_file 0) n in
          let conn = connect_retry d.socket in
          List.iteri
            (fun i v ->
              (match call conn (i + 1) v with
               | Ok _ -> ()
               | Error e -> failwith ("warm-up request failed: " ^ e));
              Host.tick ())
            warm;
          Client.close conn;
          d)
    in
    (d, ms /. 1000.0)
  in
  let n = ops_for ~seconds:ctx.seconds ~rate ~tail_q in
  let reqs = requests ~seed n in
  let session ?between d ~count =
    load ~socket:d.socket ~day_of_epoch ~reload_file ?between ~count reqs
  in
  let stats d =
    let conn = connect_retry d.socket in
    let v = call conn 0 Protocol.Stats in
    Client.close conn;
    match v with Ok v -> v | Error e -> failwith ("stats: " ^ e)
  in
  let summarize results reloads =
    let failed = List.filter (fun x -> Result.is_error x.outcome) results in
    List.iteri
      (fun i x ->
        if i < 5 then
          match x.outcome with
          | Error e -> Printf.printf "# WRONG: request %d (%s): %s\n" x.r.idx x.r.cls e
          | Ok _ -> ())
      failed;
    let oks = List.filter_map (fun x -> Result.to_option x.outcome) results in
    let esps = List.map fst oks and succ = List.filter_map snd oks in
    let bad_reloads = List.length (List.filter not reloads) in
    Printf.printf
      "# work: requests=%d runs=%d reloads=%d not_promoted=%d esp_geomean=%.17g success_geomean=%.17g\n"
      (List.length results) (List.length succ) (List.length reloads) bad_reloads
      (geomean esps) (geomean succ);
    ( List.length failed + bad_reloads,
      List.length results + List.length reloads,
      geomean esps,
      geomean succ )
  in
  let finish d =
    let s = stats d in
    let rss = peak_rss_mb (string_of_int d.pid) in
    drain d;
    (s, rss)
  in
  if not ctx.trace then (
    (* Set-ups after the first are spread over the run at the reload
       barriers, each on a daemon of its own that is drained at once. *)
    let d, setup0 = setup () in
    let segments = (n + reload_every - 1) / reload_every in
    let extra = setup_reps - 1 in
    let before = List.init extra (fun e -> max 1 ((e + 1) * segments / (extra + 1))) in
    let setups = ref [] in
    let between segment =
      List.iter
        (fun b ->
          if b = segment then (
            let d', s = setup () in
            drain d';
            setups := s :: !setups))
        before
    in
    let results, reloads, busy_ms = session ~between d ~count:n in
    (* A run too short to reach a barrier sets up there at its end. *)
    List.iter (fun b -> if b >= segments then between b) (List.sort_uniq compare before);
    let s, rss = finish d in
    cleanup ();
    Printf.printf "# nisqd workers=%s coalesced=%s shed=%s\n"
      (Json.to_string (Option.value ~default:Json.Null (Json.member "workers" s)))
      (Json.to_string (Option.value ~default:Json.Null (Json.member "coalesced" s)))
      (Json.to_string (Option.value ~default:Json.Null (Json.member "shed" s)));
    let failed, attempted, esp, succ = summarize results reloads in
    let wall = List.map (fun x -> x.wall_ms) results in
    Printf.printf "# serve-mix wall-clock: p50 %.4f ms, p99 %.4f ms\n" (median wall)
      (let a = Array.of_list wall in
       Array.sort compare a;
       a.(rank ~n:(Array.length a) 0.99));
    Host.report ();
    let p50, tl =
      tail ~label:"serve-mix" tail_q
        (List.map (fun x -> { ms = x.ms; cls = x.r.cls }) results)
    in
    {
      attempted;
      failed;
      e2e =
        [
          ("setup_s", median (setup0 :: !setups));
          ("ops_per_s", float_of_int (List.length results) /. (busy_ms /. 1000.0));
          ("latency_p50_ms", p50);
          ("latency_tail_ms", tl);
          ("peak_rss_mb", rss);
          ("esp_geomean", esp);
          ("success_geomean", succ);
        ];
      layers = [];
    })
  else (
    (* The same requests twice, each time on a daemon fresh from set-up:
       traced, then not. *)
    let half = max 1 (n / 2) in
    let d, _ = setup () in
    Span.enabled := true;
    let traced, treloads, tbusy = session d ~count:half in
    Span.enabled := false;
    let s, _ = finish d in
    let d', _ = setup () in
    let untraced, ureloads, ubusy = session d' ~count:half in
    ignore (finish d');
    let failed, attempted, _, succ = summarize (traced @ untraced) (treloads @ ureloads) in
    let stat path =
      List.fold_left
        (fun v k -> Option.bind v (Json.member k))
        (Some s) path
      |> function Some (Json.Int i) -> float_of_int i | _ -> 0.0
    in
    let rt verb =
      median
        (List.filter_map
           (fun r ->
             if r.Span.name = "serve.roundtrip" && r.Span.tag = verb then Some (Span.ms r)
             else None)
           (Span.all ()))
    in
    (* Handler time: the same requests through [Server.handle_work] in
       this process, on the epoch-0 calibration they were served on,
       after a warm pass like the daemon's. *)
    let calib0 =
      match Calib_io.load_raw ~path:(day_file 0) with
      | Ok raw -> fst (Calib_sanitize.sanitize raw)
      | Error _ -> failwith "cannot reload day 0"
    in
    List.iter (fun v -> ignore (Server.handle_work ~calib:calib0 v)) warm;
    let replay = List.filter (fun x -> x.r.idx < replay_requests) traced in
    let handler =
      List.map
        (fun x -> (x, snd (timed (fun () -> Server.handle_work ~calib:calib0 x.r.verb))))
        replay
    in
    let handler_ms verb =
      median
        (List.filter_map
           (fun (x, ms) -> if Protocol.verb_name x.r.verb = verb then Some ms else None)
           handler)
    in
    let wait_wire =
      mean (List.map (fun (x, _) -> x.wall_ms) handler) -. mean (List.map snd handler)
    in
    let texts =
      List.sort_uniq compare
        (List.filter_map
           (fun x ->
             match x.r.verb with
             | Protocol.Compile { Protocol.program = Protocol.Qasm t; _ } -> Some t
             | _ -> None)
           replay)
    in
    let parse_ms =
      mean
        (List.concat_map
           (fun t ->
             List.init 20 (fun _ -> snd (timed (fun () -> ignore (Qasm.of_string t)))))
           texts)
    in
    let hits = prom_counter d.prom "cache_hit" and misses = prom_counter d.prom "cache_miss" in
    cleanup ();
    {
      attempted;
      failed;
      e2e = [];
      layers =
        [
          ("serve.roundtrip_ms.compile", rt "compile");
          ("serve.roundtrip_ms.run", rt "run");
          ("serve.roundtrip_ms.reload", rt "reload");
          ("serve.handler_ms.compile", handler_ms "compile");
          ("serve.handler_ms.run", handler_ms "run");
          ("serve.wait_wire_ms", wait_wire);
          ("serve.coalesced", stat [ "coalesced" ]);
          ("serve.shed", stat [ "shed" ]);
          ("reload.promoted", stat [ "reloads"; "promotions" ]);
          ("reload.rolled_back", stat [ "reloads"; "rollbacks" ]);
          ("circuit.qasm_parse_ms", parse_ms);
          ("device.cache_hit_ratio", if hits +. misses = 0.0 then 0.0 else hits /. (hits +. misses));
          ("sim.success_geomean", succ);
          ( "obs.trace_overhead_ratio",
            (float_of_int (List.length traced) /. tbusy)
            /. (float_of_int (List.length untraced) /. ubusy) );
        ];
    })
