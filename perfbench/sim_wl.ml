(* simulate: the Fig-5 job set (12 programs x Qiskit, T-SMT*,
   R-SMT*(w=0.5)) on day 0, compiled and prepared in set-up; one op is
   one sweep of [Runner.success_rate] at 8192 trials per job over every
   job — narrow jobs, per-trial overhead bound, mostly on the stabilizer
   tableau. *)

open Common
module Config = Nisq_compiler.Config
module Compile = Nisq_compiler.Compile
module Benchmarks = Nisq_bench.Benchmarks
module Experiments = Nisq_bench.Experiments
module Runner = Nisq_sim.Runner
module Calib_cache = Nisq_device.Calib_cache
module Pool = Nisq_util.Pool

type job = {
  label : string;
  runner : Runner.t;
  trials : int;
  sim_seed : int;
  clifford : bool;
  width : int;
  esp : float;
}

let name = "simulate"

(* A sweep takes about 0.7 s; p60 has ten beyond it from 25. *)
let rate = 1.4
let tail_q = 0.6
let trials = 8192

let compile () =
  List.concat_map
    (fun (b : Benchmarks.t) ->
      List.map
        (fun config ->
          let r = Compile.run ~config ~calib:(machine_day 0) b.Benchmarks.circuit in
          Host.tick ();
          (b, r))
        [
          Config.make Config.Qiskit;
          Config.make Config.T_smt_star;
          Config.make (Config.R_smt_star 0.5);
        ])
    Benchmarks.all

let prepare ~seed =
  Calib_cache.clear ();
  let prep_ms = ref 0.0 in
  let jobs =
    List.mapi
      (fun j ((b : Benchmarks.t), (r : Compile.t)) ->
        let runner, ms = timed (fun () -> Experiments.runner_of r) in
        prep_ms := !prep_ms +. ms;
        Host.tick ();
        ( b,
          r,
          {
            label =
              Printf.sprintf "%s %s day %d" b.Benchmarks.name
                (Config.name r.Compile.config)
                r.Compile.calib.Nisq_device.Calibration.day;
            runner;
            trials;
            sim_seed = Hashtbl.hash (seed, j);
            clifford = Runner.clifford_capable runner;
            width = Runner.num_active_qubits runner;
            esp = r.Compile.esp;
          } ))
      (compile ())
  in
  (jobs, !prep_ms)

let sweep ~op jobs =
  List.map
    (fun j ->
      let rate =
        Span.with_
          ~name:(if j.clifford then "sim.stabilizer" else "sim.dense")
          ~op
          (fun () ->
            Runner.success_rate ~trials:j.trials ~pool:(Pool.default ())
              ~seed:j.sim_seed j.runner)
      in
      Host.tick ();
      rate)
    jobs

(* What a job set is, apart from its prepared runners: two set-ups must
   agree on it exactly. *)
let shape jobs =
  List.map (fun (_, _, j) -> (j.label, j.trials, j.sim_seed, j.width, j.esp)) jobs

let run ctx =
  let seed = ctx.seed in
  (* Set-up: compile, prepare and one warm-up sweep, from cold caches. *)
  let setup () =
    let (jobs, prep_ms, reference), _, ms =
      Host.timed (fun () ->
          let jobs, prep_ms = prepare ~seed in
          let js = List.map (fun (_, _, j) -> j) jobs in
          (jobs, prep_ms, sweep ~op:(-1) js))
    in
    (jobs, prep_ms, reference, ms /. 1000.0)
  in
  let jobs, prep_ms, reference, setup0 = setup () in
  (* Correctness: every compiled program's noiseless answer. *)
  let wrong =
    List.length
      (List.filter
         (fun ((b : Benchmarks.t), _, j) ->
           let got = Runner.ideal_answer j.runner in
           if got <> b.Benchmarks.expected then
             Printf.printf "# WRONG: %s answers %d, expected %d\n" j.label got
               b.Benchmarks.expected;
           got <> b.Benchmarks.expected)
         jobs)
  in
  (* A repeated set-up must rebuild the same job set and sweep it to the
     same rates; the ops keep running on the first one. *)
  let resetup_wrong = ref 0 in
  let resetup () =
    let jobs', _, reference', s = setup () in
    if shape jobs' <> shape jobs || reference' <> reference then (
      Printf.printf "# WRONG: a repeated set-up differs from the first\n";
      incr resetup_wrong);
    s
  in
  let jobs = List.map (fun (_, _, j) -> j) jobs in
  let widths = List.sort_uniq compare (List.map (fun j -> j.width) jobs) in
  Printf.printf "# jobs: %d, trials/sweep %d, widths %s, esp_geomean=%.17g\n"
    (List.length jobs)
    (List.fold_left (fun a j -> a + j.trials) 0 jobs)
    (String.concat " "
       (List.map
          (fun w ->
            Printf.sprintf "w%d:%d" w
              (List.length (List.filter (fun j -> j.width = w) jobs)))
          widths))
    (geomean (List.map (fun j -> j.esp) jobs));
  List.iter
    (fun j ->
      Printf.printf "#   %-32s width %2d trials %5d %s\n" j.label j.width j.trials
        (if j.clifford then "clifford" else "dense"))
    jobs;
  let success_geomean = geomean reference in
  (* A sweep repeats the set-up's seeds, so it must reproduce its rates
     bit for bit. *)
  let op i =
    let (rates, words), wall_ms, ms =
      Host.timed (fun () ->
          let w0 = minor_words () in
          let rates = sweep ~op:i jobs in
          (rates, minor_words () -. w0))
    in
    let bad = List.fold_left2 (fun n a b -> if a = b then n else n + 1) 0 rates reference in
    if bad > 0 then Printf.printf "# WRONG: sweep %d differs from set-up on %d jobs\n" i bad;
    (ms, wall_ms, words, bad)
  in
  let lat ops = List.map (fun (ms, _, _, _) -> ms) ops in
  let failed ops =
    (if wrong > 0 then 1 else 0)
    + !resetup_wrong
    + List.length (List.filter (fun (_, _, _, bad) -> bad > 0) ops)
  in
  (* The exact work of a list of sweeps, printed beside the timings. *)
  let work ops =
    let mwords =
      List.fold_left (fun a (_, _, w, _) -> a +. w) 0.0 ops
      /. 1e6 /. float_of_int (List.length ops)
    in
    Printf.printf "# work: sweeps=%d gc.minor_mwords/sweep=%.4f success_geomean=%.17g\n"
      (List.length ops) mwords success_geomean;
    mwords
  in
  let trials_where p =
    List.fold_left (fun a j -> if p j then a + j.trials else a) 0 jobs
  in
  Printf.printf "# prepare_ms=%.3f\n" prep_ms;
  let n = ops_for ~seconds:ctx.seconds ~rate ~tail_q in
  if not ctx.trace then (
    let ops, setups = run_ops ~resetup n op in
    ignore (work ops);
    wall_report ~label:name (List.map (fun (_, wall, _, _) -> wall) ops);
    let p50, tl =
      tail ~label:name tail_q
        (List.map (fun (ms, _, _, _) -> { ms; cls = "sweep" }) ops)
    in
    {
      attempted = List.length ops + 1;
      failed = failed ops;
      e2e =
        [
          ("setup_s", median (setup0 :: setups));
          ("ops_per_s", throughput (lat ops));
          ("latency_p50_ms", p50);
          ("latency_tail_ms", tl);
          ("peak_rss_mb", peak_rss_mb "self");
          ("esp_geomean", geomean (List.map (fun j -> j.esp) jobs));
          ("success_geomean", success_geomean);
        ];
      layers = [];
    })
  else (
    (* The same sweeps twice: traced, then not. *)
    let half = max 1 (n / 2) in
    Nisq_obs.Metrics.set_enabled true;
    Span.enabled := true;
    let h0 = counter "sim.clifford.hit" and f0 = counter "sim.clifford.fallback" in
    let traced, _ = run_ops half op in
    let h1 = counter "sim.clifford.hit" and f1 = counter "sim.clifford.fallback" in
    Span.enabled := false;
    Nisq_obs.Metrics.set_enabled false;
    let mwords = work traced in
    let untraced, _ = run_ops half op in
    let per_sweep name = median (Span.per_op name) in
    let rate trials ms = if ms = 0.0 then 0.0 else float_of_int trials /. (ms /. 1000.0) in
    let stab_ms = per_sweep "sim.stabilizer" and dense_ms = per_sweep "sim.dense" in
    let all = traced @ untraced in
    {
      attempted = List.length all + 1;
      failed = failed all;
      e2e = [];
      layers =
        [
          ("sim.prepare_ms", prep_ms);
          ("sim.stabilizer_ms", stab_ms);
          ("sim.stabilizer_trials_per_s", rate (trials_where (fun j -> j.clifford)) stab_ms);
          ("sim.dense_ms", dense_ms);
          ("sim.dense_trials_per_s", rate (trials_where (fun j -> not j.clifford)) dense_ms);
          ("sim.clifford_hit_ratio", ratio (h1 - h0) (f1 - f0));
          ("sim.success_geomean", success_geomean);
          ("gc.minor_mwords_per_op", mwords);
          ("obs.trace_overhead_ratio", throughput (lat traced) /. throughput (lat untraced));
        ];
    })
