(* recompile-daily: one op is one calibration day. The op parses and
   sanitizes the day's calibration text, then compiles the 12 Table-2
   programs under the 8 Table-1 configurations against it. *)

open Common
module Config = Nisq_compiler.Config
module Compile = Nisq_compiler.Compile
module Benchmarks = Nisq_bench.Benchmarks
module Experiments = Nisq_bench.Experiments
module Runner = Nisq_sim.Runner
module Calib_io = Nisq_device.Calib_io
module Calib_sanitize = Nisq_device.Calib_sanitize
module Calib_cache = Nisq_device.Calib_cache
module Calibration = Nisq_device.Calibration

(* A day takes about 0.55 s. A 15 s run times 27 days; p60 has ten
   beyond it from 25. *)
let rate = 1.8
let tail_q = 0.6

let config_class (c : Config.t) =
  match c.Config.method_ with
  | Config.T_smt | Config.T_smt_star -> "tsmt"
  | Config.R_smt_star _ -> "rsmt"
  | Config.Qiskit | Config.Greedy_v | Config.Greedy_e -> "heuristic"

let fallback (r : Compile.t) =
  match r.Compile.rung with
  | Some (Compile.Rung_capped | Compile.Rung_greedy) -> true
  | Some Compile.Rung_full | None -> false

let day_text ~seed k = Calib_io.to_string (calibration ~seed k)

let load ?previous ~op text =
  Span.with_ ~name:"device.calib_load" ~op (fun () ->
      match Calib_io.raw_of_string text with
      | Ok raw -> fst (Calib_sanitize.sanitize ?previous raw)
      | Error { Calib_io.line; message } ->
          failwith (Printf.sprintf "calibration line %d: %s" line message))

(* Compile the suite against one day; returns (config, bench, result). *)
let compile_day ~op calib =
  List.concat_map
    (fun (b : Benchmarks.t) ->
      List.map
        (fun config ->
          let r =
            Span.with_ ~name:"compile" ~op
              ~tag:(fun r ->
                config_class config ^ if fallback r then "+fallback" else "")
              (fun () -> Compile.run ~config ~calib b.Benchmarks.circuit)
          in
          Host.tick ();
          (config, b, r))
        Config.paper_suite)
    Benchmarks.all

(* Noiseless answer of every compiled program against the hand-written
   one. Returns the number of mismatches. *)
let check_day results =
  List.fold_left
    (fun bad (config, (b : Benchmarks.t), r) ->
      let got = Runner.ideal_answer (Experiments.runner_of r) in
      if got = b.Benchmarks.expected then bad
      else (
        Printf.printf "# WRONG: %s under %s answers %d, expected %d\n"
          b.Benchmarks.name (Config.name config) got b.Benchmarks.expected;
        bad + 1))
    0 results

type day = {
  lat_ms : float;  (** host-normalized *)
  wall_ms : float;
  esps : float list;
  fallbacks : int;
  mwords : float;
  wrong : int;
  cls : string;
}

let run ctx =
  let seed = ctx.seed in
  let text0 = day_text ~seed 0 in
  let setup_wrong = ref 0 in
  let prev = ref None in
  (* Set-up: the cold day-0 pass, from empty calibration caches. It
     leaves the day-0 calibration as the one day 1 is sanitized
     against. *)
  let setup () =
    Calib_cache.clear ();
    let (calib, results), _, ms =
      Host.timed (fun () ->
          let calib = load ~op:(-1) text0 in
          (calib, compile_day ~op:(-1) calib))
    in
    setup_wrong := !setup_wrong + check_day results;
    (calib, ms /. 1000.0)
  in
  let calib0, setup0 = setup () in
  prev := Some calib0;
  let op i =
    let text = day_text ~seed (i + 1) in
    let (results, words), wall_ms, ms =
      Host.timed (fun () ->
          let w0 = minor_words () in
          let calib = load ?previous:!prev ~op:i text in
          prev := Some calib;
          let results = compile_day ~op:i calib in
          (results, minor_words () -. w0))
    in
    let mwords = words /. 1e6 in
    let slowest =
      List.fold_left
        (fun (best, ms) (config, (b : Benchmarks.t), r) ->
          if r.Compile.compile_seconds > ms then
            ( Printf.sprintf "%s %s, rung %s" b.Benchmarks.name
                (Config.name config)
                (match r.Compile.rung with
                | Some g -> Compile.rung_name g
                | None -> "-"),
             r.Compile.compile_seconds)
          else (best, ms))
        ("", 0.0) results
    in
    {
      lat_ms = ms;
      wall_ms;
      esps = List.map (fun (_, _, r) -> r.Compile.esp) results;
      fallbacks = List.length (List.filter (fun (_, _, r) -> fallback r) results);
      mwords;
      wrong = check_day results;
      cls = Printf.sprintf "day %d (slowest compile %s)" (i + 1) (fst slowest);
    }
  in
  (* A set-up repeated between ops must not move the day the next op
     sanitizes against. *)
  let resetup () =
    let keep = !prev in
    let _, s = setup () in
    prev := keep;
    s
  in
  let n = ops_for ~seconds:ctx.seconds ~rate ~tail_q in
  let esp_geomean days = geomean (List.concat_map (fun d -> d.esps) days) in
  (* The exact work of a list of days, printed beside the timings. *)
  let work days =
    let fallbacks = List.fold_left (fun a d -> a + d.fallbacks) 0 days in
    let mwords = List.fold_left (fun a d -> a +. d.mwords) 0.0 days in
    let per_day x = x /. float_of_int (List.length days) in
    Printf.printf
      "# work: days=%d compiler.fallbacks=%d gc.minor_mwords/day=%.4f esp_geomean=%.17g\n"
      (List.length days) fallbacks (per_day mwords) (esp_geomean days);
    (per_day (float_of_int fallbacks), per_day mwords)
  in
  let failed_days days =
    (if !setup_wrong > 0 then 1 else 0)
    + List.length (List.filter (fun d -> d.wrong > 0) days)
  in
  let report_wrong days =
    Printf.printf "# wrong answers: %d\n"
      (!setup_wrong + List.fold_left (fun a d -> a + d.wrong) 0 days)
  in
  if not ctx.trace then (
    let days, setups = run_ops ~resetup n op in
    ignore (work days);
    wall_report ~label:"recompile-daily" (List.map (fun d -> d.wall_ms) days);
    let lat = List.map (fun d -> d.lat_ms) days in
    let p50, tl =
      tail ~label:"recompile-daily" tail_q
        (List.map (fun d -> { ms = d.lat_ms; cls = d.cls }) days)
    in
    report_wrong days;
    {
      attempted = List.length days + 1;
      failed = failed_days days;
      e2e =
        [
          ("setup_s", median (setup0 :: setups));
          ("ops_per_s", throughput lat);
          ("latency_p50_ms", p50);
          ("latency_tail_ms", tl);
          ("peak_rss_mb", peak_rss_mb "self");
          ("esp_geomean", esp_geomean days);
        ];
      layers = [];
    })
  else (
    (* The same days twice, from the same state: traced, then not. *)
    let half = max 1 (n / 2) in
    let snapshot () = (counter "solver.nodes", counter "cache.hit", counter "cache.miss") in
    Nisq_obs.Metrics.set_enabled true;
    Span.enabled := true;
    let n0, h0, m0 = snapshot () in
    let traced, _ = run_ops half op in
    let n1, h1, m1 = snapshot () in
    Span.enabled := false;
    Nisq_obs.Metrics.set_enabled false;
    let fallbacks, mwords = work traced in
    let nodes = float_of_int (n1 - n0) /. float_of_int half in
    Printf.printf "# work: solver.nodes/day=%.4f cache hit/miss=%d/%d\n" nodes
      (h1 - h0) (m1 - m0);
    prev := Some (fst (setup ()));
    let untraced, _ = run_ops half op in
    report_wrong (traced @ untraced);
    let class_ms cls =
      median
        (Span.per_op
           ~keep:(fun r -> String.starts_with ~prefix:cls r.Span.tag)
           "compile")
    in
    let days = traced @ untraced in
    {
      attempted = List.length days + 1;
      failed = failed_days days;
      e2e = [];
      layers =
        [
          ("device.calib_load_ms", median (Span.per_op "device.calib_load"));
          ("compiler.tsmt_ms", class_ms "tsmt");
          ("compiler.rsmt_ms", class_ms "rsmt");
          ("compiler.heuristic_ms", class_ms "heuristic");
          ( "compiler.fallback_ms",
            median
              (Span.per_op
                 ~keep:(fun r -> String.ends_with ~suffix:"+fallback" r.Span.tag)
                 "compile") );
          ("compiler.fallbacks", fallbacks);
          ("solver.nodes", nodes);
          ("device.cache_hit_ratio", ratio (h1 - h0) (m1 - m0));
          ("gc.minor_mwords_per_op", mwords);
          ( "obs.trace_overhead_ratio",
            throughput (List.map (fun d -> d.lat_ms) traced)
            /. throughput (List.map (fun d -> d.lat_ms) untraced) );
        ];
    })
