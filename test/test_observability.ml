(* Tests for the deep-observability layer: the Prometheus text
   exposition and its quantile estimator, the structured event ledger
   (overflow, drop accounting, export shape — deterministic for any
   pool size), compile explain reports (byte-identity with the
   report-less compile, ESP decomposition arithmetic, solver evidence,
   cache provenance) and the benchwatch regression sentinel.

   Everything here touches process-global observability state, so each
   test restores the disabled/empty default on exit. *)

module Json = Nisq_obs.Json
module Metrics = Nisq_obs.Metrics
module Events = Nisq_obs.Events
module Report = Nisq_obs.Report
module Pool = Nisq_util.Pool
module Calib_cache = Nisq_device.Calib_cache
module Config = Nisq_compiler.Config
module Compile = Nisq_compiler.Compile
module Ibmq16 = Nisq_device.Ibmq16
module Benchmarks = Nisq_bench.Benchmarks
module Benchwatch = Nisq_bench.Benchwatch

let obs_off () =
  Metrics.set_enabled false;
  Metrics.reset ();
  Events.set_enabled false;
  Events.reset ();
  Events.configure ~capacity:512 ();
  Report.set_enabled false

(* --------------------------- Prometheus ---------------------------- *)

(* Golden scrape of a tiny registry: exact text, so any drift in name
   sanitization, HELP/TYPE lines, bucket cumulativity or float
   rendering shows up as a diff. *)
let test_prom_golden () =
  obs_off ();
  Metrics.set_enabled true;
  Fun.protect ~finally:obs_off @@ fun () ->
  let c = Metrics.counter "prom.test-counter" in
  let g = Metrics.gauge "prom.test.gauge" in
  let h = Metrics.histogram "prom.test.hist" ~bounds:[| 1.0; 2.0 |] in
  Metrics.add c 7;
  Metrics.set g 2.5;
  List.iter (Metrics.observe h) [ 0.5; 1.5; 1.5; 9.0 ];
  let out = Metrics.to_prometheus () in
  (* The registry is process-global (every linked module registers at
     init), so the golden comparison is per family: each family renders
     as one contiguous, exactly-known block inside the scrape. *)
  List.iter
    (fun block ->
      Alcotest.(check bool)
        ("scrape contains: " ^ String.sub block 0 40)
        true
        (Astring_contains.contains out block))
    [
      String.concat ""
        [
          "# HELP nisq_prom_test_counter nisq metric prom.test-counter\n";
          "# TYPE nisq_prom_test_counter counter\n";
          "nisq_prom_test_counter 7\n";
        ];
      String.concat ""
        [
          "# HELP nisq_prom_test_gauge nisq metric prom.test.gauge\n";
          "# TYPE nisq_prom_test_gauge gauge\n";
          "nisq_prom_test_gauge 2.5\n";
        ];
      String.concat ""
        [
          "# HELP nisq_prom_test_hist nisq metric prom.test.hist\n";
          "# TYPE nisq_prom_test_hist histogram\n";
          "nisq_prom_test_hist_bucket{le=\"1\"} 1\n";
          "nisq_prom_test_hist_bucket{le=\"2\"} 3\n";
          "nisq_prom_test_hist_bucket{le=\"+Inf\"} 4\n";
          "nisq_prom_test_hist_sum 12.5\n";
          "nisq_prom_test_hist_count 4\n";
        ];
    ]

let test_prom_label_escaping () =
  Alcotest.(check string)
    "backslash, quote, newline" "a\\\\b\\\"c\\nd"
    (Metrics.escape_label_value "a\\b\"c\nd")

(* The scrape must stay parseable by the jsonlint --prom rules: every
   sample under a TYPE, buckets non-decreasing, +Inf equals _count. *)
let test_prom_shape () =
  obs_off ();
  Metrics.set_enabled true;
  Fun.protect ~finally:obs_off @@ fun () ->
  let h = Metrics.histogram "prom.shape.hist" ~bounds:[| 10.0; 100.0 |] in
  List.iter (Metrics.observe h) [ 5.0; 50.0; 500.0 ];
  let out = Metrics.to_prometheus () in
  let lines = String.split_on_char '\n' out in
  let bucket_counts =
    List.filter_map
      (fun l ->
        if Astring_contains.contains l "nisq_prom_shape_hist_bucket{" then
          String.rindex_opt l ' '
          |> Option.map (fun i ->
                 float_of_string
                   (String.sub l (i + 1) (String.length l - i - 1)))
        else None)
      lines
  in
  Alcotest.(check (list (float 0.0)))
    "cumulative buckets" [ 1.0; 2.0; 3.0 ] bucket_counts;
  Alcotest.(check bool)
    "count series present" true
    (List.exists (fun l -> l = "nisq_prom_shape_hist_count 3") lines)

let test_quantile () =
  obs_off ();
  Metrics.set_enabled true;
  Fun.protect ~finally:obs_off @@ fun () ->
  let h = Metrics.histogram "prom.quantile.hist" ~bounds:[| 10.0; 20.0; 30.0 |] in
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Metrics.quantile h 0.5));
  (* 10 observations in (10,20]: the bucket is interpolated linearly. *)
  for _ = 1 to 10 do
    Metrics.observe h 15.0
  done;
  Alcotest.(check (float 1e-9)) "p50 mid-bucket" 15.0 (Metrics.quantile h 0.5);
  Alcotest.(check (float 1e-9)) "p100 bucket top" 20.0 (Metrics.quantile h 1.0);
  (* overflow observations clamp to the last finite bound *)
  Metrics.observe h 1e9;
  Alcotest.(check (float 1e-9)) "overflow clamps" 30.0 (Metrics.quantile h 1.0);
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Metrics.quantile: q must be within [0, 1]") (fun () ->
      ignore (Metrics.quantile h 1.5))

(* --------------------------- event ledger -------------------------- *)

(* Overflow is drop-oldest with an exact drop counter; emitting from
   the test domain makes the outcome deterministic regardless of how
   many pool domains exist, which the pool-size sweep below pins. *)
let overflow_trial () =
  let capacity = 8 and emitted = 13 in
  Events.configure ~capacity ();
  Events.set_enabled true;
  for i = 0 to emitted - 1 do
    Events.emit ~domain:"test" Events.Info
      (Printf.sprintf "event %d" i)
      ~fields:[ ("i", string_of_int i) ]
  done;
  let evs = Events.events () in
  Alcotest.(check int) "total counts drops" emitted (Events.total ());
  Alcotest.(check int) "dropped" (emitted - capacity) (Events.dropped ());
  Alcotest.(check int) "ring keeps newest capacity" capacity (List.length evs);
  Alcotest.(check (list string))
    "newest events survive in order"
    (List.init capacity (fun i ->
         Printf.sprintf "event %d" (emitted - capacity + i)))
    (List.map (fun (e : Events.event) -> e.Events.message) evs);
  let seqs = List.map (fun (e : Events.event) -> e.Events.seq) evs in
  Alcotest.(check (list int))
    "per-ring seq is monotonic"
    (List.init capacity (fun i -> emitted - capacity + i))
    seqs

let test_event_overflow () =
  obs_off ();
  Fun.protect ~finally:obs_off overflow_trial

(* The same overload must resolve identically while worker pools of
   size 0, 1 and 4 exist: rings are per-domain, and idle workers never
   touch the test domain's ring. *)
let test_event_overflow_pool_sizes () =
  obs_off ();
  Fun.protect ~finally:obs_off @@ fun () ->
  List.iter
    (fun size ->
      let pool = Pool.create ~size () in
      Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
      ignore (Pool.parallel_chunks pool ~chunks:4 (fun i -> i));
      Events.reset ();
      overflow_trial ())
    [ 0; 1; 4 ]

let test_event_export_shape () =
  obs_off ();
  Events.set_enabled true;
  Fun.protect ~finally:obs_off @@ fun () ->
  Events.emit ~domain:"test" Events.Info "first" ~fields:[ ("k", "v") ];
  Events.emit ~domain:"test" Events.Debug "second";
  let jsonl = Events.export_jsonl () in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' jsonl)
  in
  Alcotest.(check int) "one line per event" 2 (List.length lines);
  List.iter
    (fun line ->
      match Json.of_string line with
      | Ok (Json.Obj _ as o) ->
          List.iter
            (fun k ->
              Alcotest.(check bool)
                (k ^ " present") true
                (Json.member k o <> None))
            [ "ts_ns"; "tid"; "seq"; "domain"; "severity"; "msg"; "fields" ]
      | Ok _ -> Alcotest.fail "ledger line is not an object"
      | Error msg -> Alcotest.failf "ledger line unparseable: %s" msg)
    lines;
  match Events.export_json () with
  | Json.Obj kvs ->
      Alcotest.(check bool)
        "document schema" true
        (List.assoc_opt "schema" kvs = Some (Json.String "nisq-events/1"))
  | _ -> Alcotest.fail "export_json is not an object"

(* A disabled Debug/Info emit must not allocate: the ledger's cost
   model promises the disabled path is branch-and-return. *)
let test_event_disabled_no_alloc () =
  obs_off ();
  let probe () =
    let before = Gc.minor_words () in
    for _ = 1 to 1000 do
      Events.emit ~domain:"test" Events.Debug "tick"
    done;
    Gc.minor_words () -. before
  in
  ignore (probe ());
  Alcotest.(check (float 0.0)) "no allocation when disabled" 0.0 (probe ())

(* ------------------------- explain reports ------------------------- *)

let calib = Ibmq16.calibration ~day:0 ()

let compile_once ?(report = false) name =
  Calib_cache.clear ();
  Metrics.reset ();
  Report.set_enabled report;
  let circuit = (Benchmarks.by_name name).Benchmarks.circuit in
  let r =
    Compile.run ~config:(Config.make (Config.R_smt_star 0.5)) ~calib circuit
  in
  (Compile.to_qasm r, Metrics.counter_values (), r)

(* Arming report collection must not change the compile: QASM and the
   deterministic counter slice are byte-identical with and without it. *)
let test_report_byte_identity () =
  obs_off ();
  Metrics.set_enabled true;
  Fun.protect ~finally:obs_off @@ fun () ->
  let qasm_off, counters_off, r_off = compile_once "Adder" in
  let qasm_on, counters_on, r_on = compile_once ~report:true "Adder" in
  Alcotest.(check bool) "no report when off" true (r_off.Compile.report = None);
  Alcotest.(check bool) "report when on" true (r_on.Compile.report <> None);
  Alcotest.(check string) "identical QASM" qasm_off qasm_on;
  Alcotest.(check (list (pair string int)))
    "identical counters" counters_off counters_on

let test_report_esp_and_validate () =
  obs_off ();
  Metrics.set_enabled true;
  Fun.protect ~finally:obs_off @@ fun () ->
  let _, _, r = compile_once ~report:true "Adder" in
  let rep = Option.get r.Compile.report in
  (* the decomposition multiplies back to the published ESP *)
  let product =
    List.fold_left
      (fun acc (t : Report.esp_term) -> acc *. t.Report.contribution)
      1.0 rep.Report.esp.Report.terms
  in
  Alcotest.(check (float 1e-9)) "terms multiply to predicted"
    rep.Report.esp.Report.predicted product;
  Alcotest.(check (float 1e-9)) "predicted is the compile ESP"
    r.Compile.esp rep.Report.esp.Report.predicted;
  Alcotest.(check bool) "routing overhead >= 1" true
    (rep.Report.esp.Report.routing_overhead >= 1.0);
  (* Adder on the rsmt path routes: swap terms must appear *)
  Alcotest.(check bool) "has swap terms" true
    (List.exists
       (fun (t : Report.esp_term) -> t.Report.channel = "swap")
       rep.Report.esp.Report.terms);
  (* solver evidence: full rung, live bound ladder *)
  (match rep.Report.solver with
  | None -> Alcotest.fail "rsmt compile must carry solver evidence"
  | Some s ->
      Alcotest.(check string) "rung" "full" s.Report.rung;
      Alcotest.(check bool) "nodes visited" true (s.Report.nodes_visited > 0);
      Alcotest.(check bool) "bound ladder recorded" true
        (List.exists (fun (_, n) -> n > 0) s.Report.bound_hits));
  (* the document validates, and survives a JSON round-trip *)
  (match Report.validate (Report.to_json rep) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "validate: %s" msg);
  match Json.of_string (Json.to_string (Report.to_json rep)) with
  | Ok v -> (
      match Report.validate v with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "validate after round-trip: %s" msg)
  | Error msg -> Alcotest.failf "report JSON unparseable: %s" msg

let test_report_cache_provenance () =
  obs_off ();
  Metrics.set_enabled true;
  Fun.protect ~finally:obs_off @@ fun () ->
  let _, _, first = compile_once ~report:true "BV4" in
  let delta name (rep : Report.t) =
    match
      List.find_opt (fun (c : Report.cache) -> c.Report.cache = name) rep.Report.caches
    with
    | Some c -> (c.Report.hits, c.Report.misses)
    | None -> Alcotest.failf "cache %s missing from report" name
  in
  let rep1 = Option.get first.Compile.report in
  Alcotest.(check (pair int int)) "cold layout compile misses" (0, 1)
    (delta "compiler.layout" rep1);
  (* same program again, cache retained: the layout memo must hit *)
  Report.set_enabled true;
  let circuit = (Benchmarks.by_name "BV4").Benchmarks.circuit in
  let second =
    Compile.run ~config:(Config.make (Config.R_smt_star 0.5)) ~calib circuit
  in
  let rep2 = Option.get second.Compile.report in
  Alcotest.(check (pair int int)) "warm layout compile hits" (1, 0)
    (delta "compiler.layout" rep2);
  Alcotest.(check bool) "not flagged as bypassed" true
    (not rep2.Report.cache_bypassed)

(* --------------------------- benchwatch ---------------------------- *)

let trajectory entries =
  Json.Obj
    [
      ("schema", Json.String "nisq-bench-compile/2");
      ( "trajectory",
        Json.List
          (List.map
             (fun (date, rows) ->
               Json.Obj
                 [
                   ("date", Json.String date);
                   ( "benchmarks",
                     Json.List
                       (List.map
                          (fun (name, ns) ->
                            Json.Obj
                              [
                                ("name", Json.String name);
                                ("ns_per_run", Json.Float ns);
                              ])
                          rows) );
                 ])
             entries) );
    ]

let analysis_exn v =
  match Benchwatch.analyze v with
  | Ok a -> a
  | Error msg -> Alcotest.failf "analyze: %s" msg

(* The sentinel's reason to exist: an injected 2x slowdown on one
   benchmark must fail the gate while the steady one passes. *)
let test_benchwatch_catches_slowdown () =
  let a =
    analysis_exn
      (trajectory
         [
           ("d1", [ ("dfs", 100.0); ("paths", 50.0) ]);
           ("d2", [ ("dfs", 110.0); ("paths", 52.0) ]);
           ("d3", [ ("dfs", 90.0); ("paths", 48.0) ]);
           ("d4", [ ("dfs", 200.0); ("paths", 49.0) ]);
         ])
  in
  Alcotest.(check int) "one failure" 1 a.Benchwatch.failures;
  let dfs =
    List.find (fun (v : Benchwatch.verdict) -> v.Benchwatch.name = "dfs") a.Benchwatch.verdicts
  in
  Alcotest.(check bool) "dfs regressed" true dfs.Benchwatch.regressed;
  (* baseline is the median of 100/110/90 = 100, so the ratio is 2.0 *)
  Alcotest.(check (option (float 1e-9))) "ratio 2x" (Some 2.0) dfs.Benchwatch.ratio;
  let paths =
    List.find (fun (v : Benchwatch.verdict) -> v.Benchwatch.name = "paths") a.Benchwatch.verdicts
  in
  Alcotest.(check bool) "paths ok" false paths.Benchwatch.regressed;
  Alcotest.(check bool) "render says FAIL" true
    (Astring_contains.contains (Benchwatch.render a) "FAIL")

let test_benchwatch_vacuous_cases () =
  (* a single entry has no baseline: vacuous pass *)
  let single = analysis_exn (trajectory [ ("d1", [ ("dfs", 100.0) ]) ]) in
  Alcotest.(check int) "single entry passes" 0 single.Benchwatch.failures;
  (* a brand-new benchmark is reported but never failed *)
  let witness =
    analysis_exn
      (trajectory
         [ ("d1", [ ("dfs", 100.0) ]); ("d2", [ ("dfs", 101.0); ("new", 9e9) ]) ])
  in
  Alcotest.(check int) "new benchmark passes" 0 witness.Benchwatch.failures;
  let nv =
    List.find (fun (v : Benchwatch.verdict) -> v.Benchwatch.name = "new") witness.Benchwatch.verdicts
  in
  Alcotest.(check bool) "no baseline for new" true (nv.Benchwatch.baseline_ns = None);
  (* the window bounds how much history feeds the median *)
  let windowed =
    match
      Benchwatch.analyze ~window:2
        (trajectory
           [
             ("d1", [ ("dfs", 1000.0) ]);
             ("d2", [ ("dfs", 100.0) ]);
             ("d3", [ ("dfs", 102.0) ]);
             ("d4", [ ("dfs", 104.0) ]);
           ])
    with
    | Ok a -> a
    | Error msg -> Alcotest.failf "analyze: %s" msg
  in
  Alcotest.(check int) "old spike outside window is ignored" 0
    windowed.Benchwatch.failures;
  (* malformed documents are errors, not crashes *)
  match Benchwatch.analyze (Json.Obj [ ("schema", Json.String "bogus/9") ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown schema must not analyze"

let suite =
  [
    Alcotest.test_case "prom: golden scrape" `Quick test_prom_golden;
    Alcotest.test_case "prom: label escaping" `Quick test_prom_label_escaping;
    Alcotest.test_case "prom: scrape shape" `Quick test_prom_shape;
    Alcotest.test_case "prom: quantile estimation" `Quick test_quantile;
    Alcotest.test_case "events: overflow drops oldest" `Quick test_event_overflow;
    Alcotest.test_case "events: overflow at pool sizes 0/1/4" `Quick
      test_event_overflow_pool_sizes;
    Alcotest.test_case "events: export shape" `Quick test_event_export_shape;
    Alcotest.test_case "events: disabled emit never allocates" `Quick
      test_event_disabled_no_alloc;
    Alcotest.test_case "report: byte-identity across pool sizes" `Quick
      test_report_byte_identity;
    Alcotest.test_case "report: ESP decomposition and validation" `Quick
      test_report_esp_and_validate;
    Alcotest.test_case "report: cache provenance" `Quick
      test_report_cache_provenance;
    Alcotest.test_case "benchwatch: catches a 2x slowdown" `Quick
      test_benchwatch_catches_slowdown;
    Alcotest.test_case "benchwatch: vacuous and windowed cases" `Quick
      test_benchwatch_vacuous_cases;
  ]
