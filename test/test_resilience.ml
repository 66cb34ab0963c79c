(* Resilience layer: calibration sanitizing and quarantine, the solver
   fallback ladder, pool self-healing, and deterministic fault injection.

   Every test that arms the fault kit disarms it in a [Fun.protect]
   finalizer — an armed spec leaking out of a test would corrupt
   unrelated suites. *)

module Circuit = Nisq_circuit.Circuit
module Calibration = Nisq_device.Calibration
module Calib_io = Nisq_device.Calib_io
module Calib_sanitize = Nisq_device.Calib_sanitize
module Paths = Nisq_device.Paths
module Topology = Nisq_device.Topology
module Ibmq16 = Nisq_device.Ibmq16
module Faultkit = Nisq_faultkit.Faultkit
module Budget = Nisq_solver.Budget
module Placement = Nisq_solver.Placement
module Config = Nisq_compiler.Config
module Compile = Nisq_compiler.Compile
module Greedy = Nisq_compiler.Greedy
module Layout = Nisq_compiler.Layout
module Pool = Nisq_util.Pool
module Runner = Nisq_sim.Runner
module Benchmarks = Nisq_bench.Benchmarks
module Experiments = Nisq_bench.Experiments

let with_faults spec f =
  (match Faultkit.configure spec with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "bad fault spec %S: %s" spec msg);
  Fun.protect ~finally:Faultkit.clear f

let calib = Ibmq16.calibration ~day:0 ()

let hw_positions layout n = Array.init n (Layout.hw_of layout)

(* --------------------------- fault specs --------------------------- *)

let test_faultkit_parse () =
  with_faults "calib:nan@q3; solver:blow ;pool:crash@chunk7" (fun () ->
      Alcotest.(check bool) "armed" true (Faultkit.active () <> None);
      Alcotest.(check bool) "blow" true (Faultkit.solver_blow ());
      Alcotest.(check int) "one calib fault" 1
        (List.length (Faultkit.calib_faults ())));
  Alcotest.(check bool) "disarmed after" true (Faultkit.active () = None);
  Alcotest.(check bool) "blow off" false (Faultkit.solver_blow ())

let test_faultkit_rejects_garbage () =
  List.iter
    (fun spec ->
      match Faultkit.configure spec with
      | Ok () -> Alcotest.failf "spec %S accepted" spec
      | Error _ -> ())
    [ "calib:nan"; "calib:nan@x3"; "solver:blow@q1"; "pool:crash@7";
      "frobnicate" ];
  Faultkit.clear ()

let test_faultkit_pool_clause_is_one_shot () =
  with_faults "pool:crash@chunk2" (fun () ->
      Alcotest.(check bool) "fires" true
        (try Faultkit.chunk_check 2; false with Faultkit.Injected _ -> true);
      (* The clause disarmed itself: the retry must pass. *)
      Faultkit.chunk_check 2;
      Faultkit.chunk_check 2)

(* ------------------------ calibration repair ----------------------- *)

let test_sanitize_clean_is_identity () =
  let sane, report = Calib_sanitize.sanitize (Calib_sanitize.of_calibration calib) in
  Alcotest.(check bool) "clean" true (Calib_sanitize.is_clean report);
  Alcotest.(check bool) "fully live" true (Calibration.fully_live sane);
  Alcotest.(check (float 0.0)) "t1 untouched" calib.Calibration.t1_us.(5)
    sane.Calibration.t1_us.(5)

let test_sanitize_backfills_from_previous_day () =
  let today = Ibmq16.calibration ~day:1 () in
  let raw = Calib_sanitize.of_calibration today in
  raw.Calib_sanitize.t1_us.(2) <- Float.nan;
  raw.Calib_sanitize.readout_error.(4) <- -0.5;
  let sane, report = Calib_sanitize.sanitize ~previous:calib raw in
  Alcotest.(check int) "two repairs" 2 (Calib_sanitize.repairs report);
  Alcotest.(check (float 0.0)) "t1 from day 0" calib.Calibration.t1_us.(2)
    sane.Calibration.t1_us.(2);
  Alcotest.(check (float 0.0)) "readout from day 0"
    calib.Calibration.readout_error.(4)
    sane.Calibration.readout_error.(4);
  Alcotest.(check bool) "nothing quarantined" true (Calibration.fully_live sane)

let test_sanitize_falls_back_to_median () =
  let raw = Calib_sanitize.of_calibration calib in
  raw.Calib_sanitize.t2_us.(7) <- 0.0;
  let sane, report = Calib_sanitize.sanitize raw in
  Alcotest.(check int) "one repair" 1 (Calib_sanitize.repairs report);
  let valid =
    Array.to_list calib.Calibration.t2_us
    |> List.filteri (fun i _ -> i <> 7)
    |> List.sort compare
    |> Array.of_list
  in
  Alcotest.(check (float 0.0)) "median backfill"
    valid.(Array.length valid / 2)
    sane.Calibration.t2_us.(7)

let test_sanitize_quarantines_offline_qubit () =
  let raw =
    Calib_sanitize.apply_faults
      (Calib_sanitize.of_calibration calib)
      [ { Faultkit.target = Faultkit.Qubit 3; kind = Faultkit.Offline } ]
  in
  let sane, report = Calib_sanitize.sanitize raw in
  Alcotest.(check (list int)) "q3 quarantined" [ 3 ]
    report.Calib_sanitize.quarantined_qubits;
  Alcotest.(check bool) "mask applied" false (Calibration.qubit_live sane 3);
  Alcotest.(check int) "15 live" 15 (Calibration.num_live sane);
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "link %d-%d dead" a b)
        false (Calibration.link_live sane a b))
    (List.filter (fun (a, b) -> a = 3 || b = 3) (Topology.edges Ibmq16.topology))

let test_compile_around_quarantine () =
  let raw =
    Calib_sanitize.apply_faults
      (Calib_sanitize.of_calibration calib)
      [ { Faultkit.target = Faultkit.Qubit 3; kind = Faultkit.Offline } ]
  in
  let sane, _ = Calib_sanitize.sanitize raw in
  let bv8 = (Benchmarks.by_name "BV8").Benchmarks.circuit in
  List.iter
    (fun method_ ->
      let config = Config.make method_ in
      let r = Compile.run ~config ~calib:sane bv8 in
      Array.iteri
        (fun p hw ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: p%d avoids q3" (Config.name config) p)
            true (hw <> 3))
        (hw_positions r.Compile.layout bv8.Circuit.num_qubits);
      let runner = Experiments.runner_of r in
      let s = Runner.success_rate_seq ~trials:64 ~seed:11 runner in
      Alcotest.(check bool) "simulates" true (s >= 0.0 && s <= 1.0))
    [ Config.T_smt; Config.T_smt_star; Config.R_smt_star 0.5; Config.Greedy_v;
      Config.Greedy_e ]

(* Every single-field corruption — NaN / negative / zero in each qubit
   and edge field — must still compile and simulate all 12 paper
   benchmarks after sanitizing. *)
let test_single_field_corruption_matrix () =
  let corruptions =
    let q = [ Float.nan; -1.0; 0.0 ] in
    List.concat
      [
        List.map (fun v -> ("t1_us", fun (r : Calib_sanitize.raw) h -> r.Calib_sanitize.t1_us.(h) <- v)) q;
        List.map (fun v -> ("t2_us", fun (r : Calib_sanitize.raw) h -> r.Calib_sanitize.t2_us.(h) <- v)) q;
        (* 0.0 is a legal probability (a perfect readout), so the bad
           values for probability fields are NaN, negative and > 1. *)
        List.map (fun v -> ("readout", fun (r : Calib_sanitize.raw) h -> r.Calib_sanitize.readout_error.(h) <- v)) [ Float.nan; -1.0; 1.5 ];
        List.map (fun v -> ("single", fun (r : Calib_sanitize.raw) h -> r.Calib_sanitize.single_error.(h) <- v)) [ Float.nan; -1.0; 1.5 ];
        List.map
          (fun v ->
            ( "cnot_error",
              fun (r : Calib_sanitize.raw) h ->
                let a, b = List.nth (Topology.edges Ibmq16.topology) h in
                r.Calib_sanitize.cnot_error.(a).(b) <- v;
                r.Calib_sanitize.cnot_error.(b).(a) <- v ))
          [ 2.0; Float.nan; -1.0 ];
        List.map
          (fun v ->
            ( "cnot_duration",
              fun (r : Calib_sanitize.raw) h ->
                let a, b = List.nth (Topology.edges Ibmq16.topology) h in
                r.Calib_sanitize.cnot_duration.(a).(b) <- v;
                r.Calib_sanitize.cnot_duration.(b).(a) <- v ))
          [ 0; -4 ];
      ]
  in
  List.iteri
    (fun i (field, corrupt) ->
      let raw = Calib_sanitize.of_calibration calib in
      corrupt raw (i mod List.length (Topology.edges Ibmq16.topology));
      let sane, report = Calib_sanitize.sanitize raw in
      Alcotest.(check bool)
        (Printf.sprintf "%s corruption %d reported" field i)
        false
        (Calib_sanitize.is_clean report);
      List.iter
        (fun (b : Benchmarks.t) ->
          let r =
            Compile.run ~config:(Config.make Config.Greedy_e) ~calib:sane
              b.Benchmarks.circuit
          in
          let s =
            Runner.success_rate_seq ~trials:16 ~seed:3
              (Experiments.runner_of r)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s compiles+simulates" field b.Benchmarks.name)
            true
            (s >= 0.0 && s <= 1.0))
        Benchmarks.all)
    corruptions

(* ------------------------- solver fallback ------------------------- *)

let test_budget_blow_marks_degraded () =
  with_faults "solver:blow" (fun () ->
      let c = Budget.Clock.start Budget.unlimited in
      Alcotest.(check bool) "pre-exhausted" false (Budget.Clock.tick c);
      let s = Budget.Clock.stats c ~exhausted:false in
      Alcotest.(check bool) "degraded" true s.Budget.degraded;
      Alcotest.(check bool) "not optimal" false s.Budget.proven_optimal);
  let c = Budget.Clock.start Budget.unlimited in
  Alcotest.(check bool) "healthy ticks" true (Budget.Clock.tick c);
  Alcotest.(check bool) "healthy not degraded" false
    (Budget.Clock.stats c ~exhausted:true).Budget.degraded

let test_placement_forbid_avoids_slots () =
  let n = 4 and slots = 8 in
  let unary = Array.make_matrix n slots 0.0 in
  for i = 0 to n - 1 do
    (* Forbidden slots carry the best scores: the solver must resist. *)
    unary.(i).(0) <- 10.0;
    unary.(i).(1) <- 9.0
  done;
  let p = { Placement.num_items = n; num_slots = slots; unary; pairwise = [] } in
  let sol = Placement.solve ~forbid:(fun s -> s < 2) p in
  Array.iter
    (fun s -> Alcotest.(check bool) "slot allowed" true (s >= 2))
    sol.Placement.assignment;
  Alcotest.(check bool) "too few live slots rejected" true
    (try
       ignore (Placement.solve ~forbid:(fun s -> s < 5) p);
       false
     with Invalid_argument _ -> true)

let test_fallback_ladder_reaches_greedy () =
  let bv4 = (Benchmarks.by_name "BV4").Benchmarks.circuit in
  with_faults "solver:blow" (fun () ->
      (* T-SMT*: the greedy rung is GreedyV against the real calibration. *)
      let r = Compile.run ~config:(Config.make Config.T_smt_star) ~calib bv4 in
      Alcotest.(check bool) "greedy rung" true
        (r.Compile.rung = Some Compile.Rung_greedy);
      Alcotest.(check bool) "stats degraded" true
        (match r.Compile.solver_stats with
        | Some s -> s.Budget.degraded
        | None -> false);
      let expected = Greedy.vertex_first (Paths.make calib) bv4 in
      Alcotest.(check (array int)) "matches GreedyV exactly"
        (hw_positions expected bv4.Circuit.num_qubits)
        (hw_positions r.Compile.layout bv4.Circuit.num_qubits);
      (* R-SMT*: the greedy rung is GreedyE. *)
      let r = Compile.run ~config:(Config.make (Config.R_smt_star 0.5)) ~calib bv4 in
      Alcotest.(check bool) "greedy rung (rsmt)" true
        (r.Compile.rung = Some Compile.Rung_greedy);
      let expected = Greedy.edge_first (Paths.make calib) bv4 in
      Alcotest.(check (array int)) "matches GreedyE exactly"
        (hw_positions expected bv4.Circuit.num_qubits)
        (hw_positions r.Compile.layout bv4.Circuit.num_qubits));
  (* Fault cleared: the full rung succeeds again. *)
  let r = Compile.run ~config:(Config.make Config.T_smt_star) ~calib bv4 in
  Alcotest.(check bool) "full rung when healthy" true
    (r.Compile.rung = Some Compile.Rung_full)

let test_capped_rung_when_budget_tiny () =
  (* A 1-node configured budget blows, the 20k-node second rung holds on
     a 4-qubit instance: the ladder stops at Rung_capped. *)
  let bv4 = (Benchmarks.by_name "BV4").Benchmarks.circuit in
  let config =
    Config.make ~budget:(Budget.nodes 1) (Config.R_smt_star 0.5)
  in
  let r = Compile.run ~config ~calib bv4 in
  Alcotest.(check bool) "capped rung" true
    (r.Compile.rung = Some Compile.Rung_capped);
  Alcotest.(check bool) "positive esp" true (r.Compile.esp > 0.0)

(* ----------------------------- the pool ---------------------------- *)

let test_pool_crash_retry_is_bit_identical () =
  let r = Compile.run ~config:(Config.make Config.Greedy_e) ~calib
      (Benchmarks.by_name "BV4").Benchmarks.circuit
  in
  let runner = Experiments.runner_of r in
  let pool = Pool.create ~size:2 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let clean = Runner.success_rate ~trials:1024 ~pool ~seed:99 runner in
  let crashed =
    with_faults "pool:crash@chunk1" (fun () ->
        Runner.success_rate ~trials:1024 ~pool ~seed:99 runner)
  in
  Alcotest.(check (float 0.0)) "crash invisible in results" clean crashed

let test_pool_crash_sequential_path () =
  let pool = Pool.create ~size:0 () in
  let seen = ref [] in
  let out =
    with_faults "pool:crash@chunk0" (fun () ->
        Pool.parallel_chunks pool ~chunks:3 (fun i ->
            seen := i :: !seen;
            i * i))
  in
  Alcotest.(check (list int)) "results in order" [ 0; 1; 4 ] out;
  (* The injection fires before the chunk body, so the body runs exactly
     once — on the retry. Results are as if nothing happened. *)
  Alcotest.(check (list int)) "each chunk ran once" [ 2; 1; 0 ] !seen

let test_pool_kill_respawns_worker () =
  let pool = Pool.create ~size:2 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let square i = i * i in
  let expected = List.init 8 square in
  let killed =
    with_faults "pool:kill@chunk3" (fun () ->
        Pool.parallel_chunks pool ~chunks:8 square)
  in
  Alcotest.(check (list int)) "no chunk lost to the kill" expected killed;
  (* The next call heals the pool and completes normally. *)
  Alcotest.(check (list int)) "pool still works" expected
    (Pool.parallel_chunks pool ~chunks:8 square)

let test_pool_double_failure_raises () =
  (* A chunk that fails deterministically (not via the one-shot fault
     kit) fails its retry too; the exception must surface. *)
  let pool = Pool.create ~size:0 () in
  Alcotest.(check bool) "raises after retry" true
    (try
       ignore
         (Pool.parallel_chunks pool ~chunks:2 (fun i ->
              if i = 1 then failwith "perma" else i));
       false
     with Failure _ -> true)

(* ----------------------- end-to-end injection ---------------------- *)

let test_triple_fault_run_completes () =
  with_faults "calib:nan@q3;solver:blow;pool:crash@chunk0" (fun () ->
      let raw =
        Calib_sanitize.apply_faults
          (Calib_sanitize.of_calibration calib)
          (Faultkit.calib_faults ())
      in
      let sane, report = Calib_sanitize.sanitize raw in
      Alcotest.(check bool) "repairs reported" true
        (Calib_sanitize.repairs report > 0);
      let r =
        Compile.run ~config:(Config.make (Config.R_smt_star 0.5)) ~calib:sane
          (Benchmarks.by_name "BV4").Benchmarks.circuit
      in
      Alcotest.(check bool) "degraded rung" true
        (r.Compile.rung <> Some Compile.Rung_full);
      let pool = Pool.create ~size:2 () in
      Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
      let s =
        Runner.success_rate ~trials:512 ~pool ~seed:7
          (Experiments.runner_of r)
      in
      Alcotest.(check bool) "still answers" true (s >= 0.0 && s <= 1.0))

let suite =
  [
    ("faultkit parse and disarm", `Quick, test_faultkit_parse);
    ("faultkit rejects garbage", `Quick, test_faultkit_rejects_garbage);
    ("faultkit pool clause one-shot", `Quick, test_faultkit_pool_clause_is_one_shot);
    ("sanitize clean identity", `Quick, test_sanitize_clean_is_identity);
    ("sanitize previous-day backfill", `Quick, test_sanitize_backfills_from_previous_day);
    ("sanitize median backfill", `Quick, test_sanitize_falls_back_to_median);
    ("sanitize quarantines offline qubit", `Quick, test_sanitize_quarantines_offline_qubit);
    ("compile around quarantine", `Quick, test_compile_around_quarantine);
    ("single-field corruption matrix", `Slow, test_single_field_corruption_matrix);
    ("budget blow marks degraded", `Quick, test_budget_blow_marks_degraded);
    ("placement forbid avoids slots", `Quick, test_placement_forbid_avoids_slots);
    ("fallback ladder reaches greedy", `Quick, test_fallback_ladder_reaches_greedy);
    ("capped rung on tiny budget", `Quick, test_capped_rung_when_budget_tiny);
    ("pool crash retry bit-identical", `Quick, test_pool_crash_retry_is_bit_identical);
    ("pool crash sequential path", `Quick, test_pool_crash_sequential_path);
    ("pool kill respawns worker", `Quick, test_pool_kill_respawns_worker);
    ("pool double failure raises", `Quick, test_pool_double_failure_raises);
    ("triple fault run completes", `Quick, test_triple_fault_run_completes);
  ]
