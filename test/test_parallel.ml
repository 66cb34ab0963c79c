(* Budget degradation when capped solves and compiles run concurrently
   on worker domains: the sequential solver and the compile fallback
   ladder are spread over a Pool, and every chunk must still degrade
   feasibly and agree bit for bit with the other pool sizes. *)

module Budget = Nisq_solver.Budget
module Placement = Nisq_solver.Placement
module Pool = Nisq_util.Pool
module Rng = Nisq_util.Rng
module Config = Nisq_compiler.Config
module Compile = Nisq_compiler.Compile
module Ibmq16 = Nisq_device.Ibmq16
module Benchmarks = Nisq_bench.Benchmarks

let random_problem rng ~items ~slots ~pairs =
  let unary =
    Array.init items (fun _ ->
        Array.init slots (fun _ -> -.Rng.float rng 1.0))
  in
  let pairwise =
    List.init pairs (fun _ ->
        let i = Rng.int rng (items - 1) in
        let j = i + 1 + Rng.int rng (items - i - 1) in
        let m =
          Array.init slots (fun _ ->
              Array.init slots (fun _ -> -.Rng.float rng 1.0))
        in
        (i, j, m))
  in
  { Placement.num_items = items; num_slots = slots; unary; pairwise }

let with_pool size f =
  let pool = Pool.create ~size () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let check_identical what (a : Placement.solution) (b : Placement.solution) =
  Alcotest.(check (array int))
    (what ^ ": assignment") a.Placement.assignment b.Placement.assignment;
  Alcotest.(check int64)
    (what ^ ": objective bits")
    (Int64.bits_of_float a.Placement.objective)
    (Int64.bits_of_float b.Placement.objective);
  Alcotest.(check int)
    (what ^ ": nodes")
    a.Placement.stats.Budget.nodes_visited
    b.Placement.stats.Budget.nodes_visited

let chunks = 4

let test_capped_parallel_degrades_feasibly () =
  let rng = Rng.create 31 in
  let p = random_problem rng ~items:6 ~slots:9 ~pairs:6 in
  let solve size =
    with_pool size (fun pool ->
        Pool.parallel_chunks pool ~chunks (fun _ ->
            Placement.solve ~budget:(Budget.nodes 1) p))
  in
  let seq = Placement.solve ~budget:(Budget.nodes 1) p in
  let r0 = solve 0 and r4 = solve 4 in
  List.iteri
    (fun i (a, b) ->
      let tag = Printf.sprintf "chunk %d" i in
      Alcotest.(check bool) (tag ^ ": degraded") true
        a.Placement.stats.Budget.degraded;
      Alcotest.(check bool) (tag ^ ": not proven") false
        a.Placement.stats.Budget.proven_optimal;
      check_identical (tag ^ " pools 0/4") a b;
      check_identical (tag ^ " vs sequential") seq a;
      let seen = Hashtbl.create 8 in
      Array.iter
        (fun slot ->
          Alcotest.(check bool) "feasible slot" true (slot >= 0 && slot < 9);
          Alcotest.(check bool) "feasible distinct" false
            (Hashtbl.mem seen slot);
          Hashtbl.add seen slot ())
        a.Placement.assignment)
    (List.combine r0 r4)

(* A blown full budget walks the fallback ladder on every worker: the
   node-capped retry succeeds at BV4 scale, and each concurrent compile
   produces the same valid executable as a compile in the caller. *)
let test_compile_fallback_ladder_under_parallel () =
  let calib = Ibmq16.calibration ~day:0 () in
  let bv4 = (Benchmarks.by_name "BV4").Benchmarks.circuit in
  let config = Config.make ~budget:(Budget.nodes 1) (Config.R_smt_star 0.5) in
  let seq = Compile.run ~config ~calib bv4 in
  let results =
    with_pool 2 (fun pool ->
        Pool.parallel_chunks pool ~chunks (fun _ ->
            Compile.run ~config ~calib bv4))
  in
  List.iteri
    (fun i (r : Compile.t) ->
      (match r.Compile.rung with
      | Some Compile.Rung_capped -> ()
      | Some other ->
          Alcotest.failf "chunk %d: expected node-capped rung, got %s" i
            (Compile.rung_name other)
      | None -> Alcotest.failf "chunk %d: SMT compile reported no rung" i);
      Alcotest.(check bool) "positive esp" true (r.Compile.esp > 0.0);
      Alcotest.(check int64)
        (Printf.sprintf "chunk %d: esp matches caller" i)
        (Int64.bits_of_float seq.Compile.esp)
        (Int64.bits_of_float r.Compile.esp);
      Alcotest.(check string)
        (Printf.sprintf "chunk %d: qasm matches caller" i)
        (Compile.to_qasm seq) (Compile.to_qasm r))
    results

let suite =
  [
    ("capped parallel degrades feasibly", `Quick,
      test_capped_parallel_degrades_feasibly);
    ("compile ladder under parallel", `Quick,
      test_compile_fallback_ladder_under_parallel);
  ]
