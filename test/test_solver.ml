(* Tests for Nisq_solver: Budget, Placement, Makespan. *)

module Budget = Nisq_solver.Budget
module Placement = Nisq_solver.Placement
module Makespan = Nisq_solver.Makespan
module Rng = Nisq_util.Rng

(* ------------------------------- Budget ---------------------------- *)

let test_budget_clock_nodes () =
  let c = Budget.Clock.start (Budget.nodes 3) in
  Alcotest.(check bool) "1" true (Budget.Clock.tick c);
  Alcotest.(check bool) "2" true (Budget.Clock.tick c);
  Alcotest.(check bool) "3" true (Budget.Clock.tick c);
  Alcotest.(check bool) "4 blows" false (Budget.Clock.tick c);
  Alcotest.(check bool) "stays blown" false (Budget.Clock.tick c)

let test_budget_unlimited () =
  let c = Budget.Clock.start Budget.unlimited in
  for _ = 1 to 10_000 do
    ignore (Budget.Clock.tick c)
  done;
  let s = Budget.Clock.stats c ~exhausted:true in
  Alcotest.(check bool) "optimal when exhausted" true s.Budget.proven_optimal

let test_budget_stats_not_optimal_when_blown () =
  let c = Budget.Clock.start (Budget.nodes 1) in
  ignore (Budget.Clock.tick c);
  ignore (Budget.Clock.tick c);
  let s = Budget.Clock.stats c ~exhausted:false in
  Alcotest.(check bool) "not optimal" false s.Budget.proven_optimal

(* ------------------------------ Placement -------------------------- *)

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

let test_placement_matches_brute_force () =
  let rng = Rng.create 1 in
  for _ = 1 to 25 do
    let items = 2 + Rng.int rng 3 in
    let slots = items + Rng.int rng 3 in
    let p = random_problem rng ~items ~slots ~pairs:(Rng.int rng 4) in
    let s = Placement.solve p in
    let _, best = Placement.brute_force p in
    Alcotest.(check (float 1e-9)) "objective optimal" best s.Placement.objective;
    Alcotest.(check (float 1e-9)) "assignment consistent" s.Placement.objective
      (Placement.score p s.Placement.assignment);
    Alcotest.(check bool) "proven optimal" true s.Placement.stats.Budget.proven_optimal
  done

let test_placement_assignment_injective () =
  let rng = Rng.create 2 in
  for _ = 1 to 20 do
    let items = 2 + Rng.int rng 5 in
    let slots = items + Rng.int rng 4 in
    let p = random_problem rng ~items ~slots ~pairs:(Rng.int rng 6) in
    let s = Placement.solve p in
    let seen = Hashtbl.create 8 in
    Array.iter
      (fun slot ->
        Alcotest.(check bool) "in range" true (slot >= 0 && slot < slots);
        Alcotest.(check bool) "distinct" false (Hashtbl.mem seen slot);
        Hashtbl.add seen slot ())
      s.Placement.assignment
  done

let test_placement_unary_only_picks_best () =
  let p =
    {
      Placement.num_items = 2;
      num_slots = 3;
      unary = [| [| -5.0; -1.0; -9.0 |]; [| -2.0; -7.0; -3.0 |] |];
      pairwise = [];
    }
  in
  let s = Placement.solve p in
  Alcotest.(check (array int)) "best slots" [| 1; 0 |] s.Placement.assignment

let test_placement_pairwise_dominates () =
  (* strong pairwise coupling forces items onto the matched slot pair even
     though unary prefers elsewhere *)
  let m = Array.make_matrix 3 3 (-100.0) in
  m.(0).(1) <- 0.0;
  let p =
    {
      Placement.num_items = 2;
      num_slots = 3;
      unary = [| [| -1.0; -1.0; 0.0 |]; [| -1.0; -1.0; 0.0 |] |];
      pairwise = [ (0, 1, m) ];
    }
  in
  let s = Placement.solve p in
  Alcotest.(check (array int)) "paired slots" [| 0; 1 |] s.Placement.assignment

let test_placement_duplicate_pairs_summed () =
  let m1 = Array.make_matrix 2 2 0.0 in
  m1.(0).(1) <- -1.0;
  m1.(1).(0) <- -4.0;
  let p =
    {
      Placement.num_items = 2;
      num_slots = 2;
      unary = [| [| 0.0; 0.0 |]; [| 0.0; 0.0 |] |];
      pairwise = [ (0, 1, m1); (0, 1, m1) ];
    }
  in
  let s = Placement.solve p in
  Alcotest.(check (float 1e-9)) "summed objective" (-2.0) s.Placement.objective

(* A blown budget still returns a feasible assignment, flagged degraded
   and unproven — down to a 1-node budget, where the greedy completion
   supplies the whole assignment. *)
let test_placement_budget_still_feasible () =
  List.iter
    (fun (seed, items, slots, pairs, nodes) ->
      let rng = Rng.create seed in
      let p = random_problem rng ~items ~slots ~pairs in
      let s = Placement.solve ~budget:(Budget.nodes nodes) p in
      Alcotest.(check bool) "degraded" true s.Placement.stats.Budget.degraded;
      Alcotest.(check bool) "not proven optimal" false
        s.Placement.stats.Budget.proven_optimal;
      let seen = Hashtbl.create 8 in
      Array.iter
        (fun slot ->
          Alcotest.(check bool) "valid slot" true (slot >= 0 && slot < slots);
          Alcotest.(check bool) "injective" false (Hashtbl.mem seen slot);
          Hashtbl.add seen slot ())
        s.Placement.assignment)
    [ (3, 6, 12, 8, 5); (31, 6, 9, 6, 1) ]

let test_placement_rejects_too_many_items () =
  let p =
    { Placement.num_items = 3; num_slots = 2;
      unary = Array.make_matrix 3 2 0.0; pairwise = [] }
  in
  Alcotest.(check bool) "raises" true
    (try ignore (Placement.solve p); false with Invalid_argument _ -> true)

let test_placement_rejects_bad_pair_indices () =
  let p =
    { Placement.num_items = 2; num_slots = 2;
      unary = Array.make_matrix 2 2 0.0;
      pairwise = [ (1, 0, Array.make_matrix 2 2 0.0) ] }
  in
  Alcotest.(check bool) "raises on i >= j" true
    (try ignore (Placement.solve p); false with Invalid_argument _ -> true)

let test_placement_score_function () =
  let m = Array.make_matrix 2 2 0.0 in
  m.(0).(1) <- -3.0;
  let p =
    { Placement.num_items = 2; num_slots = 2;
      unary = [| [| -1.0; 0.0 |]; [| 0.0; -2.0 |] |];
      pairwise = [ (0, 1, m) ] }
  in
  Alcotest.(check (float 1e-12)) "score" (-6.0) (Placement.score p [| 0; 1 |])

(* ------------------------------- Makespan -------------------------- *)

(* A toy placement-cost model: cost of a complete placement is the sum of
   |slot(i) - target(i)|; the lower bound for partial placements sums only
   the placed items, which is admissible. *)
let toy_problem targets slots =
  let items = Array.length targets in
  let cost placement =
    let acc = ref 0 in
    Array.iteri
      (fun i s -> if s >= 0 then acc := !acc + abs (s - targets.(i)))
      placement;
    !acc
  in
  {
    Makespan.num_items = items;
    num_slots = slots;
    order = None;
    lower_bound = cost;
    leaf_cost = cost;
  }

let test_makespan_finds_exact_assignment () =
  let p = toy_problem [| 2; 0; 1 |] 4 in
  let s = Makespan.solve p in
  Alcotest.(check int) "zero cost" 0 s.Makespan.cost;
  Alcotest.(check (array int)) "exact targets" [| 2; 0; 1 |] s.Makespan.assignment

let test_makespan_handles_conflicts () =
  (* two items want the same slot; optimal cost is 1 *)
  let p = toy_problem [| 0; 0 |] 2 in
  let s = Makespan.solve p in
  Alcotest.(check int) "cost 1" 1 s.Makespan.cost

let test_makespan_respects_order () =
  let p = { (toy_problem [| 1; 0 |] 3) with Makespan.order = Some [| 1; 0 |] } in
  let s = Makespan.solve p in
  Alcotest.(check int) "still optimal" 0 s.Makespan.cost

let test_makespan_budget_fallback () =
  let p = toy_problem [| 3; 1; 0; 2 |] 6 in
  let s = Makespan.solve ~budget:(Budget.nodes 1) p in
  (* budget blown immediately: greedy completion must still be injective *)
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun slot ->
      Alcotest.(check bool) "valid" true (slot >= 0 && slot < 6);
      Alcotest.(check bool) "injective" false (Hashtbl.mem seen slot);
      Hashtbl.add seen slot ())
    s.Makespan.assignment;
  Alcotest.(check bool) "cost computed" true (s.Makespan.cost < Int.max_int)

let test_makespan_infeasible_leaves () =
  (* leaf cost rejects everything: solver returns max_int *)
  let p =
    {
      Makespan.num_items = 2;
      num_slots = 2;
      order = None;
      lower_bound = (fun _ -> 0);
      leaf_cost = (fun _ -> Int.max_int);
    }
  in
  let s = Makespan.solve p in
  Alcotest.(check bool) "no feasible cost" true (s.Makespan.cost = Int.max_int)

let test_makespan_rejects_bad_problem () =
  let p = toy_problem [| 0; 1; 2 |] 2 in
  Alcotest.(check bool) "raises" true
    (try ignore (Makespan.solve p); false with Invalid_argument _ -> true)

(* Forbid-aware exhaustive reference: [brute_force] with quarantined
   slots excluded. Random float scores make ties measure-zero, so the
   DFS and the reference must agree on the optimum exactly. *)
let brute_force_forbid p ~forbid =
  let n = p.Placement.num_items and s = p.Placement.num_slots in
  let assignment = Array.make n (-1) in
  let used = Array.make s false in
  let best = Array.make n (-1) in
  let best_score = ref neg_infinity in
  let rec go i =
    if i = n then begin
      let v = Placement.score p assignment in
      if v > !best_score then begin
        best_score := v;
        Array.blit assignment 0 best 0 n
      end
    end
    else
      for slot = 0 to s - 1 do
        if (not used.(slot)) && not (forbid slot) then begin
          assignment.(i) <- slot;
          used.(slot) <- true;
          go (i + 1);
          used.(slot) <- false;
          assignment.(i) <- -1
        end
      done
  in
  go 0;
  (best, !best_score)

let test_placement_matches_reference_with_forbid () =
  let rng = Rng.create 11 in
  for _ = 1 to 20 do
    let items = 2 + Rng.int rng 3 in
    let slots = items + 1 + Rng.int rng 3 in
    let p = random_problem rng ~items ~slots ~pairs:(Rng.int rng 5) in
    (* quarantine one slot, keeping at least [items] live *)
    let banned = Rng.int rng slots in
    let forbid slot = slot = banned in
    let sol = Placement.solve ~forbid p in
    let ref_assign, ref_score = brute_force_forbid p ~forbid in
    Alcotest.(check (float 1e-9)) "objective equals reference" ref_score
      sol.Placement.objective;
    Alcotest.(check (float 1e-9)) "objective consistent with assignment"
      sol.Placement.objective
      (Placement.score p sol.Placement.assignment);
    Alcotest.(check bool) "banned slot unused" false
      (Array.exists (fun sl -> sl = banned) sol.Placement.assignment);
    Alcotest.(check bool) "assignment is the unique optimum" true
      (sol.Placement.assignment = ref_assign);
    Alcotest.(check bool) "proven optimal" true
      sol.Placement.stats.Budget.proven_optimal
  done

let test_placement_evals_published_when_forbid_raises () =
  (* The constraint-eval counter must be published even when the search
     dies mid-DFS in caller code (a fault-injected [forbid]). The raise
     is timed to land after the first node's candidate evaluations, so a
     lost batch would be visible as a zero. *)
  let rng = Rng.create 12 in
  let slots = 6 in
  let p = random_problem rng ~items:4 ~slots ~pairs:4 in
  let m = Nisq_obs.Metrics.counter "solver.constraint_evals" in
  Nisq_obs.Metrics.set_enabled true;
  Nisq_obs.Metrics.reset ();
  Fun.protect ~finally:(fun () -> Nisq_obs.Metrics.set_enabled false)
  @@ fun () ->
  let calls = ref 0 in
  let forbid _ =
    incr calls;
    (* calls 1..slots: the live-slot count; calls slots+1..2*slots: the
       first DFS node's candidate fill, which interleaves incremental
       evaluations — raise at the end of it *)
    if !calls >= 2 * slots then failwith "injected forbid fault" else false
  in
  (match Placement.solve ~forbid p with
  | _ -> Alcotest.fail "expected the injected fault to escape"
  | exception Failure _ -> ());
  Alcotest.(check bool) "evals published on raise" true
    (Nisq_obs.Metrics.value m > 0)

let suite =
  [
    ("budget clock node limit", `Quick, test_budget_clock_nodes);
    ("budget unlimited", `Quick, test_budget_unlimited);
    ("budget stats when blown", `Quick, test_budget_stats_not_optimal_when_blown);
    ("placement matches brute force", `Quick, test_placement_matches_brute_force);
    ("placement assignment injective", `Quick, test_placement_assignment_injective);
    ("placement unary-only optimum", `Quick, test_placement_unary_only_picks_best);
    ("placement pairwise dominates", `Quick, test_placement_pairwise_dominates);
    ("placement duplicate pairs summed", `Quick, test_placement_duplicate_pairs_summed);
    ("placement budget fallback feasible", `Quick, test_placement_budget_still_feasible);
    ("placement rejects items > slots", `Quick, test_placement_rejects_too_many_items);
    ("placement rejects bad pairs", `Quick, test_placement_rejects_bad_pair_indices);
    ("placement score", `Quick, test_placement_score_function);
    ("placement matches reference with forbid", `Quick,
      test_placement_matches_reference_with_forbid);
    ("placement evals published on raising forbid", `Quick,
      test_placement_evals_published_when_forbid_raises);
    ("makespan exact assignment", `Quick, test_makespan_finds_exact_assignment);
    ("makespan conflicting targets", `Quick, test_makespan_handles_conflicts);
    ("makespan custom order", `Quick, test_makespan_respects_order);
    ("makespan budget fallback", `Quick, test_makespan_budget_fallback);
    ("makespan infeasible leaves", `Quick, test_makespan_infeasible_leaves);
    ("makespan rejects bad problem", `Quick, test_makespan_rejects_bad_problem);
  ]
