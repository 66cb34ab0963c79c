module Circuit = Nisq_circuit.Circuit
module Gate = Nisq_circuit.Gate
module Dag = Nisq_circuit.Dag
module Calibration = Nisq_device.Calibration
module Topology = Nisq_device.Topology
module Paths = Nisq_device.Paths
module Makespan = Nisq_solver.Makespan

let coherence_penalty = 1_000_000

let compile_layout ~decision_paths ~policy ~criterion ~budget
    (circuit : Circuit.t) dag =
  let calib = Paths.calibration decision_paths in
  let num_hw = Topology.num_qubits calib.Calibration.topology in
  let num_items = circuit.Circuit.num_qubits in
  let dur = Route.duration_matrix decision_paths ~policy ~criterion in
  (* Optimistic duration for a CNOT with an unplaced endpoint: the
     fastest hardware CNOT on the machine. *)
  let min_cnot_dur =
    List.fold_left
      (fun acc (a, b) -> Int.min acc (Calibration.cnot_duration calib a b))
      max_int
      (Topology.edges calib.Calibration.topology)
  in
  (* The bound is evaluated once per (node, candidate slot) — millions of
     times on the hard benchmarks — so it gets a specialized evaluator:
     predecessor lists flattened to CSR, non-CNOT gate durations (which
     never depend on the placement) precomputed, the duration matrix
     flattened, and one finish-time buffer reused across calls. Computes
     exactly [Dag.critical_path_length dag ~weight:(weight placement)],
     value for value, just without the per-call allocation. *)
  let gates = circuit.Circuit.gates in
  let ng = Array.length gates in
  let pred_off = Array.make (ng + 1) 0 in
  for i = 0 to ng - 1 do
    pred_off.(i + 1) <- pred_off.(i) + List.length (Dag.preds dag i)
  done;
  let pred_arr = Array.make pred_off.(ng) 0 in
  for i = 0 to ng - 1 do
    List.iteri (fun k p -> pred_arr.(pred_off.(i) + k) <- p) (Dag.preds dag i)
  done;
  (* static_w.(i) < 0 marks a CNOT (placement-dependent duration). *)
  let static_w =
    Array.map
      (fun (g : Gate.t) ->
        match g.kind with
        | Gate.Cnot -> -1
        | Gate.Measure -> Calibration.measure_duration
        | Gate.Barrier -> 0
        | _ -> Calibration.single_gate_duration)
      gates
  in
  let dur_flat = Array.make (num_hw * num_hw) 0 in
  for h1 = 0 to num_hw - 1 do
    for h2 = 0 to num_hw - 1 do
      dur_flat.((h1 * num_hw) + h2) <- dur.(h1).(h2)
    done
  done;
  (* first_dep.(q): the earliest gate whose duration can change when
     program qubit [q] moves — its first CNOT. Finish times strictly
     before that gate cannot depend on [q]'s slot. *)
  let first_dep = Array.make num_items ng in
  Array.iter
    (fun (g : Gate.t) ->
      if g.kind = Gate.Cnot then
        Array.iter
          (fun q -> if g.id < first_dep.(q) then first_dep.(q) <- g.id)
          g.qubits)
    gates;
  (* Place high-CNOT-degree qubits first: their routing dominates the
     critical path, so bounds bite early. *)
  let degrees = Circuit.qubit_degrees circuit in
  let order = Array.init num_items Fun.id in
  Array.sort (fun a b -> compare degrees.(b) degrees.(a)) order;
  (* The branch-and-bound probes sibling candidates that differ from the
     previous probe in one or two entries, so the evaluator diffs the
     placement against the last one it saw and recomputes finish times
     only from the earliest gate a moved qubit can influence. prefix_best
     memoizes running maxima so the untouched prefix still contributes to
     the critical path. Recomputing the identical integer recurrence over
     a suffix yields the exact value a full pass would. *)
  let finish = Array.make (Int.max ng 1) 0 in
  let last_placement = Array.make num_items Int.min_int in
  let prefix_best = Array.make (ng + 1) 0 in
  (* Finish times below this index are valid; 0 until the first pass. *)
  let computed = ref 0 in
  let lower_bound placement =
    let from = ref !computed in
    for q = 0 to num_items - 1 do
      if placement.(q) <> last_placement.(q) then begin
        if first_dep.(q) < !from then from := first_dep.(q);
        last_placement.(q) <- placement.(q)
      end
    done;
    computed := ng;
    let best = ref prefix_best.(!from) in
    for i = !from to ng - 1 do
      let start = ref 0 in
      for k = pred_off.(i) to pred_off.(i + 1) - 1 do
        let f = Array.unsafe_get finish (Array.unsafe_get pred_arr k) in
        if f > !start then start := f
      done;
      let w = Array.unsafe_get static_w i in
      let w =
        if w >= 0 then w
        else begin
          let g : Gate.t = Array.unsafe_get gates i in
          let h1 = placement.(g.qubits.(0)) and h2 = placement.(g.qubits.(1)) in
          if h1 >= 0 && h2 >= 0 then
            Array.unsafe_get dur_flat ((h1 * num_hw) + h2)
          else min_cnot_dur
        end
      in
      let f = !start + w in
      Array.unsafe_set finish i f;
      if f > !best then best := f;
      Array.unsafe_set prefix_best (i + 1)
        (if f > Array.unsafe_get prefix_best i then f
         else Array.unsafe_get prefix_best i)
    done;
    !best
  in
  let leaf_cost placement =
    let layout = Layout.of_array ~num_hw placement in
    let plans = Route.plan decision_paths ~policy ~criterion ~layout circuit in
    let sched = Schedule.compute dag ~circuit plans in
    let violations = Schedule.coherence_violations sched calib in
    if violations = [] then sched.Schedule.makespan
    else sched.Schedule.makespan + coherence_penalty
  in
  let problem =
    {
      Makespan.num_items;
      num_slots = num_hw;
      order = Some order;
      lower_bound;
      leaf_cost;
    }
  in
  let forbid slot = not (Calibration.qubit_live calib slot) in
  let solution = Makespan.solve ~budget ~forbid problem in
  (Layout.of_array ~num_hw solution.Makespan.assignment, solution.Makespan.stats)
