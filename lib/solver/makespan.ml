type problem = {
  num_items : int;
  num_slots : int;
  order : int array option;
  lower_bound : int array -> int;
  leaf_cost : int array -> int;
}

type solution = { assignment : int array; cost : int; stats : Budget.stats }

let m_evals = Nisq_obs.Metrics.counter "solver.constraint_evals"
let m_bound_lower = Nisq_obs.Metrics.counter "solver.bound.lower_bound"

let validate ~forbid p =
  if p.num_items <= 0 then invalid_arg "Makespan: no items";
  if p.num_slots < p.num_items then
    invalid_arg "Makespan: fewer slots than items";
  let allowed = ref 0 in
  for slot = 0 to p.num_slots - 1 do
    if not (forbid slot) then incr allowed
  done;
  if !allowed < p.num_items then
    invalid_arg "Makespan: fewer live slots than items (quarantine)";
  let order =
    match p.order with Some o -> o | None -> Array.init p.num_items Fun.id
  in
  if Array.length order <> p.num_items then
    invalid_arg "Makespan: bad order length";
  order

let solve ?(budget = Budget.unlimited) ?(forbid = fun _ -> false) p =
  let n = p.num_items and s = p.num_slots in
  let order = validate ~forbid p in
  let clock = Budget.Clock.start budget in
  (* Local tally, batch-published once after the search (see Placement). *)
  let evals = ref 0 in
  (* Candidates discarded because their makespan lower bound could not
     beat the incumbent — the report's single-rung "bound ladder". *)
  let hit_lower = ref 0 in
  let placement = Array.make n (-1) in
  let used = Array.make s false in
  let best = Array.make n (-1) in
  let best_cost = ref Int.max_int in
  let blown = ref false in
  (* Preallocated per-depth candidate arrays, filled and sorted in place.
     Candidates are gathered in descending slot order and sorted with a
     stable insertion sort on the bound, which reproduces — entry for
     entry — the order the old cons-and-[List.sort] loop explored
     (ascending bound, ties by descending slot). *)
  let cand_slot = Array.init n (fun _ -> Array.make s 0) in
  let cand_lb = Array.init n (fun _ -> Array.make s 0) in
  let rec dfs pos =
    if !blown then ()
    else if not (Budget.Clock.tick clock) then blown := true
    else if pos = n then begin
      let c = p.leaf_cost placement in
      if c < !best_cost then begin
        best_cost := c;
        Array.blit placement 0 best 0 n
      end
    end
    else begin
      let item = order.(pos) in
      (* Explore slots in increasing lower-bound order. *)
      let slots = cand_slot.(pos) and lbs = cand_lb.(pos) in
      let k = ref 0 in
      for slot = s - 1 downto 0 do
        if not used.(slot) && not (forbid slot) then begin
          placement.(item) <- slot;
          let lb = p.lower_bound placement in
          placement.(item) <- -1;
          Stdlib.incr evals;
          if lb < !best_cost then begin
            slots.(!k) <- slot;
            lbs.(!k) <- lb;
            incr k
          end
          else Stdlib.incr hit_lower
        end
      done;
      let k = !k in
      for i = 1 to k - 1 do
        let lb = lbs.(i) and sl = slots.(i) in
        let j = ref (i - 1) in
        while !j >= 0 && lb < lbs.(!j) do
          lbs.(!j + 1) <- lbs.(!j);
          slots.(!j + 1) <- slots.(!j);
          decr j
        done;
        lbs.(!j + 1) <- lb;
        slots.(!j + 1) <- sl
      done;
      for c = 0 to k - 1 do
        let slot = slots.(c) and lb = lbs.(c) in
        if not !blown then begin
          if lb < !best_cost then begin
            placement.(item) <- slot;
            used.(slot) <- true;
            dfs (pos + 1);
            used.(slot) <- false;
            placement.(item) <- -1
          end
          else Stdlib.incr hit_lower
        end
      done
    end
  in
  dfs 0;
  (* If no leaf was accepted (the budget blew before any, or every leaf
     was infeasible), fall back to a greedy completion ignoring bounds so
     callers always get an assignment. The DFS leaves [placement] and
     [used] cleared on every exit path. *)
  if !best_cost = Int.max_int then begin
    Array.iter
      (fun item ->
        let chosen = ref (-1) and chosen_lb = ref Int.max_int in
        for slot = 0 to s - 1 do
          if not used.(slot) && not (forbid slot) then begin
            placement.(item) <- slot;
            let lb = p.lower_bound placement in
            placement.(item) <- -1;
            Stdlib.incr evals;
            if lb < !chosen_lb then begin
              chosen_lb := lb;
              chosen := slot
            end
          end
        done;
        placement.(item) <- !chosen;
        used.(!chosen) <- true)
      order;
    Array.blit placement 0 best 0 n;
    best_cost := p.leaf_cost best
  end;
  Nisq_obs.Metrics.add m_evals !evals;
  Nisq_obs.Metrics.add m_bound_lower !hit_lower;
  {
    assignment = best;
    cost = !best_cost;
    stats =
      Budget.Clock.stats clock ~exhausted:(not !blown)
        ~bound_hits:[ ("lower_bound", !hit_lower) ];
  }
