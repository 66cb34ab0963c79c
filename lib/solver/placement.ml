type problem = {
  num_items : int;
  num_slots : int;
  unary : float array array;
  pairwise : (int * int * float array array) list;
}

type solution = {
  assignment : int array;
  objective : float;
  stats : Budget.stats;
}

let validate p =
  if p.num_items <= 0 then invalid_arg "Placement: no items";
  if p.num_slots < p.num_items then
    invalid_arg "Placement: fewer slots than items";
  if Array.length p.unary <> p.num_items then
    invalid_arg "Placement: unary row count mismatch";
  Array.iter
    (fun row ->
      if Array.length row <> p.num_slots then
        invalid_arg "Placement: unary column count mismatch")
    p.unary;
  List.iter
    (fun (i, j, m) ->
      if i < 0 || j < 0 || i >= p.num_items || j >= p.num_items || i >= j then
        invalid_arg "Placement: bad pair indices (need 0 <= i < j < items)";
      if
        Array.length m <> p.num_slots
        || Array.exists (fun r -> Array.length r <> p.num_slots) m
      then invalid_arg "Placement: pairwise matrix dimension mismatch")
    p.pairwise

let score p assignment =
  let total = ref 0.0 in
  for i = 0 to p.num_items - 1 do
    total := !total +. p.unary.(i).(assignment.(i))
  done;
  List.iter
    (fun (i, j, m) -> total := !total +. m.(assignment.(i)).(assignment.(j)))
    p.pairwise;
  !total

(* Merge duplicate pair entries into one matrix per (i, j). *)
let merged_pairs p =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (i, j, m) ->
      match Hashtbl.find_opt tbl (i, j) with
      | None -> Hashtbl.add tbl (i, j) (Array.map Array.copy m)
      | Some acc ->
          Array.iteri
            (fun si row -> Array.iteri (fun sj v -> acc.(si).(sj) <- acc.(si).(sj) +. v) row)
            m)
    p.pairwise;
  Hashtbl.fold (fun (i, j) m acc -> (i, j, m) :: acc) tbl []

let matrix_max m =
  Array.fold_left
    (fun acc row -> Array.fold_left Float.max acc row)
    neg_infinity m

let m_evals = Nisq_obs.Metrics.counter "solver.constraint_evals"

(* Per-level bound-ladder prune tallies; deterministic for the same
   reason node counts are (the search trajectory is). *)
let m_bound_static = Nisq_obs.Metrics.counter "solver.bound.static"
let m_bound_cheap = Nisq_obs.Metrics.counter "solver.bound.cheap"
let m_bound_tight = Nisq_obs.Metrics.counter "solver.bound.tight"
let m_bound_matching = Nisq_obs.Metrics.counter "solver.bound.matching"

(* Item order: most pairwise involvement first — placing constrained
   items early tightens the bound. *)
let involvement_order pairs n =
  let involvement = Array.make n 0.0 in
  List.iter
    (fun (i, j, m) ->
      let span = Float.abs (matrix_max m) in
      involvement.(i) <- involvement.(i) +. span +. 1.0;
      involvement.(j) <- involvement.(j) +. span +. 1.0)
    pairs;
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> Float.compare involvement.(b) involvement.(a)) order;
  order

(* Search state for one solve: the variable order, the admissible-bound
   tables (slot rankings, pair-cell rankings, the static bound), and the
   preallocated per-depth scratch of the allocation-free DFS. *)
type engine = {
  p : problem;
  n : int;
  s : int;
  forbid : int -> bool;
  banned : bool array;
  order : int array;
  optimistic : float array;
  unary_rank : int array array;
  ep_partner : int array array;
  ep_mat : float array array array;
  (* Per earlier-pair bound tables. Cheap level (O(1) per pair):
     [ep_rowmax.(item).(k).(se)] is the max over the later item's slots
     with the earlier partner on [se]; [ep_gmax.(item).(k)] the
     whole-matrix max. Both levels are admissible, so tightening prunes
     nodes without ever changing the returned assignment (leaves are
     only accepted on strict improvement). *)
  ep_rowmax : float array array array;
  ep_gmax : float array array;
  placed : int array;
  used : bool array;
  cand_slot : int array array;
  cand_score : float array array;
  (* Preallocated scratch for the exact-assignment bound
     [dynamic_rest_matching] (shortest-augmenting-path Hungarian):
     [mt_free] the free-slot list, [mt_w] the (remaining item × free
     slot) weight matrix flattened by [s], the rest the standard
     potential/augmenting-path arrays. *)
  mt_free : int array;
  mt_w : float array;
  mt_u : float array;
  mt_v : float array;
  mt_match : int array;
  mt_way : int array;
  mt_minv : float array;
  mt_used : bool array;
  evals : int ref;
}

let make_engine ~forbid ~evals p =
  validate p;
  let pairs = merged_pairs p in
  let n = p.num_items and s = p.num_slots in
  (* banned.(slot) snapshots [forbid] once for the bound computations
     below; the candidate fill keeps probing the live closure, which is
     the authoritative legality check (and the hook fault injection
     relies on). *)
  let banned = Array.make s false in
  let allowed = ref 0 in
  for slot = 0 to s - 1 do
    banned.(slot) <- forbid slot;
    if not banned.(slot) then incr allowed
  done;
  if !allowed < n then
    invalid_arg "Placement: fewer live slots than items (quarantine)";
  let order = involvement_order pairs n in
  (* rank.(item) = position in placement order *)
  let rank = Array.make n 0 in
  Array.iteri (fun pos item -> rank.(item) <- pos) order;
  (* Pair bookkeeping, from the perspective of the later-placed item:
     when we place item [i], every pair (i, j) with rank.(j) < rank.(i)
     contributes exactly, and every pair with rank.(j) > rank.(i) is
     bounded by its row maximum. Each pair is flattened into one
     row-major array oriented (earlier slot, later slot), replacing the
     per-pair closures of the old inner loop with an indexed load; the
     per-item traversal order (and with it the float summation order)
     matches the old closure lists exactly. *)
  let earlier_pairs = Array.make n [] (* (partner, oriented flat matrix) *) in
  let unary_max =
    Array.map (fun row -> Array.fold_left Float.max neg_infinity row) p.unary
  in
  List.iter
    (fun (i, j, m) ->
      let earlier, later = if rank.(i) < rank.(j) then (i, j) else (j, i) in
      let flat = Array.make (s * s) 0.0 in
      for se = 0 to s - 1 do
        for sl = 0 to s - 1 do
          flat.((se * s) + sl) <-
            (if earlier = i then m.(se).(sl) else m.(sl).(se))
        done
      done;
      earlier_pairs.(later) <- (earlier, flat) :: earlier_pairs.(later))
    pairs;
  let ep_partner = Array.make n [||] and ep_mat = Array.make n [||] in
  for item = 0 to n - 1 do
    ep_partner.(item) <- Array.of_list (List.map fst earlier_pairs.(item));
    ep_mat.(item) <- Array.of_list (List.map snd earlier_pairs.(item))
  done;
  let ep_rowmax =
    Array.map
      (Array.map (fun flat ->
           Array.init s (fun se ->
               let m = ref neg_infinity in
               for sl = 0 to s - 1 do
                 let v = flat.((se * s) + sl) in
                 if v > !m then m := v
               done;
               !m)))
      ep_mat
  in
  let ep_gmax =
    Array.map (Array.map (Array.fold_left Float.max neg_infinity)) ep_rowmax
  in
  (* optimistic.(pos) = admissible upper bound on the total score of items
     order.(pos..n-1): their best unary plus, for each pair whose later
     endpoint is among them, the pair's global max. *)
  let optimistic = Array.make (n + 1) 0.0 in
  let pair_max_into = Array.make n 0.0 in
  List.iter
    (fun (i, j, m) ->
      let later = if rank.(i) < rank.(j) then j else i in
      pair_max_into.(later) <- pair_max_into.(later) +. matrix_max m)
    pairs;
  for pos = n - 1 downto 0 do
    let item = order.(pos) in
    optimistic.(pos) <- optimistic.(pos + 1) +. unary_max.(item) +. pair_max_into.(item)
  done;
  (* unary_rank.(item): slot indices sorted by unary score descending
     (ties by ascending slot). The dynamic bound needs "best unary over
     the slots still free", which this turns from an O(s) scan with a
     closure call per slot into a walk of the first few entries. *)
  let unary_rank =
    Array.init n (fun item ->
        let slots = Array.init s Fun.id in
        let row = p.unary.(item) in
        Array.sort
          (fun a b ->
            let c = Float.compare row.(b) row.(a) in
            if c <> 0 then c else compare a b)
          slots;
        slots)
  in
  {
    p;
    n;
    s;
    forbid;
    banned;
    order;
    optimistic;
    unary_rank;
    ep_partner;
    ep_mat;
    ep_rowmax;
    ep_gmax;
    placed = Array.make n (-1);
    used = Array.make s false;
    (* Preallocated per-depth candidate arrays: the DFS inner loop fills
       and sorts them in place instead of consing and List.sorting a
       fresh list per node. *)
    cand_slot = Array.init n (fun _ -> Array.make s 0);
    cand_score = Array.init n (fun _ -> Array.make s 0.0);
    mt_free = Array.make s 0;
    mt_w = Array.make (n * s) 0.0;
    mt_u = Array.make (n + 1) 0.0;
    mt_v = Array.make (s + 1) 0.0;
    mt_match = Array.make (s + 1) 0;
    mt_way = Array.make (s + 1) 0;
    mt_minv = Array.make (s + 1) 0.0;
    mt_used = Array.make (s + 1) false;
    evals;
  }

(* Incremental score of placing [item] on [slot] given the current
   partial assignment: unary plus every already-placed partner's pair
   entry, summed in the original pair-list order. *)
let incremental eng item slot =
  let inc = ref eng.p.unary.(item).(slot) in
  let partners = eng.ep_partner.(item) and mats = eng.ep_mat.(item) in
  let placed = eng.placed and s = eng.s in
  for k = 0 to Array.length partners - 1 do
    inc := !inc +. Array.unsafe_get mats.(k) ((placed.(partners.(k)) * s) + slot)
  done;
  Stdlib.incr eng.evals;
  !inc

(* Stable in-place insertion sort by (score desc, slot asc) — the same
   order List.sort gave the ascending-slot candidate list. Candidate
   counts are <= num_slots, where insertion sort beats allocation. *)
let sort_candidates slots scores k =
  for i = 1 to k - 1 do
    let sc = scores.(i) and sl = slots.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && scores.(!j) < sc do
      scores.(!j + 1) <- scores.(!j);
      slots.(!j + 1) <- slots.(!j);
      decr j
    done;
    scores.(!j + 1) <- sc;
    slots.(!j + 1) <- sl
  done

(* Fill and sort the candidate arrays for depth [pos]; returns the
   candidate count. Probes the live [forbid] closure per slot, exactly
   as the DFS always has. *)
let fill_candidates eng pos =
  let item = eng.order.(pos) in
  let slots = eng.cand_slot.(pos) and scores = eng.cand_score.(pos) in
  let k = ref 0 in
  for slot = 0 to eng.s - 1 do
    if not eng.used.(slot) && not (eng.forbid slot) then begin
      slots.(!k) <- slot;
      scores.(!k) <- incremental eng item slot;
      incr k
    end
  done;
  let k = !k in
  sort_candidates slots scores k;
  k

(* Cheap admissible bound for the subtree below [pos]: per remaining
   item, its best unary over the slots still free *at this node* (the
   static bound uses the global unary max) plus an O(1)-per-pair
   ceiling — the partner's row max when the partner is committed, the
   whole-matrix max otherwise. Dominates [dynamic_rest_tight], so a
   prune here implies the tight bound would prune too: filtering with
   the cheap level first changes cost, never the node set. *)
let dynamic_rest_cheap eng pos =
  let total = ref 0.0 in
  let used = eng.used and banned = eng.banned and placed = eng.placed in
  for q = pos to eng.n - 1 do
    let item = eng.order.(q) in
    let row = eng.p.unary.(item) in
    let ranked = eng.unary_rank.(item) in
    let idx = ref 0 in
    while
      let slot = Array.unsafe_get ranked !idx in
      used.(slot) || banned.(slot)
    do
      incr idx
    done;
    let partners = eng.ep_partner.(item) in
    let rowmaxes = eng.ep_rowmax.(item) and gmaxes = eng.ep_gmax.(item) in
    let pairs_bound = ref 0.0 in
    for k = 0 to Array.length partners - 1 do
      let ps = placed.(partners.(k)) in
      pairs_bound :=
        !pairs_bound
        +.
        if ps >= 0 then Array.unsafe_get (Array.unsafe_get rowmaxes k) ps
        else Array.unsafe_get gmaxes k
    done;
    total := !total +. row.(Array.unsafe_get ranked !idx) +. !pairs_bound
  done;
  !total

(* Tight admissible bound, consulted only when the cheap level fails to
   prune. Per remaining item it maximizes the item's unary term JOINTLY
   with all committed-partner pair terms over the slots still free —
   coupling terms the cheap bound maximizes independently. Pairs whose
   partner is still unplaced keep the whole-matrix ceiling: they only
   occur at shallow nodes, where tightening buys little. Every candidate
   completion places the item on some currently-free slot, so each
   summand dominates its true contribution: admissible. *)
let dynamic_rest_tight eng pos =
  let total = ref 0.0 in
  let used = eng.used and banned = eng.banned and placed = eng.placed in
  let s = eng.s in
  for q = pos to eng.n - 1 do
    let item = eng.order.(q) in
    let row = eng.p.unary.(item) in
    let partners = eng.ep_partner.(item) in
    let mats = eng.ep_mat.(item) in
    let deg = Array.length partners in
    let joint = ref neg_infinity in
    for sl = 0 to s - 1 do
      if not (used.(sl) || banned.(sl)) then begin
        let v = ref (Array.unsafe_get row sl) in
        for k = 0 to deg - 1 do
          let ps = placed.(partners.(k)) in
          if ps >= 0 then
            v := !v +. Array.unsafe_get (Array.unsafe_get mats k) ((ps * s) + sl)
        done;
        if !v > !joint then joint := !v
      end
    done;
    let unplaced_bound = ref 0.0 in
    let gmaxes = eng.ep_gmax.(item) in
    for k = 0 to deg - 1 do
      if placed.(partners.(k)) < 0 then
        unplaced_bound := !unplaced_bound +. Array.unsafe_get gmaxes k
    done;
    total := !total +. !joint +. !unplaced_bound
  done;
  !total

(* Exact-assignment bound (the last rung of the Gilmore–Lawler ladder),
   consulted only when [dynamic_rest_tight] fails to prune. The tight
   bound still lets two remaining items claim the same free slot; here
   we solve the max-weight assignment of remaining items to free slots
   exactly (shortest-augmenting-path Hungarian on negated weights,
   O(m²·k) for m items × k slots), with weight(item, slot) = unary +
   committed-partner pair terms. Unplaced-partner pairs keep the
   additive whole-matrix ceiling. When every partner of every
   remaining item is committed — e.g. deep in a star-shaped interaction
   graph — this bound is the exact best completion, so the search
   expands little beyond the optimal descent plus its proof.
   Dominance: tight takes each item's best slot independently, the
   matching constrains those choices to be injective, so
   cheap ≥ tight ≥ matching ≥ truth — admissible, and filtering with
   the cheaper levels first never changes the node set. *)
let dynamic_rest_matching eng pos =
  let n = eng.n and s = eng.s in
  let used = eng.used and banned = eng.banned and placed = eng.placed in
  let m = n - pos in
  if m = 0 then 0.0
  else begin
    let free = eng.mt_free in
    let k = ref 0 in
    for sl = 0 to s - 1 do
      if not (used.(sl) || banned.(sl)) then begin
        free.(!k) <- sl;
        incr k
      end
    done;
    let k = !k in
    let w = eng.mt_w in
    let unplaced_bound = ref 0.0 in
    for r = 0 to m - 1 do
      let item = eng.order.(pos + r) in
      let row = eng.p.unary.(item) in
      let partners = eng.ep_partner.(item) in
      let mats = eng.ep_mat.(item) in
      let deg = Array.length partners in
      for c = 0 to k - 1 do
        let sl = Array.unsafe_get free c in
        let v = ref (Array.unsafe_get row sl) in
        for j = 0 to deg - 1 do
          let ps = placed.(partners.(j)) in
          if ps >= 0 then
            v := !v +. Array.unsafe_get (Array.unsafe_get mats j) ((ps * s) + sl)
        done;
        w.((r * s) + c) <- !v
      done;
      let gmaxes = eng.ep_gmax.(item) in
      for j = 0 to deg - 1 do
        if placed.(partners.(j)) < 0 then
          unplaced_bound := !unplaced_bound +. Array.unsafe_get gmaxes j
      done
    done;
    (* Min-cost assignment on negated weights; 1-indexed potentials,
       [mt_match.(j)] = row currently matched to column [j] (0 = none). *)
    let u = eng.mt_u and v = eng.mt_v in
    let mt = eng.mt_match and way = eng.mt_way in
    let minv = eng.mt_minv and usedc = eng.mt_used in
    Array.fill u 0 (m + 1) 0.0;
    Array.fill v 0 (k + 1) 0.0;
    Array.fill mt 0 (k + 1) 0;
    let cost i j = -.w.(((i - 1) * s) + (j - 1)) in
    for i = 1 to m do
      mt.(0) <- i;
      let j0 = ref 0 in
      Array.fill minv 0 (k + 1) infinity;
      Array.fill usedc 0 (k + 1) false;
      let break = ref false in
      while not !break do
        usedc.(!j0) <- true;
        let i0 = mt.(!j0) in
        let delta = ref infinity and j1 = ref (-1) in
        for j = 1 to k do
          if not usedc.(j) then begin
            let cur = cost i0 j -. u.(i0) -. v.(j) in
            if cur < minv.(j) then begin
              minv.(j) <- cur;
              way.(j) <- !j0
            end;
            if minv.(j) < !delta then begin
              delta := minv.(j);
              j1 := j
            end
          end
        done;
        for j = 0 to k do
          if usedc.(j) then begin
            u.(mt.(j)) <- u.(mt.(j)) +. !delta;
            v.(j) <- v.(j) -. !delta
          end
          else minv.(j) <- minv.(j) -. !delta
        done;
        j0 := !j1;
        if mt.(!j0) = 0 then break := true
      done;
      let j0 = ref !j0 in
      while !j0 <> 0 do
        let j1 = way.(!j0) in
        mt.(!j0) <- mt.(j1);
        j0 := j1
      done
    done;
    let total = ref !unplaced_bound in
    for j = 1 to k do
      if mt.(j) > 0 then total := !total +. w.(((mt.(j) - 1) * s) + (j - 1))
    done;
    !total
  end

let run eng ~budget =
  let n = eng.n and s = eng.s in
  let clock = Budget.Clock.start budget in
  let placed = eng.placed and used = eng.used in
  let best = Array.make n (-1) in
  let best_score = ref neg_infinity in
  let have_solution = ref false in
  let blown = ref false in
  let hit_static = ref 0
  and hit_cheap = ref 0
  and hit_tight = ref 0
  and hit_matching = ref 0 in
  let rec dfs pos acc =
    if !blown then ()
    else if not (Budget.Clock.tick clock) then begin
      blown := true;
      (* Finish the current descent greedily so we always return something. *)
      if not !have_solution then complete_greedily pos acc
    end
    else if pos = n then begin
      if acc > !best_score then begin
        best_score := acc;
        Array.blit placed 0 best 0 n;
        have_solution := true
      end
    end
    else begin
      let item = eng.order.(pos) in
      let slots = eng.cand_slot.(pos) and scores = eng.cand_score.(pos) in
      let k = fill_candidates eng pos in
      (* Lazily computed, memoized for the node: every candidate shares
         the same free-slot set at this depth. *)
      let cheap = ref nan and tight = ref nan and matching = ref nan in
      let dyn_cheap () =
        if Float.is_nan !cheap then cheap := dynamic_rest_cheap eng (pos + 1);
        !cheap
      in
      let dyn_tight () =
        if Float.is_nan !tight then tight := dynamic_rest_tight eng (pos + 1);
        !tight
      in
      let dyn_matching () =
        if Float.is_nan !matching then
          matching := dynamic_rest_matching eng (pos + 1);
        !matching
      in
      for c = 0 to k - 1 do
        let slot = slots.(c) and inc = scores.(c) in
        let static_bound = acc +. inc +. eng.optimistic.(pos + 1) in
        (* Same ladder, same lazy evaluation order as the old `&&`
           chain — only the pruning level is now attributed. *)
        let descend =
          (not !have_solution)
          ||
          if not (static_bound > !best_score) then begin
            Stdlib.incr hit_static;
            false
          end
          else if not (acc +. inc +. dyn_cheap () > !best_score) then begin
            Stdlib.incr hit_cheap;
            false
          end
          else if not (acc +. inc +. dyn_tight () > !best_score) then begin
            Stdlib.incr hit_tight;
            false
          end
          else if not (acc +. inc +. dyn_matching () > !best_score) then begin
            Stdlib.incr hit_matching;
            false
          end
          else true
        in
        if descend then begin
          placed.(item) <- slot;
          used.(slot) <- true;
          dfs (pos + 1) (acc +. inc);
          used.(slot) <- false;
          placed.(item) <- -1
        end
      done
    end
  and complete_greedily pos acc =
    (* Budget blown before any leaf: finish by taking the best slot at
       each remaining level without branching. *)
    if pos = n then begin
      best_score := acc;
      Array.blit placed 0 best 0 n;
      have_solution := true
    end
    else begin
      let item = eng.order.(pos) in
      let best_slot = ref (-1) and best_inc = ref neg_infinity in
      for slot = 0 to s - 1 do
        if not used.(slot) && not (eng.forbid slot) then begin
          let inc = incremental eng item slot in
          if inc > !best_inc then begin
            best_inc := inc;
            best_slot := slot
          end
        end
      done;
      placed.(item) <- !best_slot;
      used.(!best_slot) <- true;
      complete_greedily (pos + 1) (acc +. !best_inc)
    end
  in
  dfs 0 0.0;
  Nisq_obs.Metrics.add m_bound_static !hit_static;
  Nisq_obs.Metrics.add m_bound_cheap !hit_cheap;
  Nisq_obs.Metrics.add m_bound_tight !hit_tight;
  Nisq_obs.Metrics.add m_bound_matching !hit_matching;
  {
    assignment = best;
    objective = !best_score;
    stats =
      Budget.Clock.stats clock ~exhausted:(not !blown)
        ~bound_hits:
          [
            ("static", !hit_static);
            ("cheap", !hit_cheap);
            ("tight", !hit_tight);
            ("matching", !hit_matching);
          ];
  }

let solve ?(budget = Budget.unlimited) ?(forbid = fun _ -> false) p =
  (* Everything past validation counts constraint evaluations, and
     [forbid] is caller code that may raise (fault injection, a live-slot
     probe hitting corrupted state). Publish the tally on every exit so
     the counter never undercounts. *)
  let evals = ref 0 in
  let eng = make_engine ~forbid ~evals p in
  Fun.protect ~finally:(fun () -> Nisq_obs.Metrics.add m_evals !evals)
  @@ fun () -> run eng ~budget

let brute_force p =
  validate p;
  let n = p.num_items and s = p.num_slots in
  let assignment = Array.make n (-1) in
  let used = Array.make s false in
  let best = Array.make n (-1) in
  let best_score = ref neg_infinity in
  let rec go i =
    if i = n then begin
      let v = score p assignment in
      if v > !best_score then begin
        best_score := v;
        Array.blit assignment 0 best 0 n
      end
    end
    else
      for slot = 0 to s - 1 do
        if not used.(slot) then begin
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
