module Gate = Nisq_circuit.Gate
module Calibration = Nisq_device.Calibration
module Rng = Nisq_util.Rng
module Pool = Nisq_util.Pool
module Clock = Nisq_obs.Clock
module Metrics = Nisq_obs.Metrics
module Trace = Nisq_obs.Trace

(* Fault tallies are accumulated per chunk in plain ints and batch-added
   here, so the counter totals are sums over the fixed chunk
   decomposition — identical for any pool size. Chunk latency is
   wall-clock and lands in a histogram instead. *)
let m_trials = Metrics.counter "sim.trials"
let m_fault_t2 = Metrics.counter "sim.faults.t2_dephase"
let m_fault_t1 = Metrics.counter "sim.faults.t1_damp"
let m_fault_single = Metrics.counter "sim.faults.single"
let m_fault_cnot = Metrics.counter "sim.faults.cnot"
let m_fault_readout = Metrics.counter "sim.faults.readout"

(* Noisy-trial routing between the stabilizer tableau and the dense
   state vector (fault-free trials take the ideal-distribution shortcut
   and count under neither). Tallied per chunk like the fault counters,
   so the split is pool-size-independent. *)
let m_clifford_hit = Metrics.counter "sim.clifford.hit"
let m_clifford_fallback = Metrics.counter "sim.clifford.fallback"

let chunk_bounds = [| 1e4; 3e4; 1e5; 3e5; 1e6; 3e6; 1e7; 3e7; 1e8 |]

let h_chunk_ns = Metrics.histogram "sim.chunk_latency_ns" ~bounds:chunk_bounds

(* The same latency, split by which backend the chunk's noisy trials ran
   on, so tableau and dense chunk costs are separately observable. *)
let h_chunk_tab_ns =
  Metrics.histogram "sim.chunk_latency_tableau_ns" ~bounds:chunk_bounds

let h_chunk_dense_ns =
  Metrics.histogram "sim.chunk_latency_dense_ns" ~bounds:chunk_bounds

type op = { kind : Gate.kind; qubits : int array; start : int; duration : int }

type site =
  | Dephase of { local : int; prob : float }  (* Z with prob before the op *)
  | Damp of { local : int; prob : float }
      (* amplitude-damping jump attempt before the op: when fired, the
         qubit decays |1> -> |0> with its current excited-state
         probability (the no-jump backaction is neglected; see mli) *)
  | Fault1 of { local : int; prob : float }  (* random Pauli after a 1q gate *)
  | Fault2 of { l0 : int; l1 : int; prob : float }  (* 2q Pauli after a CNOT *)

type prepared_op = {
  kind : Gate.kind;
  locals : int array;  (* operands as local (compacted) indices *)
  pre : site array;  (* Dephase/Damp idle-noise sites, in order *)
  fault : site option;  (* the gate-fault site, applied after the op *)
  readout_flip : float;  (* measure ops only *)
  answer_bit : int;  (* measure ops only: bit position in the answer *)
}

type t = {
  num_local : int;
  ops : prepared_op array;
  (* Flattened firing probabilities of every noise site, in execution
     order (per op: pre sites then the fault site). One linear scan of
     this array decides a whole trial's fault set. *)
  site_probs : float array;
  (* channel of each flat site, parallel to [site_probs]; indexes the
     per-chunk tally (see [tally_slot]) *)
  site_kinds : int array;
  ideal : int;
  ideal_prob : float;
  (* cumulative distribution over answers for the no-fault shortcut *)
  answer_values : int array;
  answer_cumulative : float array;
  (* every unitary in [ops] is a Clifford generator, so noisy trials may
     run on the stabilizer tableau (see [run_trial_scratch]) *)
  clifford_ok : bool;
}

(* The stabilizer fast path is on by default; NISQ_STABILIZER=0 (or
   "off"/"false") forces every noisy trial onto the dense path, and the
   programmatic override exists for equivalence tests that compare the
   two backends in one process. *)
let stabilizer_override = Atomic.make None

let set_stabilizer_enabled v = Atomic.set stabilizer_override v

(* read once at load: a lazy would race when worker domains force it *)
let stabilizer_env =
  match Sys.getenv_opt "NISQ_STABILIZER" with
  | Some ("0" | "off" | "false" | "no") -> false
  | _ -> true

let stabilizer_enabled () =
  match Atomic.get stabilizer_override with
  | Some v -> v
  | None -> stabilizer_env

let dephase_prob calib ~hw ~gap_slots =
  if gap_slots <= 0 then 0.0
  else
    let t2_ns = calib.Calibration.t2_us.(hw) *. 1000.0 in
    let gap_ns = Float.of_int gap_slots *. Calibration.timeslot_ns in
    0.5 *. (1.0 -. exp (-.gap_ns /. t2_ns))

let damp_prob calib ~hw ~gap_slots =
  if gap_slots <= 0 then 0.0
  else
    let t1_ns = calib.Calibration.t1_us.(hw) *. 1000.0 in
    let gap_ns = Float.of_int gap_slots *. Calibration.timeslot_ns in
    1.0 -. exp (-.gap_ns /. t1_ns)

let site_prob = function
  | Dephase { prob; _ } | Damp { prob; _ } | Fault1 { prob; _ }
  | Fault2 { prob; _ } -> prob

(* Tally slots: 0 dephase (T2), 1 damp (T1), 2 single-qubit fault,
   3 CNOT fault, 4 readout flip. *)
let tally_slot = function
  | Dephase _ -> 0
  | Damp _ -> 1
  | Fault1 _ -> 2
  | Fault2 _ -> 3

let tally_slots = 5

let readout_slot = 4

(* Run the unitary part noiselessly (measurements deferred) and return the
   final state. *)
let noiseless_final_state num_local (ops : prepared_op array) =
  let st = State.create num_local in
  Array.iter
    (fun op ->
      match op.kind with
      | Gate.Measure | Gate.Barrier -> ()
      | k -> State.apply_gate st k op.locals)
    ops;
  st

let prepare ~calib ~ops ~readout =
  (* Validate time-ordering. *)
  let () =
    let last = ref min_int in
    Array.iter
      (fun o ->
        if o.start < !last then invalid_arg "Runner.prepare: ops not time-ordered";
        last := o.start)
      ops
  in
  (* Compact hardware qubits to local indices. *)
  let local_of = Hashtbl.create 16 in
  let next = ref 0 in
  let local hw =
    match Hashtbl.find_opt local_of hw with
    | Some l -> l
    | None ->
        let l = !next in
        Hashtbl.add local_of hw l;
        incr next;
        l
  in
  Array.iter (fun o -> Array.iter (fun q -> ignore (local q)) o.qubits) ops;
  List.iter (fun (_, hw) -> ignore (local hw)) readout;
  let num_local = !next in
  if num_local > 24 then invalid_arg "Runner.prepare: too many active qubits";
  (* Answer-bit positions: ascending program qubit order. *)
  let sorted_readout = List.sort compare readout in
  let bit_of_hw = Hashtbl.create 8 in
  List.iteri (fun i (_, hw) -> Hashtbl.add bit_of_hw hw i) sorted_readout;
  (* Build prepared ops with noise sites. *)
  let last_time = Array.make num_local 0 in
  let measured = Array.make num_local false in
  let prepared =
    Array.map
      (fun o ->
        let locals = Array.map local o.qubits in
        Array.iter
          (fun l ->
            if measured.(l) then
              invalid_arg "Runner.prepare: op touches an already-measured qubit")
          locals;
        let pre =
          Array.to_list
            (Array.mapi
               (fun idx l ->
                 let hw = o.qubits.(idx) in
                 let gap_slots = o.start - last_time.(l) in
                 [
                   Dephase { local = l; prob = dephase_prob calib ~hw ~gap_slots };
                   Damp { local = l; prob = damp_prob calib ~hw ~gap_slots };
                 ])
               locals)
          |> List.concat |> Array.of_list
        in
        Array.iter (fun l -> last_time.(l) <- o.start + o.duration) locals;
        let fault =
          match o.kind with
          | Gate.Cnot ->
              Some
                (Fault2
                   {
                     l0 = locals.(0);
                     l1 = locals.(1);
                     prob = Calibration.cnot_error calib o.qubits.(0) o.qubits.(1);
                   })
          | Gate.Measure | Gate.Barrier -> None
          | Gate.Swap -> invalid_arg "Runner.prepare: lower Swap gates first"
          | _ ->
              Some
                (Fault1
                   {
                     local = locals.(0);
                     prob = calib.Calibration.single_error.(o.qubits.(0));
                   })
        in
        let readout_flip, answer_bit =
          match o.kind with
          | Gate.Measure ->
              measured.(locals.(0)) <- true;
              let hw = o.qubits.(0) in
              let bit =
                match Hashtbl.find_opt bit_of_hw hw with
                | Some b -> b
                | None ->
                    invalid_arg
                      "Runner.prepare: measured qubit absent from readout map"
              in
              (Calibration.readout_error calib hw, bit)
          | _ -> (0.0, -1)
        in
        { kind = o.kind; locals; pre; fault; readout_flip; answer_bit })
      ops
  in
  let num_measures =
    Array.fold_left
      (fun acc o -> if o.kind = Gate.Measure then acc + 1 else acc)
      0 prepared
  in
  if num_measures <> List.length readout then
    invalid_arg "Runner.prepare: measure count does not match readout map";
  (* Flattened site probabilities in execution order. *)
  let site_probs, site_kinds =
    let acc = ref [] in
    Array.iter
      (fun op ->
        Array.iter (fun s -> acc := s :: !acc) op.pre;
        Option.iter (fun s -> acc := s :: !acc) op.fault)
      prepared;
    let sites = Array.of_list (List.rev !acc) in
    (Array.map site_prob sites, Array.map tally_slot sites)
  in
  (* Ideal answer distribution from the noiseless final state. *)
  let final = noiseless_final_state num_local prepared in
  let probs = State.probabilities final in
  let answer_of_basis =
    (* map a basis index to the packed answer using measured locals *)
    let pairs =
      List.map (fun (_, hw) -> Hashtbl.find local_of hw) sorted_readout
    in
    fun basis ->
      List.fold_left
        (fun (acc, bit) l ->
          ((if basis land (1 lsl l) <> 0 then acc lor (1 lsl bit) else acc), bit + 1))
        (0, 0) pairs
      |> fst
  in
  let answer_probs = Hashtbl.create 16 in
  Array.iteri
    (fun basis p ->
      if p > 0.0 then begin
        let a = answer_of_basis basis in
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt answer_probs a) in
        Hashtbl.replace answer_probs a (prev +. p)
      end)
    probs;
  let pairs =
    Hashtbl.fold (fun a p acc -> (a, p) :: acc) answer_probs []
    |> List.sort compare
  in
  let ideal, ideal_prob =
    List.fold_left
      (fun (ba, bp) (a, p) -> if p > bp then (a, p) else (ba, bp))
      (-1, neg_infinity) pairs
  in
  let answer_values = Array.of_list (List.map fst pairs) in
  let answer_cumulative =
    let acc = ref 0.0 in
    Array.of_list
      (List.map
         (fun (_, p) ->
           acc := !acc +. p;
           !acc)
         pairs)
  in
  let clifford_ok =
    Array.for_all
      (fun (o : prepared_op) ->
        match o.kind with
        | Gate.Measure | Gate.Barrier -> true
        | k -> Stabilizer.is_clifford k)
      prepared
  in
  { num_local; ops = prepared; site_probs; site_kinds; ideal; ideal_prob;
    answer_values; answer_cumulative; clifford_ok }

let num_active_qubits t = t.num_local

let clifford_capable t = t.clifford_ok

let ideal_answer t = t.ideal

let ideal_answer_probability t = t.ideal_prob

let ideal_distribution t =
  let n = Array.length t.answer_values in
  List.init n (fun i ->
      let p =
        if i = 0 then t.answer_cumulative.(0)
        else t.answer_cumulative.(i) -. t.answer_cumulative.(i - 1)
      in
      (t.answer_values.(i), p))

let sample_ideal t rng =
  let u = Rng.float rng 1.0 in
  let n = Array.length t.answer_cumulative in
  let rec find i =
    if i >= n - 1 then t.answer_values.(n - 1)
    else if u < t.answer_cumulative.(i) then t.answer_values.(i)
    else find (i + 1)
  in
  find 0

let random_pauli rng = match Rng.int rng 3 with 0 -> `X | 1 -> `Y | _ -> `Z

(* A uniform non-identity two-qubit Pauli: pick one of the 15 non-II
   combinations of {I,X,Y,Z}^2. *)
let apply_random_pauli2 st rng l0 l1 =
  let k = 1 + Rng.int rng 15 in
  let p0 = k land 3 and p1 = (k lsr 2) land 3 in
  let apply l = function
    | 1 -> State.apply_pauli st `X l
    | 2 -> State.apply_pauli st `Y l
    | 3 -> State.apply_pauli st `Z l
    | _ -> ()
  in
  apply l0 p0;
  apply l1 p1

(* The tableau twin, drawing the same random numbers. *)
let apply_random_pauli2_tab st rng l0 l1 =
  let k = 1 + Rng.int rng 15 in
  let p0 = k land 3 and p1 = (k lsr 2) land 3 in
  let apply l = function
    | 1 -> Stabilizer.apply_pauli st `X l
    | 2 -> Stabilizer.apply_pauli st `Y l
    | 3 -> Stabilizer.apply_pauli st `Z l
    | _ -> ()
  in
  apply l0 p0;
  apply l1 p1

(* Per-trial scratch: the sorted flat indices of the sites that fired,
   plus the reusable simulator registers. Sized once per job, cached per
   domain in [arena] and reused across every chunk the domain runs for
   that job, so the chunk loop performs no per-trial or per-chunk buffer
   allocation. Each domain owns its own scratch; [t] itself is shared
   read-only. *)
type scratch = {
  fired : int array;
  mutable nfired : int;
  tally : int array;  (* per-channel fired-site counts, see [tally_slot] *)
  state : State.t;  (* dense register, [State.reset] per noisy trial *)
  tableau : Stabilizer.t option;  (* Some iff [t.clifford_ok] *)
  mutable tab_trials : int;  (* per-chunk: noisy trials on the tableau *)
  mutable dense_trials : int;  (* per-chunk: noisy trials on dense *)
}

let create_scratch t =
  {
    fired = Array.make (max 1 (Array.length t.site_probs)) 0;
    nfired = 0;
    tally = Array.make tally_slots 0;
    state = State.create t.num_local;
    tableau = (if t.clifford_ok then Some (Stabilizer.create t.num_local) else None);
    tab_trials = 0;
    dense_trials = 0;
  }

let arena : (t, scratch) Nisq_util.Scratch.t = Nisq_util.Scratch.create ()

(* The domain's cached scratch for [t], with the per-chunk accumulators
   cleared. Pool chunks never nest on a domain, so the value is exclusive
   to the caller for the duration of the chunk. *)
let scratch_for t =
  let s = Nisq_util.Scratch.get arena ~key:t ~make:create_scratch in
  s.nfired <- 0;
  Array.fill s.tally 0 tally_slots 0;
  s.tab_trials <- 0;
  s.dense_trials <- 0;
  s

(* Decide which noise sites fire this trial. Fills [scratch.fired] with
   flat site indices in increasing (execution) order; allocates nothing,
   and on the common fault-free path leaves [scratch.nfired = 0]. *)
let sample_faults t scratch rng =
  let probs = t.site_probs in
  let n = Array.length probs in
  let fired = scratch.fired in
  let nfired = ref 0 in
  for i = 0 to n - 1 do
    let p = Array.unsafe_get probs i in
    if p > 0.0 && Rng.float rng 1.0 < p then begin
      Array.unsafe_set fired !nfired i;
      incr nfired
    end
  done;
  scratch.nfired <- !nfired

(* Replay the circuit applying the fired sites. The fired array is sorted
   in execution order, so a single cursor walks it in lockstep with the
   flat site counter — no per-trial hash table. *)
let run_noisy t scratch rng =
  let fired = scratch.fired and nfired = scratch.nfired in
  let st = scratch.state in
  State.reset st;
  let answer = ref 0 in
  let cursor = ref 0 in
  let flat = ref 0 in
  let fires () =
    !cursor < nfired && Array.unsafe_get fired !cursor = !flat
  in
  Array.iter
    (fun op ->
      Array.iter
        (fun site ->
          (if fires () then begin
             incr cursor;
             match site with
             | Dephase { local; _ } -> State.apply_pauli st `Z local
             | Damp { local; _ } ->
                 (* amplitude-damping jump: decay |1> -> |0> with the
                    current excited-state probability *)
                 let p1 = State.prob_one st local in
                 if p1 > 1e-12 && Rng.float rng 1.0 < p1 then begin
                   State.collapse st local true;
                   State.apply_pauli st `X local
                 end
             | Fault1 _ | Fault2 _ -> assert false
           end);
          incr flat)
        op.pre;
      (match op.kind with
      | Gate.Barrier -> ()
      | Gate.Measure ->
          let bit = State.measure st rng op.locals.(0) in
          (* the flip draw happens unconditionally, as before, so the
             stream of random numbers is unchanged by the tally *)
          let flipped = Rng.float rng 1.0 < op.readout_flip in
          if flipped then
            scratch.tally.(readout_slot) <- scratch.tally.(readout_slot) + 1;
          let bit = if flipped then not bit else bit in
          if bit then answer := !answer lor (1 lsl op.answer_bit)
      | k -> State.apply_gate st k op.locals);
      match op.fault with
      | None -> ()
      | Some site ->
          (if fires () then begin
             incr cursor;
             match site with
             | Fault1 { local; _ } -> State.apply_pauli st (random_pauli rng) local
             | Fault2 { l0; l1; _ } -> apply_random_pauli2 st rng l0 l1
             | Dephase _ | Damp _ -> assert false
           end);
          incr flat)
    t.ops;
  !answer

(* The tableau replay: structurally identical to [run_noisy] — same op
   walk, same cursor discipline, and draw-for-draw the same RNG
   consumption (each measure takes one float draw on both backends, see
   Stabilizer's RNG contract; a fired damp site takes one gated draw on
   both) — so a trial produces bit-identical answers on either
   backend. *)
let run_noisy_tab t scratch rng =
  let fired = scratch.fired and nfired = scratch.nfired in
  let st =
    match scratch.tableau with Some st -> st | None -> assert false
  in
  Stabilizer.reset st;
  let answer = ref 0 in
  let cursor = ref 0 in
  let flat = ref 0 in
  let fires () =
    !cursor < nfired && Array.unsafe_get fired !cursor = !flat
  in
  Array.iter
    (fun op ->
      Array.iter
        (fun site ->
          (if fires () then begin
             incr cursor;
             match site with
             | Dephase { local; _ } -> Stabilizer.apply_pauli st `Z local
             | Damp { local; _ } ->
                 (* the damp jump is a projective collapse + X decay —
                    a stabilizer operation, simulated exactly with the
                    same draw-gating rule as the dense path (tableau
                    probabilities are exactly 0, 1/2 or 1, and the
                    dense amplitudes of a stabilizer state are exact
                    zeros off its support, so the p1 > 1e-12 gate
                    agrees on whether the draw happens) *)
                 let p1 = Stabilizer.prob_one st local in
                 if p1 > 1e-12 && Rng.float rng 1.0 < p1 then begin
                   Stabilizer.collapse_one st local;
                   Stabilizer.apply_pauli st `X local
                 end
             | Fault1 _ | Fault2 _ -> assert false
           end);
          incr flat)
        op.pre;
      (match op.kind with
      | Gate.Barrier -> ()
      | Gate.Measure ->
          let bit = Stabilizer.measure st rng op.locals.(0) in
          let flipped = Rng.float rng 1.0 < op.readout_flip in
          if flipped then
            scratch.tally.(readout_slot) <- scratch.tally.(readout_slot) + 1;
          let bit = if flipped then not bit else bit in
          if bit then answer := !answer lor (1 lsl op.answer_bit)
      | k -> Stabilizer.apply_gate st k op.locals);
      match op.fault with
      | None -> ()
      | Some site ->
          (if fires () then begin
             incr cursor;
             match site with
             | Fault1 { local; _ } ->
                 Stabilizer.apply_pauli st (random_pauli rng) local
             | Fault2 { l0; l1; _ } -> apply_random_pauli2_tab st rng l0 l1
             | Dephase _ | Damp _ -> assert false
           end);
          incr flat)
    t.ops;
  !answer

let readout_flips t scratch rng answer =
  Array.fold_left
    (fun acc op ->
      (* same draw pattern as before the tally existed: one flip draw per
         measure op, none for other ops *)
      if op.kind = Gate.Measure && Rng.float rng 1.0 < op.readout_flip then begin
        scratch.tally.(readout_slot) <- scratch.tally.(readout_slot) + 1;
        acc lxor (1 lsl op.answer_bit)
      end
      else acc)
    answer t.ops

(* Per-trial dispatch (DESIGN.md §14): a fault-free trial samples the
   exact ideal distribution; a noisy trial replays on the stabilizer
   tableau when every unitary of the job is Clifford (the sampled error
   channels — Pauli faults, dephasing, damp jumps, readout flips — are
   all stabilizer operations and never disqualify a trial), and on the
   dense vector otherwise. The decision depends only on the job and the
   trial's own fault sample, so it is identical at every pool size. *)
let run_trial_scratch t ~use_tab scratch rng =
  sample_faults t scratch rng;
  if scratch.nfired = 0 then
    (* Fault-free trial: the quantum part is exact, only sampling and
       classical readout noise remain. *)
    readout_flips t scratch rng (sample_ideal t rng)
  else begin
    for c = 0 to scratch.nfired - 1 do
      let k = t.site_kinds.(scratch.fired.(c)) in
      scratch.tally.(k) <- scratch.tally.(k) + 1
    done;
    if use_tab then begin
      scratch.tab_trials <- scratch.tab_trials + 1;
      run_noisy_tab t scratch rng
    end
    else begin
      scratch.dense_trials <- scratch.dense_trials + 1;
      run_noisy t scratch rng
    end
  end

let run_trial t rng =
  let use_tab = t.clifford_ok && stabilizer_enabled () in
  run_trial_scratch t ~use_tab (scratch_for t) rng

(* ------------------------------------------------------------------ *)
(* Chunked Monte-Carlo estimation                                      *)
(*                                                                     *)
(* Trials are split into fixed-size chunks; chunk [i] draws from the   *)
(* independent stream [Rng.create (Rng.mix seed i)]. The chunk         *)
(* decomposition depends only on [trials] and [seed] — never on the    *)
(* pool size — so estimates are bit-for-bit identical whether chunks   *)
(* run sequentially or across any number of domains.                   *)
(* ------------------------------------------------------------------ *)

let chunk_size = 256

let num_chunks trials = (trials + chunk_size - 1) / chunk_size

let chunk_trials ~trials i = min chunk_size (trials - (i * chunk_size))

(* Publish a chunk's tallies. [Metrics.add] of a deterministic per-chunk
   quantity keeps counter totals independent of the pool size. *)
let publish_tally scratch ~n =
  Metrics.add m_trials n;
  Metrics.add m_fault_t2 scratch.tally.(0);
  Metrics.add m_fault_t1 scratch.tally.(1);
  Metrics.add m_fault_single scratch.tally.(2);
  Metrics.add m_fault_cnot scratch.tally.(3);
  Metrics.add m_fault_readout scratch.tally.(readout_slot);
  Metrics.add m_clifford_hit scratch.tab_trials;
  Metrics.add m_clifford_fallback scratch.dense_trials

let observe_chunk ~use_tab t0 =
  let ns = Int64.to_float (Int64.sub (Clock.now_ns ()) t0) in
  Metrics.observe h_chunk_ns ns;
  Metrics.observe (if use_tab then h_chunk_tab_ns else h_chunk_dense_ns) ns

let chunk_hits t ~seed ~trials i =
  Trace.with_span "sim.chunk" @@ fun () ->
  let record = Metrics.enabled () in
  let t0 = if record then Clock.now_ns () else 0L in
  let n = chunk_trials ~trials i in
  let rng = Rng.create (Rng.mix seed i) in
  let use_tab = t.clifford_ok && stabilizer_enabled () in
  let scratch = scratch_for t in
  let hits = ref 0 in
  for _ = 1 to n do
    if run_trial_scratch t ~use_tab scratch rng = t.ideal then incr hits
  done;
  if record then begin
    observe_chunk ~use_tab t0;
    publish_tally scratch ~n
  end;
  !hits

let check_trials fn trials =
  if trials <= 0 then invalid_arg (fn ^ ": trials must be positive")

let success_rate_seq ?(trials = 4096) ~seed t =
  check_trials "Runner.success_rate_seq" trials;
  Trace.with_span "simulate" @@ fun () ->
  let hits = ref 0 in
  for i = 0 to num_chunks trials - 1 do
    (* Same cancellation point the pool path hits via [Pool.run_chunk],
       so deadlines and [kill:chunk] faults behave identically at pool
       size 0. *)
    Nisq_runkit.Deadline.chunk_checkpoint i;
    hits := !hits + chunk_hits t ~seed ~trials i
  done;
  Float.of_int !hits /. Float.of_int trials

let success_rate ?(trials = 4096) ?pool ~seed t =
  check_trials "Runner.success_rate" trials;
  Trace.with_span "simulate" @@ fun () ->
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let hits =
    Pool.parallel_chunks pool ~chunks:(num_chunks trials)
      (chunk_hits t ~seed ~trials)
    |> List.fold_left ( + ) 0
  in
  Float.of_int hits /. Float.of_int trials

let chunk_counts t ~seed ~trials i =
  Trace.with_span "sim.chunk" @@ fun () ->
  let record = Metrics.enabled () in
  let t0 = if record then Clock.now_ns () else 0L in
  let n = chunk_trials ~trials i in
  let rng = Rng.create (Rng.mix seed i) in
  let use_tab = t.clifford_ok && stabilizer_enabled () in
  let scratch = scratch_for t in
  let counts = Hashtbl.create 32 in
  for _ = 1 to n do
    let a = run_trial_scratch t ~use_tab scratch rng in
    Hashtbl.replace counts a
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts a))
  done;
  if record then begin
    observe_chunk ~use_tab t0;
    publish_tally scratch ~n
  end;
  counts

let merge_counts per_chunk =
  let total = Hashtbl.create 32 in
  List.iter
    (fun counts ->
      Hashtbl.iter
        (fun a c ->
          Hashtbl.replace total a
            (c + Option.value ~default:0 (Hashtbl.find_opt total a)))
        counts)
    per_chunk;
  Hashtbl.fold (fun a c acc -> (a, c) :: acc) total []
  |> List.sort (fun (a1, c1) (a2, c2) ->
         if c1 <> c2 then compare c2 c1 else compare a1 a2)

let distribution_seq ?(trials = 4096) ~seed t =
  check_trials "Runner.distribution_seq" trials;
  Trace.with_span "simulate" @@ fun () ->
  merge_counts
    (List.init (num_chunks trials) (fun i ->
         Nisq_runkit.Deadline.chunk_checkpoint i;
         chunk_counts t ~seed ~trials i))

let distribution ?(trials = 4096) ?pool ~seed t =
  check_trials "Runner.distribution" trials;
  Trace.with_span "simulate" @@ fun () ->
  let pool = match pool with Some p -> p | None -> Pool.default () in
  merge_counts
    (Pool.parallel_chunks pool ~chunks:(num_chunks trials)
       (chunk_counts t ~seed ~trials))
