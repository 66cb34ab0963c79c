module Faultkit = Nisq_faultkit.Faultkit
module Deadline = Nisq_runkit.Deadline

type t = { max_nodes : int option; max_seconds : float option }

let unlimited = { max_nodes = None; max_seconds = None }

let nodes n = { max_nodes = Some n; max_seconds = None }

let seconds s = { max_nodes = None; max_seconds = Some s }

let make ?max_nodes ?max_seconds () = { max_nodes; max_seconds }

type stats = {
  nodes_visited : int;
  elapsed_seconds : float;
  proven_optimal : bool;
  degraded : bool;
  bound_hits : (string * int) list;
}

module Clock = struct
  type nonrec t = {
    budget : t;
    started : float;
    mutable count : int;
    mutable blown : bool;
  }

  (* Node totals are deterministic unless a wall-clock budget blows; the
     paper-scale benchmarks stay far inside the default time budget. *)
  let m_solves = Nisq_obs.Metrics.counter "solver.solves"
  let m_nodes = Nisq_obs.Metrics.counter "solver.nodes"
  let m_degraded = Nisq_obs.Metrics.counter "resilience.solver.degraded"

  let start budget =
    Nisq_obs.Metrics.incr m_solves;
    (* A "solver:blow" fault starts the clock pre-exhausted: the search
       falls straight through to its best-so-far/greedy completion path
       and reports a degraded result, exercising the fallback ladder. *)
    (* A cancelled run (blown deadline, SIGINT/SIGTERM) likewise starts
       exhausted: the search degrades to its fast completion path instead
       of burning the shutdown grace period on a doomed solve. *)
    let blown = Faultkit.solver_blow () || Deadline.is_cancelled () in
    { budget; started = Unix.gettimeofday (); count = 0; blown }

  let tick c =
    if c.blown then false
    else begin
      c.count <- c.count + 1;
      let over_nodes =
        match c.budget.max_nodes with Some n -> c.count > n | None -> false
      in
      (* Check the clock only every 256 nodes: gettimeofday is not free.
         The run deadline piggybacks on the same cadence — this is the
         solver's cancellation point, so even an unbounded search notices
         a flipped token within 256 nodes. *)
      let over_time =
        (c.count land 255) = 0
        && (Deadline.is_cancelled ()
           ||
           match c.budget.max_seconds with
           | Some s -> Unix.gettimeofday () -. c.started > s
           | None -> false)
      in
      if over_nodes || over_time then begin
        c.blown <- true;
        false
      end
      else true
    end

  let stats ?(bound_hits = []) c ~exhausted =
    Nisq_obs.Metrics.add m_nodes c.count;
    if c.blown then Nisq_obs.Metrics.incr m_degraded;
    {
      nodes_visited = c.count;
      elapsed_seconds = Unix.gettimeofday () -. c.started;
      proven_optimal = exhausted && not c.blown;
      degraded = c.blown;
      bound_hits;
    }
end
