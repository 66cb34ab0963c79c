(* Shared plumbing for the benchmark: timing, order statistics, the
   benchmark's own span records, the host fingerprint and the result
   line. Nothing here calls into the program under test except the
   monotonic clock. *)

let now_ns = Nisq_obs.Clock.now_ns
let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6
let ms_since t0 = ms_between t0 (now_ns ())

let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, ms_since t0)

(* ------------------------------ stats ------------------------------- *)

(* Nearest-rank percentile: the sample at 0-based rank ceil(q n) - 1. *)
let rank ~n q = max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1))

let median xs =
  match xs with
  | [] -> 0.0
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> 0.0
  | xs ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
        /. float_of_int (List.length xs))

(* Smallest sample count whose [q] percentile has at least ten samples
   beyond it. *)
let min_samples_for q =
  let rec go n = if n - 1 - rank ~n q >= 10 then n else go (n + 1) in
  go 1

let percent_label q =
  let p = q *. 100.0 in
  if Float.is_integer p then Printf.sprintf "p%.0f" p else Printf.sprintf "p%g" p

(* A latency sample tagged with the class of op that produced it. *)
type sample = { ms : float; cls : string }

(* The tail percentile [q] of [samples], refusing it when fewer than ten
   samples lie beyond. Prints the sanity line: sample count, samples
   beyond, and the class of the sample it lands on. *)
let tail ~label q samples =
  let a = Array.of_list samples in
  Array.stable_sort (fun x y -> compare x.ms y.ms) a;
  let n = Array.length a in
  if n = 0 then failwith (label ^ ": no latency samples");
  let k = rank ~n q in
  let beyond = n - 1 - k in
  let p50 = a.(rank ~n 0.5) in
  Printf.printf "# %s: min %.4f p10 %.4f p25 %.4f p50 %.4f p90 %.4f max %.4f ms\n"
    label a.(0).ms a.(rank ~n 0.1).ms a.(rank ~n 0.25).ms p50.ms
    a.(rank ~n 0.9).ms a.(n - 1).ms;
  Printf.printf "# %s: p50 %.4f ms of n=%d lands on %s\n" label p50.ms n p50.cls;
  Printf.printf "# %s: tail %s %.4f ms of n=%d, %d beyond, lands on %s\n"
    label (percent_label q) a.(k).ms n beyond a.(k).cls;
  if beyond < 10 then
    failwith
      (Printf.sprintf "%s: %s has only %d samples beyond it (need 10)" label
         (percent_label q) beyond);
  (median (List.map (fun s -> s.ms) samples), a.(k).ms)

(* ------------------------------ spans ------------------------------- *)

(* The benchmark's own span records (name, start, end, parent, op id),
   kept in memory and written out when the run ends. Off unless the run
   is traced. Each op is a span of its own and the layer spans timed
   inside it name it as their parent. *)
module Span = struct
  type t = {
    id : int;
    name : string;
    tag : string;
    op : int;
    parent : int;
    start_ns : int64;
    end_ns : int64;
  }

  let enabled = ref false
  let lock = Mutex.create ()
  let records : t list ref = ref []
  let next_id = ref 0
  let stack : int list ref = ref []

  let fresh_id () = Mutex.protect lock (fun () -> incr next_id; !next_id)

  let add r = Mutex.protect lock (fun () -> records := r :: !records)

  (* A top-level span timed by the caller; safe from any thread. *)
  let record ?(tag = "") ~name ~op start_ns end_ns =
    add { id = fresh_id (); name; tag; op; parent = -1; start_ns; end_ns }

  (* [with_ ~name ~op f] runs [f], recording a span whose parent is the
     enclosing [with_] span. The tag may depend on [f]'s result. Single
     thread only. *)
  let with_ ?(tag = fun _ -> "") ~name ~op f =
    if not !enabled then f ()
    else
      let parent = match !stack with p :: _ -> p | [] -> -1 in
      let id = fresh_id () in
      stack := id :: !stack;
      let start_ns = now_ns () in
      let v = Fun.protect ~finally:(fun () -> stack := List.tl !stack) f in
      add { id; name; tag = tag v; op; parent; start_ns; end_ns = now_ns () };
      v

  let all () = List.rev !records
  let ms r = ms_between r.start_ns r.end_ns

  (* Per-op totals of the spans named [name] (optionally filtered by
     tag), over every op that recorded a span. *)
  let per_op ?(keep = fun _ -> true) name =
    let ops = Hashtbl.create 64 and tot = Hashtbl.create 64 in
    List.iter
      (fun r ->
        Hashtbl.replace ops r.op ();
        if r.name = name && keep r then
          Hashtbl.replace tot r.op
            (ms r +. Option.value ~default:0.0 (Hashtbl.find_opt tot r.op)))
      !records;
    Hashtbl.fold
      (fun op () acc ->
        Option.value ~default:0.0 (Hashtbl.find_opt tot op) :: acc)
      ops []

  let write path =
    let oc = open_out path in
    List.iter
      (fun r ->
        Printf.fprintf oc
          "{\"id\":%d,\"name\":%S,\"tag\":%S,\"op\":%d,\"parent\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
          r.id r.name r.tag r.op r.parent r.start_ns r.end_ns)
      (all ());
    close_out oc
end

(* ------------------------------- host ------------------------------- *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      go []

let field_value line =
  match String.index_opt line ':' with
  | None -> None
  | Some i ->
      Some
        ( String.trim (String.sub line 0 i),
          String.trim (String.sub line (i + 1) (String.length line - i - 1)) )

let cpu_model () =
  List.find_map
    (fun l ->
      match field_value l with
      | Some ("model name", v) -> Some v
      | _ -> None)
    (read_lines "/proc/cpuinfo")
  |> Option.value ~default:"unknown"

let nproc () =
  List.length
    (List.filter
       (fun l ->
         match field_value l with Some ("processor", _) -> true | _ -> false)
       (read_lines "/proc/cpuinfo"))

(* VmHWM of a process, in MB. *)
let peak_rss_mb pid =
  List.find_map
    (fun l ->
      match field_value l with
      | Some ("VmHWM", v) -> Scanf.sscanf_opt v "%d kB" (fun kb -> float_of_int kb /. 1024.0)
      | _ -> None)
    (read_lines (Printf.sprintf "/proc/%s/status" pid))
  |> Option.value ~default:0.0

(* The host reference kernel: a fixed, benchmark-owned LCG fill and
   sort of the int array [a], in place, calling no repository code.
   Returns its time in ms. *)
let ref_kernel_ms a =
  let n = Array.length a in
  let s = ref 12345 in
  let t0 = now_ns () in
  for i = 0 to n - 1 do
    s := ((!s * 1103515245) + 12345) land 0x3fffffff;
    a.(i) <- !s
  done;
  Array.sort compare a;
  let ms = ms_since t0 in
  if a.(0) > a.(n - 1) then failwith "ref kernel: sort failed";
  ms

(* The host probe, [host.ref_ms]: the kernel on 400 000 ints, timed at
   the start and end of a run. It is reported, never used to scale. *)
let ref_probe_ms () = ref_kernel_ms (Array.make 400_000 0)

(* Host-normalized time. On a shared VM a vCPU's speed can move by 1.6x
   within a second (see README.md), so every timing is taken against the
   host's speed of the moment. [tick] is called between the program's
   calls (between compiles, simulation jobs, requests); once
   [interval_ms] have passed since the last burst it times a short
   burst: the reference kernel on [burst_ints] ints, then [stream_passes]
   multiply-add passes over two arrays of [stream_floats] floats. The
   kernel follows integer and branch throughput, the passes floating
   point and cache bandwidth; together they track the compiler and the
   simulator better than either alone. The time of an interval outside
   bursts is then weighted, stretch by stretch, by [nominal_ms] over the
   mean time of the two bursts around the stretch: it reads as on a host
   where the burst takes [nominal_ms], about the fast state of a 2-vCPU
   Xeon VM. Burst time is never part of a timing. *)
module Host = struct
  let interval_ms = 25.0
  let burst_ints = 4_000
  let stream_floats = 65_536
  let stream_passes = 3
  let nominal_ms = 1.1
  let lock = Mutex.create ()
  let ints = Array.make burst_ints 0
  let xs = Array.make stream_floats 1.0
  let ys = Array.make stream_floats 0.5

  let stream_ms () =
    let t0 = now_ns () in
    for _ = 1 to stream_passes do
      for i = 0 to stream_floats - 1 do
        Array.unsafe_set xs i ((Array.unsafe_get xs i *. 0.999) +. Array.unsafe_get ys i)
      done
    done;
    let ms = ms_since t0 in
    if Float.is_nan xs.(0) then failwith "host burst: stream failed";
    ms

  type burst = { start : int64; stop : int64; ms : float }

  (* The bursts, newest first, and the minor words they allocated, so
     that the work counts leave them out. *)
  let log : burst list ref = ref []
  let last_end = ref 0L
  let words = [| 0.0 |]

  let burst_locked () =
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    let ms = ref_kernel_ms ints +. stream_ms () in
    let t1 = now_ns () in
    log := { start = t0; stop = t1; ms } :: !log;
    last_end := t1;
    words.(0) <- words.(0) +. (Gc.minor_words () -. w0)

  let burst () = Mutex.protect lock burst_locked

  let tick () =
    Mutex.protect lock (fun () ->
        if ms_since !last_end >= interval_ms then burst_locked ())

  (* The bursts so far, oldest first, to normalize intervals that ended
     before the last of them. *)
  let snapshot () = Array.of_list (List.rev (Mutex.protect lock (fun () -> !log)))

  (* Wall-clock and host-normalized ms of [a, b], bursts left out. *)
  let normalize bursts a b =
    let n = Array.length bursts in
    (* Stretch k runs from the end of burst k-1 to the start of burst k. *)
    let est k =
      if n = 0 then nominal_ms
      else if k = 0 then bursts.(0).ms
      else if k = n then bursts.(n - 1).ms
      else (bursts.(k - 1).ms +. bursts.(k).ms) /. 2.0
    in
    (* The first stretch that ends after [a]. *)
    let rec first lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if bursts.(mid).start <= a then first (mid + 1) hi else first lo mid
    in
    let wall = ref 0.0 and norm = ref 0.0 in
    let rec go k =
      let s = if k = 0 then a else Int64.max a bursts.(k - 1).stop in
      let e = if k = n then b else Int64.min b bursts.(k).start in
      if e > s then (
        let d = ms_between s e in
        wall := !wall +. d;
        norm := !norm +. (d *. nominal_ms /. est k));
      if k < n && bursts.(k).start < b then go (k + 1)
    in
    go (first 0 n);
    (!wall, !norm)

  (* [f ()] with its wall-clock and host-normalized ms, with a burst
     just before and just after it. *)
  let timed f =
    burst ();
    let a = now_ns () in
    let v = f () in
    let b = now_ns () in
    burst ();
    let wall, norm = normalize (snapshot ()) a b in
    (v, wall, norm)

  (* The report line: how many bursts and their spread. *)
  let report () =
    let a = Array.map (fun b -> b.ms) (snapshot ()) in
    Array.sort compare a;
    let n = Array.length a in
    if n > 0 then
      Printf.printf "# host bursts: n=%d p10 %.4f p50 %.4f p90 %.4f ms (nominal %.4f)\n"
        n a.(rank ~n 0.1) a.(rank ~n 0.5) a.(rank ~n 0.9) nominal_ms
end

let fingerprint ~pool_size =
  Printf.printf
    "# host: nproc=%d cpu=%S ocaml=%s profile=%s pool=%d\n" (nproc ())
    (cpu_model ()) Sys.ocaml_version Build_profile.name pool_size

(* ------------------------------ result ------------------------------ *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* [metrics] are (name, value, unit). *)
let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, value, unit_) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (json_number value) unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* Where runs leave their files (ignored by git), inside the checkout. *)
let run_dir () =
  if not (Sys.file_exists "_perfbench") then Sys.mkdir "_perfbench" 0o755;
  "_perfbench"

(* ------------------------------ inputs ------------------------------ *)

(* Every workload runs on the one modelled machine: IBMQ16 with the
   default persistent biases, day after day. recompile-daily lets the
   seed pick which stretch of days it recompiles; the other workloads
   run on the machine's first days for every seed, so their work (job
   widths, compile keys) is the same from seed to seed, and the seed
   picks the simulation seeds and the request mix. *)
let first_day seed = 1000 * (abs seed mod 1_000_000)

let machine_day day =
  Nisq_device.Ibmq16.calibration ~seed:Nisq_device.Ibmq16.default_seed ~day ()

let calibration ~seed k = machine_day (first_day seed + k)

(* ------------------------------- runs ------------------------------- *)

type ctx = { seed : int; seconds : float; trace : bool; nisqd : string }

type outcome = {
  attempted : int;
  failed : int;
  e2e : (string * float) list;  (** untraced runs *)
  layers : (string * float) list;  (** traced runs *)
}

(* An untraced run sets up this many times; the median is [setup_s]. *)
let setup_reps = 7

(* The number of ops a run times: [rate] ops a second for [seconds], and
   at least enough for ten samples beyond the tail percentile [tail_q].
   The list is fixed by the command line, never by how fast the host
   happens to be, so every run of a seed times the same work. *)
let ops_for ~seconds ~rate ~tail_q =
  max (min_samples_for tail_q) (int_of_float (Float.round (seconds *. rate)))

(* Ops 0 .. [n - 1] in order, each inside an "op" span and
   timing itself, so its output checks stay outside its latency. When
   given, [resetup] repeats the workload's set-up (timing itself and
   leaving the ops' state alone) [setup_reps - 1] times, evenly spaced
   between the ops: the set-up median then samples the host over the
   whole run, as the op latencies do. Returns the ops' results and the
   repeat set-up times. *)
let run_ops ?resetup n op =
  let extra = match resetup with Some _ -> setup_reps - 1 | None -> 0 in
  let before = List.init extra (fun e -> (e + 1) * n / (extra + 1)) in
  let setups = ref [] and results = ref [] in
  for k = 0 to n - 1 do
    (match resetup with
     | Some f when List.mem k before -> setups := f () :: !setups
     | _ -> ());
    results := Span.with_ ~name:"op" ~op:k (fun () -> op k) :: !results
  done;
  (List.rev !results, List.rev !setups)

(* Ops per second over the ops' own latencies. *)
let throughput lat_ms =
  float_of_int (List.length lat_ms) /. (List.fold_left ( +. ) 0.0 lat_ms /. 1000.0)

(* The wall-clock op times of an in-process workload, printed beside the
   host-normalized ones it reports. *)
let wall_report ~label wall_ms =
  Printf.printf "# %s wall-clock: p50 %.4f ms, %.4f ops/s\n" label (median wall_ms)
    (throughput wall_ms);
  Host.report ()

let counter name = Nisq_obs.Metrics.value (Nisq_obs.Metrics.counter name)
let ratio a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b)
(* Minor words allocated so far, host bursts left out. *)
let minor_words () = Gc.minor_words () -. Host.words.(0)
