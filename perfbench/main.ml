(* The repository benchmark. One run measures one workload:

     main.exe --workload NAME --seed N --seconds S --trace 0|1 --nisqd PATH

   An untraced run prints the end-to-end metrics, a traced run the
   per-layer ones; both check every output and end with one JSON line.
   See README.md for the workloads and what each metric should move. *)

open Common

let workloads =
  [
    ("recompile-daily", Daily.run);
    ("simulate", Sim_wl.run);
    ("serve-mix", Serve_mix.run);
  ]

module Json = Nisq_obs.Json

(* Metric names and units, in order, from BENCHMARK.json: its
   [end_to_end] list for untraced runs, [per_layer] for traced ones. *)
let declared key =
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  let field name v =
    match Json.member name v with
    | Some (Json.String s) -> s
    | _ -> failwith ("BENCHMARK.json: metric without " ^ name)
  in
  match Result.map (Json.member key) (Json.of_string text) with
  | Ok (Some (Json.List ms)) -> List.map (fun v -> (field "name" v, field "unit" v)) ms
  | _ -> failwith ("BENCHMARK.json: no " ^ key ^ " list")

(* Per-layer metric prefix -> (layer, the end-to-end metric it should
   move), printed beside each traced value. *)
let moves =
  [
    ("device.calib_load_ms", ("device", "recompile-daily latency_p50_ms"));
    ("compiler.fallback", ("compiler", "recompile-daily latency_p50_ms"));
    ("compiler.", ("compiler", "recompile-daily latency_p50_ms, latency_tail_ms"));
    ("solver.nodes", ("solver", "recompile-daily latency_p50_ms"));
    ("device.cache_hit_ratio", ("device", "serve-mix latency_p50_ms; recompile-daily unchanged"));
    ("sim.prepare_ms", ("sim", "simulate setup_s"));
    ("sim.stabilizer", ("sim", "simulate ops_per_s"));
    ("sim.dense", ("sim", "simulate ops_per_s (38% of a sweep)"));
    ("sim.clifford_hit_ratio", ("sim", "simulate ops_per_s"));
    ("sim.success_geomean", ("sim", "none: exact output guard"));
    ("gc.minor_mwords_per_op", ("runtime", "latency_p50_ms, peak_rss_mb"));
    ("serve.roundtrip_ms", ("serve", "serve-mix latency_p50_ms, latency_tail_ms"));
    ("serve.handler_ms", ("serve", "serve-mix latency_p50_ms"));
    ("serve.wait_wire_ms", ("serve", "serve-mix latency_p50_ms"));
    ("serve.", ("serve", "serve-mix failed count"));
    ("reload.", ("serve", "serve-mix failed count"));
    ("circuit.qasm_parse_ms", ("circuit", "serve-mix latency_p50_ms"));
    ("obs.trace_overhead_ratio", ("obs", "none: traced over untraced ops_per_s"));
    ("host.ref_ms", ("host", "none: host probe"));
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 --nisqd PATH";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10.0 in
  let trace = ref false and nisqd = ref "" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
         | Some s when s > 0.0 -> seconds := s
         | _ -> usage ());
        parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; parse rest
    | "--nisqd" :: v :: rest -> nisqd := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let run =
    match List.assoc_opt !workload workloads with Some r -> r | None -> usage ()
  in
  let seed = match !seed with Some s -> s | None -> usage () in
  let declared = declared (if !trace then "per_layer" else "end_to_end") in
  Printf.printf "# workload=%s seed=%d seconds=%g trace=%b\n" !workload seed
    !seconds !trace;
  fingerprint ~pool_size:(Nisq_util.Pool.size (Nisq_util.Pool.default ()));
  let ref_start = ref_probe_ms () in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Exit through [at_exit], which stops any daemon the run started. *)
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 143));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exit 130));
  let ctx = { seed; seconds = !seconds; trace = !trace; nisqd = !nisqd } in
  let o = run ctx in
  let ref_end = ref_probe_ms () in
  Printf.printf "# host.ref_ms: start %.3f end %.3f\n" ref_start ref_end;
  if !trace then (
    let path = Printf.sprintf "%s/spans-%s-%d.jsonl" (run_dir ()) !workload seed in
    Span.write path;
    Printf.printf "# spans written to %s\n" path);
  (* Every end-to-end metric must be measured; a layer the workload does
     not exercise reports 0. *)
  let metrics =
    if not !trace then
      List.map
        (fun (name, unit_) ->
          match List.assoc_opt name o.e2e with
          | Some v -> (name, v, unit_)
          | None -> failwith ("workload did not measure " ^ name))
        declared
    else
      let layers = ("host.ref_ms", (ref_start +. ref_end) /. 2.0) :: o.layers in
      List.iter
        (fun (name, _) ->
          if not (List.mem_assoc name declared) then
            failwith ("per-layer metric missing from BENCHMARK.json: " ^ name))
        layers;
      List.map
        (fun (name, unit_) ->
          (name, Option.value ~default:0.0 (List.assoc_opt name layers), unit_))
        declared
  in
  List.iter
    (fun (name, value, unit_) ->
      let moved =
        if not !trace then ""
        else
          match List.find_opt (fun (p, _) -> String.starts_with ~prefix:p name) moves with
          | Some (_, (layer, e2e)) -> Printf.sprintf "  [%s] moves %s" layer e2e
          | None -> ""
      in
      Printf.printf "# %-28s %14.6g %-6s%s\n" name value unit_ moved)
    metrics;
  (* The issue's end-to-end metrics that BENCHMARK.json cannot carry
     (see README.md): printed here, not in the result line. *)
  if not !trace then (
    match List.assoc_opt "success_geomean" o.e2e with
    | Some v -> Printf.printf "# %-28s %14.6g ratio\n" "success_geomean" v
    | None ->
        Printf.printf "# %-28s %14s ratio  (this workload simulates nothing)\n"
          "success_geomean" "none");
  Printf.printf "# %-28s %14.6g ratio (%d failed of %d attempted)\n" "failed_ratio"
    (float_of_int o.failed /. float_of_int o.attempted)
    o.failed o.attempted;
  print_result ~correct:(o.failed = 0) ~attempted:o.attempted ~failed:o.failed
    metrics
