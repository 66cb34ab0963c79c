(* Tests for the figure-cell fan-out (Nisq_bench.Experiments.map_cells):
   the determinism contract — identical figure data, and identical
   journal cell sets, at any pool size — plus the NISQ_CELL_FANOUT
   opt-out, the no-nested-fan-out guard and one [simulate] span per
   cell on either Monte-Carlo path. *)

module E = Nisq_bench.Experiments
module Compile = Nisq_compiler.Compile
module Pool = Nisq_util.Pool
module Run = Nisq_runkit.Run
module Json = Nisq_obs.Json
module Trace = Nisq_obs.Trace
module Config = Nisq_compiler.Config

let with_pool size f =
  let pool = Pool.create ~size () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* The comparable slice of fig5 data: success rates and swap counts,
   the numbers every rendered table derives from. *)
let fingerprint data =
  List.map
    (fun (bench, evals) ->
      ( bench,
        List.map
          (fun (cname, (e : E.eval)) ->
            (cname, e.E.success, e.E.result.Compile.swap_count))
          evals ))
    data

let test_map_cells_preserves_order () =
  with_pool 4 (fun pool ->
      Alcotest.(check (list int))
        "input order"
        (List.init 17 (fun i -> i * i))
        (E.map_cells ~pool (List.init 17 (fun i () -> i * i))))

let test_map_cells_no_nested_fanout () =
  (* an (illegal) nested call inside a cell must degrade to the plain
     sequential map instead of re-entering the pool *)
  with_pool 4 (fun pool ->
      let nested =
        E.map_cells ~pool
          (List.init 3 (fun i () ->
               E.map_cells ~pool (List.init 4 (fun j () -> (i, j)))))
      in
      Alcotest.(check int) "outer size" 3 (List.length nested);
      List.iteri
        (fun i row ->
          Alcotest.(check bool)
            "inner rows intact" true
            (row = List.init 4 (fun j -> (i, j))))
        nested)

let test_fig5_identical_across_pool_sizes () =
  let run size =
    with_pool size (fun pool -> fingerprint (E.fig5_data ~trials:128 ~pool ()))
  in
  let seq = run 0 in
  Alcotest.(check bool) "pool size 1 matches sequential" true (seq = run 1);
  Alcotest.(check bool) "pool size 4 matches sequential" true (seq = run 4)

let test_fanout_env_disable () =
  let base =
    with_pool 4 (fun pool -> fingerprint (E.fig5_data ~trials:64 ~pool ()))
  in
  Unix.putenv "NISQ_CELL_FANOUT" "0";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "NISQ_CELL_FANOUT" "")
    (fun () ->
      Alcotest.(check bool) "knob read" false (E.cell_fanout_enabled ());
      let disabled =
        with_pool 4 (fun pool -> fingerprint (E.fig5_data ~trials:64 ~pool ()))
      in
      Alcotest.(check bool) "disabled fan-out identical" true (base = disabled))

(* Inside a fanned-out cell the estimate takes the sequential path, the
   pooled path otherwise: both must record exactly one [simulate] span,
   so a figure's span summary counts every estimate. *)
let test_one_simulate_span_per_cell () =
  let calib = Nisq_device.Ibmq16.calibration ~day:0 () in
  let bv4 = (Nisq_bench.Benchmarks.by_name "BV4").Nisq_bench.Benchmarks.circuit in
  let result =
    Compile.run ~config:(Config.make (Config.R_smt_star 0.5)) ~calib bv4
  in
  let n = 6 in
  List.iter
    (fun size ->
      with_pool size (fun pool ->
          Trace.reset ();
          Trace.set_enabled true;
          Fun.protect
            ~finally:(fun () ->
              Trace.set_enabled false;
              Trace.reset ())
            (fun () ->
              ignore
                (E.map_cells ~pool
                   (List.init n (fun seed () ->
                        E.checkpointed_success_rate ~trials:300 ~seed ~pool
                          result)));
              let simulate =
                List.filter
                  (fun (s : Trace.span) -> s.name = "simulate")
                  (Trace.spans ())
              in
              Alcotest.(check int)
                (Printf.sprintf "simulate spans at pool size %d" size)
                n (List.length simulate))))
    [ 0; 4 ]

(* ------------------------- journal equality ------------------------ *)

let tmp_counter = ref 0

let fresh_root () =
  incr tmp_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "nisq_cells_%d_%d" (Unix.getpid ()) !tmp_counter)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The journal's cell records as a sorted, deduplicated line set: under
   fan-out, completion ORDER varies with the pool size (and two cells
   sharing one sim digest may both journal the — identical — record),
   but the SET of (key, value) cells is an invariant. *)
let journal_cells ~root ~run_id =
  read_file (Filename.concat (Filename.concat root run_id) "journal.jsonl")
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         if String.trim line = "" then None
         else
           match Json.of_string line with
           | Ok r when Json.member "kind" r = Some (Json.String "cell") ->
               Some (Json.to_string r)
           | _ -> None)
  |> List.sort_uniq compare

let journalled_run ~size ~root ~run_id =
  let identity = Json.Obj [ ("test", Json.String "cells") ] in
  let r = Run.start ~root ~run_id ~identity () in
  Run.install r;
  Fun.protect
    ~finally:(fun () ->
      Run.uninstall ();
      Run.finish r ~status:"completed")
    (fun () ->
      with_pool size (fun pool -> fingerprint (E.fig5_data ~trials:64 ~pool ())))

let test_journals_identical_across_pool_sizes () =
  let root = fresh_root () in
  let seq = journalled_run ~size:0 ~root ~run_id:"seq" in
  let par = journalled_run ~size:4 ~root ~run_id:"par" in
  Alcotest.(check bool) "figure data identical" true (seq = par);
  let cells_seq = journal_cells ~root ~run_id:"seq" in
  let cells_par = journal_cells ~root ~run_id:"par" in
  Alcotest.(check bool) "journals non-empty" true (cells_seq <> []);
  Alcotest.(check bool) "cell sets identical" true (cells_seq = cells_par)

let test_resume_replays_fanned_out_journal () =
  (* a journal written under fan-out must replay on resume: the second
     run computes nothing *)
  let root = fresh_root () in
  let first = journalled_run ~size:4 ~root ~run_id:"rr" in
  let identity = Json.Obj [ ("test", Json.String "cells") ] in
  match Run.resume ~root ~run_id:"rr" ~identity ~force:false () with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
      Run.install r;
      Fun.protect
        ~finally:(fun () ->
          Run.uninstall ();
          Run.finish r ~status:"completed")
        (fun () ->
          let again =
            with_pool 4 (fun pool ->
                fingerprint (E.fig5_data ~trials:64 ~pool ()))
          in
          Alcotest.(check bool) "resumed data identical" true (first = again);
          let cached, computed = Run.cache_stats r in
          Alcotest.(check int) "nothing recomputed" 0 computed;
          Alcotest.(check bool) "cells replayed" true (cached > 0))

let suite =
  [
    ("map_cells preserves order", `Quick, test_map_cells_preserves_order);
    ("no nested fan-out", `Quick, test_map_cells_no_nested_fanout);
    ("fig5 identical across pool sizes", `Slow, test_fig5_identical_across_pool_sizes);
    ("NISQ_CELL_FANOUT=0 identical", `Quick, test_fanout_env_disable);
    ("one simulate span per cell", `Quick, test_one_simulate_span_per_cell);
    ("journal cell sets identical", `Quick, test_journals_identical_across_pool_sizes);
    ("resume replays fanned-out journal", `Quick, test_resume_replays_fanned_out_journal);
  ]
