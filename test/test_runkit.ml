(* Crash-safe run layer: atomic IO, duration parsing, the journal's
   torn-tail/corruption contract, cooperative cancellation at pool
   chunk boundaries, and kill-then-resume producing bit-identical
   results at every pool size.

   Tests that flip the cancellation token reset it in a finalizer; an
   armed token leaking out of a test would cancel every later suite. *)

module Atomic_io = Nisq_runkit.Atomic_io
module Deadline = Nisq_runkit.Deadline
module Journal = Nisq_runkit.Journal
module Run = Nisq_runkit.Run
module Json = Nisq_obs.Json
module Faultkit = Nisq_faultkit.Faultkit
module Pool = Nisq_util.Pool
module Config = Nisq_compiler.Config
module Compile = Nisq_compiler.Compile
module Runner = Nisq_sim.Runner
module Ibmq16 = Nisq_device.Ibmq16
module Benchmarks = Nisq_bench.Benchmarks
module Experiments = Nisq_bench.Experiments

let with_faults spec f =
  (match Faultkit.configure spec with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "bad fault spec %S: %s" spec msg);
  Fun.protect ~finally:Faultkit.clear f

let with_clean_token f = Fun.protect ~finally:Deadline.reset f

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "nisq_runkit_%d_%d" (Unix.getpid ()) !tmp_counter)
  in
  Atomic_io.mkdir_p d;
  d

(* ---------------------------- Atomic_io ---------------------------- *)

let test_mkdir_p () =
  let root = fresh_dir () in
  let deep = Filename.concat root "a/b/c" in
  Atomic_io.mkdir_p deep;
  Alcotest.(check bool) "created" true (Sys.is_directory deep);
  (* idempotent, including on pre-existing directories *)
  Atomic_io.mkdir_p deep;
  Atomic_io.mkdir_p root;
  Alcotest.(check bool) "still there" true (Sys.is_directory deep)

let test_atomic_write_roundtrip () =
  let path = Filename.concat (fresh_dir ()) "out.txt" in
  Json.write_atomic ~path "first\n";
  Alcotest.(check string) "content" "first\n" (Atomic_io.read_file path);
  (* overwrite is atomic: no .tmp residue, new content wins *)
  Json.write_atomic ~path "second\n";
  Alcotest.(check string) "overwritten" "second\n" (Atomic_io.read_file path);
  let dir = Filename.dirname path in
  Array.iter
    (fun f ->
      if contains ~sub:".tmp." f then
        Alcotest.failf "leftover temp file %s" f)
    (Sys.readdir dir)

let test_write_json () =
  let path = Filename.concat (fresh_dir ()) "v.json" in
  Json.to_file ~path (Json.Obj [ ("x", Json.Int 3) ]);
  Alcotest.(check string) "doc" "{\"x\":3}\n" (Atomic_io.read_file path)

(* ------------------------- duration parsing ------------------------ *)

let test_parse_duration_ok () =
  List.iter
    (fun (src, want) ->
      match Deadline.parse_duration src with
      | Ok got -> Alcotest.(check (float 1e-9)) src want got
      | Error msg -> Alcotest.failf "%S rejected: %s" src msg)
    [
      ("30s", 30.0); ("42", 42.0); (" 2s ", 2.0); ("5m", 300.0);
      ("1h30m", 5400.0); ("250ms", 0.25); ("1.5h", 5400.0);
      ("2min", 120.0); ("1H", 3600.0);
      (* fractional, with and without a unit *)
      ("0.5s", 0.5); ("0.5", 0.5); (".5s", 0.5); ("1.25h", 4500.0);
      ("500ms", 0.5); ("0.5ms", 0.0005);
    ]

let test_parse_duration_rejects () =
  List.iter
    (fun src ->
      match Deadline.parse_duration src with
      | Ok v -> Alcotest.failf "%S accepted as %g" src v
      | Error _ -> ())
    [
      ""; "abc"; "-5s"; "0"; "3x"; "10 20"; "s";
      (* zero in every spelling: a deadline must be positive *)
      "0s"; "0.0"; "0ms"; "0h0m0s";
      (* negatives with units and fractions *)
      "-0.5h"; "-250ms";
      (* a finite-looking literal that overflows float to infinity;
         arming it would feed Int64.of_float an undefined conversion *)
      String.make 400 '9' ^ "h";
    ]

(* ----------------------------- journal ----------------------------- *)

let obj_a = Json.Obj [ ("a", Json.Int 1) ]
let obj_b = Json.Obj [ ("b", Json.String "x") ]

let write_journal path records =
  let w = Journal.create ~path in
  List.iter (Journal.append w) records;
  Journal.close w

let append_raw path s =
  let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
  output_string oc s;
  close_out oc

let test_journal_roundtrip () =
  let path = Filename.concat (fresh_dir ()) "j.jsonl" in
  write_journal path [ obj_a; obj_b ];
  match Journal.load ~path with
  | Error msg -> Alcotest.fail msg
  | Ok { Journal.records; torn; _ } ->
      Alcotest.(check bool) "not torn" false torn;
      Alcotest.(check (list string)) "records"
        [ Json.to_string obj_a; Json.to_string obj_b ]
        (List.map Json.to_string records)

let test_journal_torn_tail_dropped () =
  let path = Filename.concat (fresh_dir ()) "j.jsonl" in
  write_journal path [ obj_a; obj_b ];
  let intact = (Unix.stat path).Unix.st_size in
  append_raw path "{\"c\":";  (* the record in flight when we died *)
  (match Journal.load ~path with
  | Error msg -> Alcotest.fail msg
  | Ok { Journal.records; torn; valid_bytes } ->
      Alcotest.(check bool) "torn" true torn;
      Alcotest.(check int) "two survive" 2 (List.length records);
      Alcotest.(check int) "prefix length" intact valid_bytes;
      (* resume: truncate the tail, append on a clean boundary *)
      Journal.truncate_to ~path valid_bytes);
  let w = Journal.append_to ~path in
  Journal.append w obj_a;
  Journal.close w;
  match Journal.load ~path with
  | Error msg -> Alcotest.fail msg
  | Ok { Journal.records; torn; _ } ->
      Alcotest.(check bool) "clean after repair" false torn;
      Alcotest.(check int) "three records" 3 (List.length records)

(* truncate_to at exactly a record boundary: the full-file length is a
   no-op, an interior boundary keeps precisely the records before it,
   and appends ride the repaired boundary without a stray separator. *)
let test_journal_truncate_at_boundary () =
  let path = Filename.concat (fresh_dir ()) "j.jsonl" in
  write_journal path [ obj_a; obj_b ];
  let size = (Unix.stat path).Unix.st_size in
  Journal.truncate_to ~path size;
  (match Journal.load ~path with
  | Error msg -> Alcotest.fail msg
  | Ok { Journal.records; torn; valid_bytes } ->
      Alcotest.(check bool) "full length: still clean" false torn;
      Alcotest.(check int) "full length: nothing lost" 2 (List.length records);
      Alcotest.(check int) "full length: valid_bytes" size valid_bytes);
  let first = String.length (Json.to_string obj_a) + 1 in
  Journal.truncate_to ~path first;
  (match Journal.load ~path with
  | Error msg -> Alcotest.fail msg
  | Ok { Journal.records; torn; valid_bytes } ->
      Alcotest.(check bool) "boundary: clean" false torn;
      Alcotest.(check (list string)) "boundary: first record survives intact"
        [ Json.to_string obj_a ]
        (List.map Json.to_string records);
      Alcotest.(check int) "boundary: valid_bytes" first valid_bytes);
  let w = Journal.append_to ~path in
  Journal.append w obj_b;
  Journal.close w;
  match Journal.load ~path with
  | Error msg -> Alcotest.fail msg
  | Ok { Journal.records; torn; _ } ->
      Alcotest.(check bool) "append after repair: clean" false torn;
      Alcotest.(check (list string)) "append after repair: records"
        [ Json.to_string obj_a; Json.to_string obj_b ]
        (List.map Json.to_string records)

let test_journal_corrupt_middle_is_fatal () =
  let path = Filename.concat (fresh_dir ()) "j.jsonl" in
  write_journal path [ obj_a ];
  append_raw path "garbage{\n";
  append_raw path (Json.to_string obj_b ^ "\n");
  match Journal.load ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "interior corruption must not load"

let test_journal_blank_lines_tolerated () =
  let path = Filename.concat (fresh_dir ()) "j.jsonl" in
  write_journal path [ obj_a ];
  append_raw path "\n";
  append_raw path (Json.to_string obj_b ^ "\n");
  match Journal.load ~path with
  | Error msg -> Alcotest.fail msg
  | Ok { Journal.records; torn; _ } ->
      Alcotest.(check bool) "not torn" false torn;
      Alcotest.(check int) "both records" 2 (List.length records)

(* ------------------------------- run ------------------------------- *)

let identity = Json.Obj [ ("suite", Json.String "test_runkit") ]

let test_run_cells_replay_on_resume () =
  let root = fresh_dir () in
  let computes = ref 0 in
  let cell run key v =
    Run.float_cell run ~key (fun () -> incr computes; v)
  in
  let r1 = Run.start ~root ~run_id:"w" ~identity () in
  Alcotest.(check (float 0.0)) "fresh" 0.5 (cell r1 "k1" 0.5);
  (* 1.0 renders as "1" and reparses as Int: the reader must cope *)
  Alcotest.(check (float 0.0)) "integral" 1.0 (cell r1 "k2" 1.0);
  Run.finish r1 ~status:"completed";
  Alcotest.(check int) "two computes" 2 !computes;
  match Run.resume ~root ~run_id:"w" ~identity ~force:false () with
  | Error msg -> Alcotest.fail msg
  | Ok r2 ->
      Alcotest.(check (float 0.0)) "replayed" 0.5 (cell r2 "k1" 99.0);
      Alcotest.(check (float 0.0)) "replayed int-valued" 1.0 (cell r2 "k2" 99.0);
      Alcotest.(check (float 0.0)) "fresh cell computes" 7.5 (cell r2 "k3" 7.5);
      Alcotest.(check int) "one more compute" 3 !computes;
      let cached, computed = Run.cache_stats r2 in
      Alcotest.(check (pair int int)) "stats" (2, 1) (cached, computed);
      Run.finish r2 ~status:"completed"

let test_run_identity_mismatch_refused () =
  let root = fresh_dir () in
  let r = Run.start ~root ~run_id:"m" ~identity () in
  Run.finish r ~status:"completed";
  let other = Json.Obj [ ("suite", Json.String "something-else") ] in
  (match Run.resume ~root ~run_id:"m" ~identity:other ~force:false () with
  | Error msg ->
      Alcotest.(check bool) "mentions force" true
        (contains ~sub:"--resume-force" msg)
  | Ok _ -> Alcotest.fail "identity mismatch accepted");
  match Run.resume ~root ~run_id:"m" ~identity:other ~force:true () with
  | Error msg -> Alcotest.failf "forced resume refused: %s" msg
  | Ok r -> Run.finish r ~status:"completed"

let test_run_resume_missing_refused () =
  match Run.resume ~root:(fresh_dir ()) ~run_id:"nope" ~identity ~force:false () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "resumed a run that never existed"

let test_run_figure_replay () =
  let root = fresh_dir () in
  let r1 = Run.start ~root ~run_id:"f" ~identity () in
  Alcotest.(check bool) "not cached yet" true (Run.figure_cached r1 "fig" = None);
  Run.figure_done r1 "fig" "the table\n";
  Run.finish r1 ~status:"completed";
  match Run.resume ~root ~run_id:"f" ~identity ~force:false () with
  | Error msg -> Alcotest.fail msg
  | Ok r2 ->
      (match Run.figure_cached r2 "fig" with
      | Some text -> Alcotest.(check string) "replayed text" "the table\n" text
      | None -> Alcotest.fail "completed figure not cached");
      Run.finish r2 ~status:"completed"

(* -------------------------- cancellation --------------------------- *)

let test_deadline_blow_cancels () =
  with_clean_token @@ fun () ->
  with_faults "deadline:blow" (fun () ->
      Alcotest.(check bool) "cancelled" true (Deadline.is_cancelled ());
      match Deadline.chunk_checkpoint 0 with
      | () -> Alcotest.fail "checkpoint passed a blown deadline"
      | exception Deadline.Cancelled Deadline.Deadline -> ()
      | exception Deadline.Cancelled _ -> Alcotest.fail "wrong reason")

let test_armed_deadline_expires () =
  with_clean_token @@ fun () ->
  Deadline.arm_seconds 0.001;
  Unix.sleepf 0.01;
  Alcotest.(check bool) "expired" true (Deadline.is_cancelled ());
  match Deadline.cancelled () with
  | Some Deadline.Deadline -> ()
  | _ -> Alcotest.fail "expected a deadline cancellation"

let test_scoped_deadline_expires_locally () =
  with_clean_token @@ fun () ->
  (match
     Deadline.with_scoped ~seconds:0.005 (fun () ->
         let stop = Unix.gettimeofday () +. 2.0 in
         while Unix.gettimeofday () < stop do
           Unix.sleepf 0.001;
           Deadline.raise_if_cancelled ()
         done;
         "finished")
   with
  | Error Deadline.Deadline -> ()
  | Error _ -> Alcotest.fail "wrong scoped reason"
  | Ok _ -> Alcotest.fail "scoped deadline never fired");
  (* the process-wide token must be untouched: sibling workers live on *)
  Alcotest.(check bool) "global token untouched" false
    (Deadline.is_cancelled ())

let test_scoped_deadline_ok_passthrough () =
  with_clean_token @@ fun () ->
  match Deadline.with_scoped ~seconds:60.0 (fun () -> 42) with
  | Ok n -> Alcotest.(check int) "value through" 42 n
  | Error _ -> Alcotest.fail "an idle scope expired"

let test_scoped_deadline_nested_tightens () =
  with_clean_token @@ fun () ->
  match
    Deadline.with_scoped ~seconds:0.005 (fun () ->
        (* the inner scope asks for more time than the outer has left;
           the outer bound must win *)
        Deadline.with_scoped ~seconds:60.0 (fun () ->
            let stop = Unix.gettimeofday () +. 2.0 in
            while Unix.gettimeofday () < stop do
              Unix.sleepf 0.001;
              Deadline.raise_if_cancelled ()
            done))
  with
  | Error Deadline.Deadline -> ()
  | Error _ -> Alcotest.fail "wrong reason"
  | Ok (Error Deadline.Deadline) -> ()
  | Ok (Error _) -> Alcotest.fail "wrong inner reason"
  | Ok (Ok ()) -> Alcotest.fail "nested scope outlived its parent"

let test_scoped_deadline_global_cancel_wins () =
  with_clean_token @@ fun () ->
  match
    Deadline.with_scoped ~seconds:60.0 (fun () ->
        Deadline.cancel Deadline.Sigterm;
        Deadline.raise_if_cancelled ();
        "unreachable")
  with
  | exception Deadline.Cancelled Deadline.Sigterm ->
      (* the process-wide reason re-raises through the scope untouched *)
      ()
  | Ok _ | Error _ -> Alcotest.fail "global cancellation was swallowed"

let test_exit_codes () =
  Alcotest.(check int) "deadline" 3 (Deadline.exit_code Deadline.Deadline);
  Alcotest.(check int) "sigint" 130 (Deadline.exit_code Deadline.Sigint);
  Alcotest.(check int) "sigterm" 143 (Deadline.exit_code Deadline.Sigterm);
  Alcotest.(check string) "name" "deadline"
    (Deadline.reason_name Deadline.Deadline)

let test_kill_chunk_is_one_shot () =
  with_clean_token @@ fun () ->
  with_faults "kill:chunk1" (fun () ->
      Alcotest.(check bool) "wrong chunk" false (Faultkit.kill_chunk 0);
      Alcotest.(check bool) "fires" true (Faultkit.kill_chunk 1);
      Alcotest.(check bool) "one-shot" false (Faultkit.kill_chunk 1))

let calib = Ibmq16.calibration ~day:0 ()

let compiled_bv4 =
  lazy
    (Compile.run
       ~config:(Config.make (Config.R_smt_star 0.5))
       ~calib (Benchmarks.by_name "BV4").Benchmarks.circuit)

let with_pool size f =
  let pool = Pool.create ~size () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* kill:chunk<N> behaves like a SIGTERM arriving at chunk N's
   checkpoint: the estimate is abandoned with [Cancelled Sigterm], at
   every pool size (0 = sequential, 1 = degenerate pool, 4 = parallel
   workers). *)
let test_kill_chunk_cancels size () =
  let runner = Experiments.runner_of (Lazy.force compiled_bv4) in
  with_clean_token @@ fun () ->
  with_pool size @@ fun pool ->
  with_faults "kill:chunk3" (fun () ->
      match Runner.success_rate ~trials:2048 ~pool ~seed:5 runner with
      | (_ : float) -> Alcotest.fail "kill:chunk3 did not cancel"
      | exception Deadline.Cancelled Deadline.Sigterm -> ()
      | exception Deadline.Cancelled _ -> Alcotest.fail "wrong reason")

(* The tentpole contract: kill mid-sweep, resume from the journal, and
   the final numbers are bit-identical to a never-interrupted run with
   the same seed — for every pool size. *)
let test_kill_resume_bit_identical size () =
  let r = Lazy.force compiled_bv4 in
  let trials = 2048 and seed = 99 in
  let root = fresh_dir () in
  with_clean_token @@ fun () ->
  with_pool size @@ fun pool ->
  let clean =
    Runner.success_rate ~trials ~pool ~seed (Experiments.runner_of r)
  in
  let small_clean =
    Runner.success_rate ~trials:512 ~pool ~seed (Experiments.runner_of r)
  in
  (* run 1: the 512-trial cell completes and is journalled; the
     2048-trial cell is killed at chunk 3 *)
  let run1 = Run.start ~root ~run_id:"kr" ~identity () in
  Run.install run1;
  Fun.protect ~finally:Run.uninstall (fun () ->
      let first =
        Experiments.checkpointed_success_rate ~trials:512 ~seed ~pool r
      in
      Alcotest.(check (float 0.0)) "journalled cell" small_clean first;
      with_faults "kill:chunk3" (fun () ->
          match Experiments.checkpointed_success_rate ~trials ~seed ~pool r with
          | (_ : float) -> Alcotest.fail "kill:chunk3 did not cancel"
          | exception Deadline.Cancelled _ -> ());
      Run.finish run1 ~status:"interrupted:sigterm");
  Deadline.reset ();
  (* run 2: resume — the 512 cell replays, only the 2048 cell computes *)
  match Run.resume ~root ~run_id:"kr" ~identity ~force:false () with
  | Error msg -> Alcotest.fail msg
  | Ok run2 ->
      Run.install run2;
      Fun.protect ~finally:Run.uninstall (fun () ->
          let replayed =
            Experiments.checkpointed_success_rate ~trials:512 ~seed ~pool r
          in
          let resumed =
            Experiments.checkpointed_success_rate ~trials ~seed ~pool r
          in
          Alcotest.(check (float 0.0)) "replayed bit-identical" small_clean
            replayed;
          Alcotest.(check (float 0.0)) "resumed bit-identical" clean resumed;
          let cached, computed = Run.cache_stats run2 in
          Alcotest.(check int) "one cell replayed" 1 cached;
          Alcotest.(check int) "one cell computed" 1 computed;
          Run.finish run2 ~status:"completed")

let test_sim_digest_sensitivity () =
  let r = Lazy.force compiled_bv4 in
  let d = Experiments.sim_digest r ~trials:1024 ~seed:1 in
  Alcotest.(check string) "deterministic" d
    (Experiments.sim_digest r ~trials:1024 ~seed:1);
  Alcotest.(check bool) "trials change the key" true
    (d <> Experiments.sim_digest r ~trials:2048 ~seed:1);
  Alcotest.(check bool) "seed changes the key" true
    (d <> Experiments.sim_digest r ~trials:1024 ~seed:2)

let suite =
  let qt name f = Alcotest.test_case name `Quick f in
  [
    qt "mkdir_p creates parents, tolerates existing" test_mkdir_p;
    qt "atomic write: roundtrip, overwrite, no temp residue"
      test_atomic_write_roundtrip;
    qt "write_json renders one document" test_write_json;
    qt "parse_duration accepts human durations" test_parse_duration_ok;
    qt "parse_duration rejects garbage" test_parse_duration_rejects;
    qt "journal roundtrips records" test_journal_roundtrip;
    qt "journal drops a torn tail, truncate repairs" test_journal_torn_tail_dropped;
    qt "journal truncate_to at exact record boundaries"
      test_journal_truncate_at_boundary;
    qt "journal refuses interior corruption" test_journal_corrupt_middle_is_fatal;
    qt "journal tolerates blank lines" test_journal_blank_lines_tolerated;
    qt "run cells replay on resume (incl. integral floats)"
      test_run_cells_replay_on_resume;
    qt "run identity mismatch refused unless forced"
      test_run_identity_mismatch_refused;
    qt "resume of a missing run is an error" test_run_resume_missing_refused;
    qt "completed figures replay their tables" test_run_figure_replay;
    qt "deadline:blow cancels at the first checkpoint" test_deadline_blow_cancels;
    qt "an armed deadline expires" test_armed_deadline_expires;
    qt "scoped deadline expires without flipping the token"
      test_scoped_deadline_expires_locally;
    qt "scoped deadline passes values through" test_scoped_deadline_ok_passthrough;
    qt "nested scopes tighten" test_scoped_deadline_nested_tightens;
    qt "global cancel re-raises through a scope"
      test_scoped_deadline_global_cancel_wins;
    qt "exit codes follow convention" test_exit_codes;
    qt "kill:chunk is one-shot" test_kill_chunk_is_one_shot;
    qt "kill:chunk cancels (pool 0)" (test_kill_chunk_cancels 0);
    qt "kill:chunk cancels (pool 1)" (test_kill_chunk_cancels 1);
    qt "kill:chunk cancels (pool 4)" (test_kill_chunk_cancels 4);
    qt "kill+resume bit-identical (pool 0)" (test_kill_resume_bit_identical 0);
    qt "kill+resume bit-identical (pool 1)" (test_kill_resume_bit_identical 1);
    qt "kill+resume bit-identical (pool 4)" (test_kill_resume_bit_identical 4);
    qt "sim_digest pins trials and seed" test_sim_digest_sensitivity;
  ]
