module Json = Nisq_obs.Json

type t = {
  id : string;
  dir : string;
  mutable journal : Journal.writer option;
  cells : (string, float) Hashtbl.t;
  figures : (string, unit) Hashtbl.t;
  mutable cached : int;
  mutable computed : int;
  (* Guards the tables, counters and journal appends: with the bench
     harness's figure-cell fan-out, cells complete on pool workers
     concurrently. Cell [compute] closures run OUTSIDE the lock — two
     racing computes of the same digest are benign (equal digests imply
     equal values) and cost at most one duplicate journal record. *)
  lock : Mutex.t;
}

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect f ~finally:(fun () -> Mutex.unlock t.lock)

let id t = t.id
let dir t = t.dir
let cache_stats t = with_lock t (fun () -> (t.cached, t.computed))

let journal_path dir = Filename.concat dir "journal.jsonl"
let tables_dir dir = Filename.concat dir "tables"
let table_path t name = Filename.concat (tables_dir t.dir) (name ^ ".txt")

let header_record ~run_id ~identity =
  Json.Obj
    [ ("kind", Json.String "header");
      ("run_id", Json.String run_id);
      ("identity", identity) ]

let append t record =
  match t.journal with
  | None -> invalid_arg "Run: journal already closed"
  | Some w -> Journal.append w record

let start ?(root = "_runs") ~run_id ~identity () =
  let dir = Filename.concat root run_id in
  Atomic_io.mkdir_p (tables_dir dir);
  let journal = Journal.create ~path:(journal_path dir) in
  let t =
    { id = run_id; dir; journal = Some journal;
      cells = Hashtbl.create 64; figures = Hashtbl.create 16;
      cached = 0; computed = 0; lock = Mutex.create () }
  in
  append t (header_record ~run_id ~identity);
  t

(* Rebuild the cell and figure caches from the journal's records.
   Unknown kinds are skipped so an older binary can resume a newer
   journal's runs as far as it understands them. *)
let replay t records =
  List.iter
    (fun r ->
      match Json.member "kind" r with
      | Some (Json.String "cell") -> (
          match (Json.member "key" r, Json.member "value" r) with
          | Some (Json.String key), Some (Json.Float v) ->
              Hashtbl.replace t.cells key v
          | Some (Json.String key), Some (Json.Int v) ->
              (* integral floats render without a '.', so they parse
                 back as Int *)
              Hashtbl.replace t.cells key (float_of_int v)
          | _ -> ())
      | Some (Json.String "figure") -> (
          match Json.member "name" r with
          | Some (Json.String name) -> Hashtbl.replace t.figures name ()
          | _ -> ())
      | _ -> ())
    records

let resume ?(root = "_runs") ~run_id ~identity ~force () =
  let dir = Filename.concat root run_id in
  let path = journal_path dir in
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "no journal at %s: nothing to resume" path)
  else
    match Journal.load ~path with
    | Error msg -> Error msg
    | Ok { records = []; _ } ->
        Error (Printf.sprintf "%s: empty journal (missing header)" path)
    | Ok { records = header :: rest; torn; valid_bytes } -> (
        let check =
          match Json.member "kind" header with
          | Some (Json.String "header") -> (
              match Json.member "identity" header with
              | Some found ->
                  let want = Json.to_string identity in
                  let got = Json.to_string found in
                  if want = got || force then Ok ()
                  else
                    Error
                      (Printf.sprintf
                         "%s: run identity mismatch — the journal was \
                          written under a different seed/config/calibration.\n\
                          \  journal: %s\n\
                          \  current: %s\n\
                          Resuming would mix incompatible results; rerun \
                          fresh or pass --resume-force to override." path got
                         want)
              | None -> Error (Printf.sprintf "%s: header has no identity" path))
          | _ -> Error (Printf.sprintf "%s: first record is not a header" path)
        in
        match check with
        | Error _ as e -> e
        | Ok () ->
            if torn then Journal.truncate_to ~path valid_bytes;
            let t =
              { id = run_id; dir; journal = None;
                cells = Hashtbl.create 64; figures = Hashtbl.create 16;
                cached = 0; computed = 0; lock = Mutex.create () }
            in
            replay t rest;
            Atomic_io.mkdir_p (tables_dir dir);
            t.journal <- Some (Journal.append_to ~path);
            Ok t)

let float_cell t ~key compute =
  let cached =
    with_lock t (fun () ->
        match Hashtbl.find_opt t.cells key with
        | Some v ->
            t.cached <- t.cached + 1;
            Some v
        | None -> None)
  in
  match cached with
  | Some v -> v
  | None ->
      (* Computed outside the lock so concurrent cells overlap; see the
         note on [lock] for why a racing duplicate is benign. *)
      let v = compute () in
      with_lock t (fun () ->
          append t
            (Json.Obj
               [ ("kind", Json.String "cell");
                 ("key", Json.String key);
                 ("value", Json.Float v) ]);
          Hashtbl.replace t.cells key v;
          t.computed <- t.computed + 1);
      v

let figure_cached t name =
  if not (with_lock t (fun () -> Hashtbl.mem t.figures name)) then None
  else
    match Atomic_io.read_file (table_path t name) with
    | text -> Some text
    | exception Sys_error _ -> None

let figure_done t name text =
  (* table file first, journal record second: the record implies the
     rendered table exists *)
  Json.write_atomic ~path:(table_path t name) text;
  with_lock t (fun () ->
      append t
        (Json.Obj
           [ ("kind", Json.String "figure"); ("name", Json.String name) ]);
      Hashtbl.replace t.figures name ())

let write_status t ~status =
  let cached, computed = cache_stats t in
  Json.to_file
    ~path:(Filename.concat t.dir "status.json")
    (Json.Obj
       [ ("run_id", Json.String t.id);
         ("status", Json.String status);
         ("cells_cached", Json.Int cached);
         ("cells_computed", Json.Int computed) ])

let finish t ~status =
  write_status t ~status;
  let w = with_lock t (fun () -> let w = t.journal in t.journal <- None; w) in
  match w with
  | None -> ()
  | Some w -> Journal.close w

(* ------------------------- ambient run ----------------------------- *)

let current_run : t option ref = ref None
let install t = current_run := Some t
let uninstall () = current_run := None
let current () = !current_run
