let trace_dest : string option ref = ref None

let events_dest : string option ref = ref None

let prom_dest : string option ref = ref None

let want_metrics = ref false

let configure ?trace ?metrics ?events ?prom () =
  (match trace with
  | Some path ->
      trace_dest := Some path;
      Trace.set_enabled true
  | None -> ());
  (match metrics with
  | Some b ->
      want_metrics := b;
      Metrics.set_enabled b
  | None -> ());
  (match events with
  | Some path ->
      events_dest := Some path;
      Events.set_enabled true
  | None -> ());
  match prom with
  | Some path ->
      prom_dest := Some path;
      (* a scrape file without data is useless — arm the registry, but
         leave [want_metrics] alone so no table prints uninvited *)
      Metrics.set_enabled true
  | None -> ()

let truthy s =
  match String.lowercase_ascii (String.trim s) with
  | "1" | "true" | "yes" | "on" -> true
  | _ -> false

let env_path name =
  match Sys.getenv_opt name with
  | Some path when String.trim path <> "" -> Some path
  | _ -> None

let init_from_env () =
  (match env_path "NISQ_TRACE" with
  | Some path -> configure ~trace:path ()
  | None -> ());
  (match Sys.getenv_opt "NISQ_METRICS" with
  | Some v when truthy v -> configure ~metrics:true ()
  | _ -> ());
  (match env_path "NISQ_EVENTS" with
  | Some path -> configure ~events:path ()
  | None -> ());
  match env_path "NISQ_PROM" with
  | Some path -> configure ~prom:path ()
  | None -> ()

let events_path () = !events_dest

let prom_path () = !prom_dest

let finish ?(out = stderr) () =
  (match !trace_dest with
  | Some path ->
      Json.to_file ~path (Trace.export_json ());
      Printf.fprintf out "trace written to %s (%d recorded, %d dropped)\n"
        path (Trace.total ()) (Trace.dropped ());
      output_string out (Trace.render_tree ())
  | None -> ());
  (match !events_dest with
  | Some path ->
      Json.write_atomic ~path (Events.export_jsonl ());
      Printf.fprintf out "events written to %s (%d recorded, %d dropped)\n"
        path (Events.total ()) (Events.dropped ())
  | None -> ());
  if !want_metrics then output_string out (Metrics.render ());
  (match !prom_dest with
  | Some path ->
      Json.write_atomic ~path (Metrics.to_prometheus ());
      Printf.fprintf out "prometheus metrics written to %s\n" path
  | None -> ());
  flush out
