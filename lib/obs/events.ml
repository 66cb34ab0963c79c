type severity = Recorder.severity = Debug | Info | Warn | Error

let severity_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

type event = Recorder.event = {
  seq : int;
  ts_ns : int64;
  tid : int;
  domain : string;
  severity : severity;
  message : string;
  fields : (string * string) list;
}

let on = ref false

let set_enabled b = on := b

let configure ?capacity () =
  match capacity with
  | None -> ()
  | Some c ->
      if c < 1 then invalid_arg "Events.configure: capacity must be >= 1";
      Recorder.set_event_capacity c

let echo message =
  output_string stderr message;
  output_char stderr '\n';
  flush stderr

let emit ?(fields = []) ~domain severity message =
  (* Record first so the echo cost never delays the timestamp. *)
  if !on then Recorder.event ~fields ~domain severity message;
  match severity with Warn | Error -> echo message | Debug | Info -> ()

let events () =
  List.filter_map
    (function Recorder.Event e -> Some e | Span _ -> None)
    (Recorder.records Events)

let total () = Recorder.total Events

let dropped () = Recorder.dropped Events

let event_json ev =
  Json.Obj
    [
      ("ts_ns", Json.Int (Int64.to_int ev.ts_ns));
      ("tid", Json.Int ev.tid);
      ("seq", Json.Int ev.seq);
      ("domain", Json.String ev.domain);
      ("severity", Json.String (severity_name ev.severity));
      ("msg", Json.String ev.message);
      ( "fields",
        Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) ev.fields) );
    ]

let export_jsonl () =
  let buf = Buffer.create 1024 in
  List.iter
    (fun ev ->
      Json.to_buffer buf (event_json ev);
      Buffer.add_char buf '\n')
    (events ());
  Buffer.contents buf

let export_json () =
  Json.Obj
    [
      ("schema", Json.String "nisq-events/1");
      ("total", Json.Int (total ()));
      ("dropped", Json.Int (dropped ()));
      ("events", Json.List (List.map event_json (events ())));
    ]

let reset () = Recorder.reset Events
