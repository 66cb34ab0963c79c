type span = Recorder.span = {
  name : string;
  ts_ns : int64;
  dur_ns : int64;
  tid : int;
  depth : int;
  seq : int;
  attrs : (string * string) list;
}

let on = ref false

let set_enabled b = on := b

let with_span ?attrs name f =
  if not !on then f () else Recorder.span ?attrs name f

let reset () = Recorder.reset Spans

let total () = Recorder.total Spans

let dropped () = Recorder.dropped Spans

let spans () =
  List.filter_map
    (function Recorder.Span s -> Some s | Event _ -> None)
    (Recorder.records Spans)

(* ------------------------- chrome trace_event ---------------------- *)

let us_of_ns base ns = Int64.to_float (Int64.sub ns base) /. 1e3

let export_json () =
  let all = spans () in
  let base =
    List.fold_left
      (fun acc s -> if Int64.compare s.ts_ns acc < 0 then s.ts_ns else acc)
      (match all with [] -> 0L | s :: _ -> s.ts_ns)
      all
  in
  let event s =
    let args = List.map (fun (k, v) -> (k, Json.String v)) s.attrs in
    Json.Obj
      [
        ("name", Json.String s.name);
        ("cat", Json.String "nisq");
        ("ph", Json.String "X");
        ("ts", Json.Float (us_of_ns base s.ts_ns));
        ("dur", Json.Float (Int64.to_float s.dur_ns /. 1e3));
        ("pid", Json.Int 1);
        ("tid", Json.Int s.tid);
        ("args", Json.Obj args);
      ]
  in
  Json.Obj
    [
      ("traceEvents", Json.List (List.map event all));
      ("displayTimeUnit", Json.String "ms");
    ]

(* ------------------------- human-readable tree ---------------------- *)

let aggregate all =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let count, total =
        Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0L)
      in
      Hashtbl.replace tbl s.name (count + 1, Int64.add total s.dur_ns))
    all;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let render_tree () =
  let all = spans () in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "=== trace ===\n";
  if all = [] then Buffer.add_string buf "  (no spans recorded)\n"
  else begin
    let tids =
      List.sort_uniq compare (List.map (fun (s : span) -> s.tid) all)
    in
    List.iter
      (fun tid ->
        Printf.bprintf buf "domain %d:\n" tid;
        List.iter
          (fun (s : span) ->
            if s.tid = tid then begin
              Buffer.add_string buf (String.make (2 * s.depth) ' ');
              Printf.bprintf buf "%s  %.3f ms" s.name
                (Clock.ns_to_ms s.dur_ns);
              if s.attrs <> [] then begin
                Buffer.add_string buf "  [";
                List.iteri
                  (fun i (k, v) ->
                    if i > 0 then Buffer.add_string buf ", ";
                    Printf.bprintf buf "%s=%s" k v)
                  s.attrs;
                Buffer.add_char buf ']'
              end;
              Buffer.add_char buf '\n'
            end)
          all)
      tids;
    Buffer.add_string buf "by name:\n";
    List.iter
      (fun (name, (count, total)) ->
        Printf.bprintf buf "  %-28s %6d x  %10.3f ms\n" name count
          (Clock.ns_to_ms total))
      (aggregate all)
  end;
  Buffer.contents buf

let summary_json () =
  let all = spans () in
  Json.Obj
    (List.map
       (fun (name, (count, total)) ->
         ( name,
           Json.Obj
             [
               ("count", Json.Int count);
               ("total_ms", Json.Float (Clock.ns_to_ms total));
             ] ))
       (aggregate all))
