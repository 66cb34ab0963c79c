module Json = Nisq_obs.Json

let max_payload_bytes = 16 * 1024 * 1024

let encode json =
  let payload = Json.to_string json in
  let n = String.length payload in
  if n > max_payload_bytes then
    invalid_arg (Printf.sprintf "Frame.encode: %d-byte payload" n);
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

let rec write_all fd s pos len =
  if len > 0 then begin
    let n =
      try Unix.write_substring fd s pos len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd s (pos + n) (len - n)
  end

let write fd json =
  let wire = encode json in
  write_all fd wire 0 (String.length wire);
  wire

let write_torn fd json =
  let wire = encode json in
  write_all fd wire 0 (String.length wire / 2)

type error =
  | Eof
  | Torn of string
  | Too_large of int
  | Malformed of string

let error_message = function
  | Eof -> "end of stream"
  | Torn what -> Printf.sprintf "torn frame (stream ended inside %s)" what
  | Too_large n ->
      Printf.sprintf "frame length %d exceeds the %d-byte cap" n
        max_payload_bytes
  | Malformed msg -> Printf.sprintf "malformed payload: %s" msg

(* The buffer grows with the bytes that arrive, never with what a
   length prefix claims. *)
type decoder = { mutable buf : Bytes.t; mutable start : int; mutable stop : int }

let decoder () = { buf = Bytes.create 256; start = 0; stop = 0 }

let length_at b p = Int32.to_int (Bytes.get_int32_be b p) land 0xffff_ffff

(* Bytes the buffered frame still lacks; 0 once it is whole or its
   prefix is already over the cap. *)
let missing d =
  let have = d.stop - d.start in
  if have < 4 then 4 - have
  else
    let n = length_at d.buf d.start in
    if n > max_payload_bytes then 0 else max 0 (4 + n - have)

let next ?record d =
  if missing d > 0 then None
  else
    let n = length_at d.buf d.start in
    if n > max_payload_bytes then Some (Error (Too_large n))
    else begin
      Option.iter (fun f -> f (Bytes.sub_string d.buf d.start (4 + n))) record;
      let payload = Bytes.sub_string d.buf (d.start + 4) n in
      d.start <- d.start + 4 + n;
      Some (Result.map_error (fun msg -> Malformed msg) (Json.of_string payload))
    end

let ended d =
  let have = d.stop - d.start in
  if have = 0 then Eof
  else if have < 4 then Torn "the length prefix"
  else Torn "the payload"

(* A remote hard close can surface as ECONNRESET/EPIPE: to a frame
   reader that is the same event as end of stream. *)
let fill d fd n =
  let have = d.stop - d.start in
  if d.stop + n > Bytes.length d.buf then begin
    let buf =
      if have + n > Bytes.length d.buf then
        Bytes.create (max (have + n) (2 * Bytes.length d.buf))
      else d.buf
    in
    Bytes.blit d.buf d.start buf 0 have;
    d.buf <- buf;
    d.start <- 0;
    d.stop <- have
  end;
  let rec go () =
    match Unix.read fd d.buf d.stop n with
    | 0 -> Some (ended d)
    | got ->
        d.stop <- d.stop + got;
        None
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> Some (ended d)
  in
  go ()

(* Never reads past the frame: the next one belongs to the next call. *)
let read ?record fd =
  let d = decoder () in
  let rec go () =
    match next ?record d with
    | Some r -> r
    | None -> (
        match fill d fd (min (missing d) 65536) with
        | None -> go ()
        | Some e -> Error e)
  in
  go ()

let scan_string src =
  let d = { buf = Bytes.of_string src; start = 0; stop = String.length src } in
  let rec go acc =
    let pos = d.start in
    let fail e = Error (Printf.sprintf "frame at byte %d: %s" pos (error_message e)) in
    match next d with
    | Some (Ok v) -> go (v :: acc)
    | Some (Error e) -> fail e
    | None -> ( match ended d with Eof -> Ok (List.rev acc) | e -> fail e)
  in
  go []
