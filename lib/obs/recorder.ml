type span = {
  name : string;
  ts_ns : int64;
  dur_ns : int64;
  tid : int;
  depth : int;
  seq : int;
  attrs : (string * string) list;
}

type severity = Debug | Info | Warn | Error

type event = {
  seq : int;
  ts_ns : int64;
  tid : int;
  domain : string;
  severity : severity;
  message : string;
  fields : (string * string) list;
}

type record = Span of span | Event of event

type kind = Spans | Events

let span_capacity = 1 lsl 15

let event_capacity = ref 512

(* A drop-oldest buffer of one kind of record. [next] hands out sequence
   numbers: events take theirs when pushed, spans when opened, so a
   parent sorts before its children at equal timestamps. *)
type lane = {
  mutable slots : record array; (* [||] until the first push *)
  mutable start : int; (* index of the oldest live record *)
  mutable len : int;
  mutable dropped : int;
  mutable next : int;
}

(* One ring per live domain. Only the owner pushes, so pushes take no
   lock; the registry exists so readers can find every ring, and [free]
   holds the rings of exited domains, records and all, for the next
   domain to adopt. *)
type ring = {
  mutable tid : int;
  mutable depth : int;
  spans : lane;
  events : lane;
}

let lane r = function Spans -> r.spans | Events -> r.events

let mutex = Mutex.create ()

let registry = ref []

let free = ref []

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let acquire () =
  let fresh () = { slots = [||]; start = 0; len = 0; dropped = 0; next = 0 } in
  let r =
    locked (fun () ->
        match !free with
        | r :: rest ->
            free := rest;
            r
        | [] ->
            let r =
              { tid = 0; depth = 0; spans = fresh (); events = fresh () }
            in
            registry := r :: !registry;
            r)
  in
  r.tid <- (Domain.self () :> int);
  r.depth <- 0;
  Domain.at_exit (fun () -> locked (fun () -> free := r :: !free));
  r

let key = Domain.DLS.new_key acquire

let push l cap x =
  (* first push, or the capacity changed since the last reset *)
  if Array.length l.slots <> cap then begin
    l.slots <- Array.make cap x;
    l.start <- 0;
    l.len <- 0
  end;
  if l.len = cap then begin
    l.slots.(l.start) <- x;
    l.start <- (l.start + 1) mod cap;
    l.dropped <- l.dropped + 1
  end
  else begin
    l.slots.((l.start + l.len) mod cap) <- x;
    l.len <- l.len + 1
  end

let take_seq l =
  l.next <- l.next + 1;
  l.next - 1

let span ?(attrs = []) name f =
  let r = Domain.DLS.get key in
  let seq = take_seq r.spans in
  r.depth <- r.depth + 1;
  let depth = r.depth in
  let t0 = Clock.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      let dur_ns = Int64.sub (Clock.now_ns ()) t0 in
      r.depth <- depth - 1;
      push r.spans span_capacity
        (Span { name; ts_ns = t0; dur_ns; tid = r.tid; depth; seq; attrs }))
    f

let event ~fields ~domain severity message =
  let r = Domain.DLS.get key in
  let seq = take_seq r.events and ts_ns = Clock.now_ns () in
  push r.events !event_capacity
    (Event { seq; ts_ns; tid = r.tid; domain; severity; message; fields })

let lanes kind = locked (fun () -> List.map (fun r -> lane r kind) !registry)

let stamp = function
  | Span s -> (s.ts_ns, s.tid, s.seq)
  | Event e -> (e.ts_ns, e.tid, e.seq)

let by_stamp a b =
  let ts, tid, seq = stamp a and ts', tid', seq' = stamp b in
  match Int64.compare ts ts' with
  | 0 -> ( match Int.compare tid tid' with 0 -> Int.compare seq seq' | c -> c)
  | c -> c

let records kind =
  lanes kind
  |> List.concat_map (fun l ->
         let cap = Array.length l.slots in
         List.init l.len (fun i -> l.slots.((l.start + i) mod cap)))
  |> List.sort by_stamp

let total kind =
  List.fold_left (fun n l -> n + l.len + l.dropped) 0 (lanes kind)

let dropped kind = List.fold_left (fun n l -> n + l.dropped) 0 (lanes kind)

let reset kind =
  locked (fun () ->
      List.iter
        (fun r ->
          let l = lane r kind in
          l.start <- 0;
          l.len <- 0;
          l.dropped <- 0;
          l.next <- 0;
          if kind = Spans then r.depth <- 0)
        !registry)

let set_event_capacity c =
  event_capacity := c;
  reset Events

let rings () = locked (fun () -> List.length !registry)
