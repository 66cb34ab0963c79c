(** The one bounded per-domain recorder behind {!Trace} and {!Events}.

    Each recording domain owns one ring, found through a single
    [Domain.DLS] key. A ring holds typed records — completed spans and
    events — in one drop-oldest lane per kind: a full lane overwrites
    its oldest record and counts it as dropped. Capacity is per kind, so
    a flood of spans never evicts an event. Pushes touch only the
    owner's ring and take no lock; a registry under one mutex lets
    readers find every ring.

    When a domain exits ([Domain.at_exit]) its ring, records included,
    goes to a free list for the next domain to adopt. The registry is
    therefore bounded by the peak number of live domains, not by the
    number ever spawned — a daemon spawning a domain per connection
    keeps a bounded recorder.

    Reading while other domains record is safe but may miss in-flight
    records; {!reset} and {!set_event_capacity} assume no domain is
    recording. *)

type span = {
  name : string;
  ts_ns : int64;  (** monotonic start time *)
  dur_ns : int64;
  tid : int;  (** recording domain's id *)
  depth : int;  (** 1 = top-level span on its domain *)
  seq : int;  (** opening order on the ring *)
  attrs : (string * string) list;
}

type severity = Debug | Info | Warn | Error

type event = {
  seq : int;  (** emission order on the ring *)
  ts_ns : int64;  (** monotonic clock, same base as spans *)
  tid : int;  (** OCaml domain id that emitted the event *)
  domain : string;  (** component name: ["pool"], ["cache"], ... *)
  severity : severity;
  message : string;
  fields : (string * string) list;  (** key=value details *)
}

type record = Span of span | Event of event

type kind = Spans | Events

val span_capacity : int
(** Spans kept per ring: 32768, so a figure run drops none. *)

val set_event_capacity : int -> unit
(** Set the events kept per ring (default 512) and {!reset} events. *)

val span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk and record it as a completed span on the calling
    domain's ring, also when it raises (the exception propagates). *)

val event :
  fields:(string * string) list -> domain:string -> severity -> string -> unit

val records : kind -> record list
(** Every ring's retained records of one kind, sorted by
    [(ts_ns, tid, seq)]: parents before children, and same-timestamp
    events in emission order. *)

val total : kind -> int
(** Records of this kind since the last {!reset}, dropped ones included. *)

val dropped : kind -> int
(** Records of this kind evicted from full lanes since the last {!reset}. *)

val reset : kind -> unit
(** Empty this kind's lane on every ring and zero its counters. *)

val rings : unit -> int
(** Rings allocated so far: the peak number of domains recording at once. *)
