(** Length-prefixed JSON frames — the daemon's wire format.

    A frame is a 4-byte big-endian payload length followed by exactly
    that many bytes of compact JSON. The prefix makes message
    boundaries explicit, so a reader can always tell a {e torn} frame
    (the peer died mid-write) from a clean end of stream, and a single
    oversized length field cannot make the daemon allocate unbounded
    memory ({!max_payload_bytes}).

    All reads and writes loop over [Unix.read]/[Unix.write_substring]
    and retry [EINTR], so signal delivery (the daemon's drain path)
    never tears a frame from our side. *)

val max_payload_bytes : int
(** Upper bound on a payload length this codec will read or write
    (16 MiB). A length prefix above it is a protocol violation, not an
    allocation request. *)

val encode : Nisq_obs.Json.t -> string
(** The full wire bytes of one frame: prefix plus payload. *)

val write : Unix.file_descr -> Nisq_obs.Json.t -> string
(** Encode and write one frame; returns the wire bytes written (for
    [--record]). Raises [Unix.Unix_error] if the peer is gone. *)

val write_torn : Unix.file_descr -> Nisq_obs.Json.t -> unit
(** Write only the first half of the frame's bytes — the [net:torn]
    fault: the peer sees a well-formed prefix and a payload that ends
    mid-value. *)

type error =
  | Eof  (** clean end of stream, on a frame boundary *)
  | Torn of string  (** stream ended inside a prefix or payload *)
  | Too_large of int  (** prefix exceeded {!max_payload_bytes} *)
  | Malformed of string  (** payload is not valid JSON *)

val error_message : error -> string

type decoder
(** Incremental reassembly, behind {!read}, {!scan_string} and the
    daemon's select loop. *)

val decoder : unit -> decoder

val fill : decoder -> Unix.file_descr -> int -> error option
(** One [Unix.read] of up to [n] bytes; [Some Eof]/[Some (Torn _)] at
    end of stream. *)

val next : ?record:(string -> unit) -> decoder -> (Nisq_obs.Json.t, error) result option
(** The next frame once whole; the stream is unframed after an [Error].
    [record] receives its wire bytes, prefix included. *)

val read : ?record:(string -> unit) -> Unix.file_descr -> (Nisq_obs.Json.t, error) result
(** Read one frame, never past its end. [record] as in {!next}. *)

val scan_string : string -> (Nisq_obs.Json.t list, string) result
(** Decode a byte string holding zero or more concatenated frames —
    the shape a [--record] capture file has. [Error] on a torn trailing
    frame, an oversized prefix, or an unparseable payload. *)
