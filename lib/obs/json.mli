(** Minimal self-contained JSON: a value type, a compact renderer and a
    strict parser.

    The telemetry layer exports Chrome [trace_event] files and metrics
    dumps; the test suite and the CI smoke check parse them back. No
    JSON library is preinstalled in the toolchain, so this module is the
    single source of truth for both directions — anything {!to_string}
    produces, {!of_string} accepts. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering (no insignificant whitespace). Non-finite floats
    render as [null]: JSON has no representation for them. *)

val to_buffer : Buffer.t -> t -> unit
(** {!to_string} into an existing buffer. *)

val write_atomic : path:string -> string -> unit
(** The one crash-safe file writer: atomically replace [path] with
    [content]. It writes [path.tmp.<pid>], flushes, fsyncs, renames
    over [path], then fsyncs the containing directory (best-effort) so
    the rename survives a power loss. On error the temporary file is
    removed, [path] is untouched and the exception (a failed file
    fsync included) propagates. Every telemetry, report and table file
    goes through it. *)

val to_file : path:string -> t -> unit
(** {!write_atomic} of {!to_string} plus a trailing newline: [path]
    never holds a torn JSON value, even if the writer is killed
    mid-dump. *)

val of_string : string -> (t, string) result
(** Strict RFC 8259 parser: one value, nothing after it. Numbers
    without [.], [e] or [E] parse as [Int]; [\uXXXX] escapes decode to
    UTF-8. Errors carry a byte offset. *)

val member : string -> t -> t option
(** [member k (Obj kvs)] is the value bound to the first [k]; [None] on
    a missing key or a non-object. *)
