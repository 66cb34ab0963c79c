(** Filesystem helpers of the run layer. Atomic file replacement lives
    one layer down, in [Nisq_obs.Json.write_atomic], so telemetry and run
    outputs share one writer. *)

val mkdir_p : string -> unit
(** Create [dir] and any missing parents. Tolerates concurrent creation
    ([EEXIST] is success — unlike the racy
    [if not (Sys.file_exists d) then Sys.mkdir d] pattern this
    replaces). Raises [Unix.Unix_error] on real failures
    (e.g. permissions). *)

val read_file : string -> string
(** Whole-file read (binary). Raises [Sys_error] if unreadable. *)
