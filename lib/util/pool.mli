(** A fixed-size pool of worker domains for embarrassingly-parallel
    chunked work (Monte-Carlo trial batches, compile sweeps).

    Domains are spawned once at {!create} and reused across every
    {!parallel_chunks} call — spawning a domain costs far more than a
    typical chunk, so a per-call [Domain.spawn] would erase the win for
    the 100 µs–10 ms chunks this repository runs.

    Determinism contract: [parallel_chunks] only distributes indices
    [0 .. chunks-1]; as long as the chunk function derives all of its
    randomness from its index (see {!Rng.mix}), results are independent
    of the pool size and of scheduling order.

    Self-healing: a chunk that raises is retried once with the same index
    — under the determinism contract the retry is bit-identical to an
    undisturbed execution, so one transient failure is invisible in the
    results. A worker domain that dies (an exception escaping the chunk
    wrapper, e.g. an injected [Faultkit.Domain_kill]) is replaced at the
    next [parallel_chunks] call; its in-flight chunk completes via the
    retry before the domain exits, and the helping caller never dies.
    Failures, successful retries and respawns are counted under
    [resilience.pool.*]. *)

type t

val create : ?size:int -> unit -> t
(** [create ()] makes a pool. Its size is [size] when given, else the
    [NISQ_DOMAINS] environment variable, else
    [Domain.recommended_domain_count () - 1] (reserving one core for
    the calling domain). A non-integer or negative [NISQ_DOMAINS] is
    ignored with a single warning on stderr and the default sizing
    applies. A pool of size ≤ 1 spawns no domains and runs every call
    sequentially in the caller; a larger pool spawns [size] worker
    domains. *)

val size : t -> int
(** The size the pool was created with (negative requests clamp to
    [0]). Worker domains exist only when it is greater than 1: a pool of
    size 0 or 1 spawns none and is sequential (see {!sequential}). *)

val sequential : t -> bool
(** [true] when the pool spawned no worker domain ([size t <= 1]). *)

val default : unit -> t
(** The shared process-wide pool, created on first use with the default
    sizing and shut down automatically at exit. *)

val parallel_chunks : t -> chunks:int -> (int -> 'a) -> 'a list
(** [parallel_chunks t ~chunks f] computes [[f 0; f 1; …; f (chunks-1)]],
    distributing the calls over the pool's workers (the caller also
    drains the queue rather than idling). Results are returned in index
    order. A chunk that raises is retried once with the same index (on
    the sequential path too); if the retry also raises, one such
    exception is re-raised after all chunks finish. [f] must be safe to
    run on any domain. The pool is not re-entrant: a chunk function that
    calls [parallel_chunks] on the {e same} pool gets a chunk-level
    [Invalid_argument] on every execution path (worker, helping caller,
    and the sequential size ≤ 1 path alike — so the bug cannot hide in
    small configurations). Submitting to a {e different} pool from
    inside a chunk is fine; that is how a figure cell hands a solve to
    the dedicated solver pool. Raises [Invalid_argument] if
    [chunks <= 0]. *)

val shutdown : t -> unit
(** Terminate and join the workers. Idempotent. Calls issued after
    shutdown run sequentially. *)
