(** Minimal fork-join parallelism over OCaml 5 domains.

    The algorithms in this repository are single-threaded, but the sweeps
    that drive them (bench tables, stress validation, parameter scans) are
    embarrassingly parallel; this module spreads such workloads over the
    machine's cores without external dependencies.

    Work is claimed in fixed-size index blocks off a shared atomic counter
    (dynamic chunking), so domains that finish early keep pulling work
    instead of idling behind a slow chunk; each block's results live in a
    buffer private to the computing domain, avoiding both per-element
    boxing and false sharing.  Results are reassembled by index, so output
    is deterministic: identical for every domain count.  The supplied
    function must be safe to run concurrently (our generators and solvers
    are: they share no mutable state once given distinct PRNG seeds).
    Exceptions propagate to the caller.

    Two guards protect small workloads from parallelism overhead (domain
    spawn plus the stop-the-world minor-GC handshake every extra running
    domain joins): the requested domain count is clamped to
    [Domain.recommended_domain_count ()], and the first block is timed on
    the calling domain — when the projected total runtime is under ~2 ms
    the rest of the map runs sequentially too.  Neither guard changes the
    result, only where it is computed.

    When {!Wl_obs.Metrics} is enabled, every map records
    [parallel.maps]/[parallel.items]/[parallel.chunks] and the fallback
    and clamp counters ([parallel.seq_fallbacks],
    [parallel.domains_clamped], [parallel.workers_spawned]); with
    {!Wl_obs.Trace} enabled each worker domain emits a [parallel.worker]
    span on its own track. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count], capped at 8. *)

val map_array : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map]; preserves order.  [domains] defaults to
    {!default_domains}; values [<= 1] run sequentially. *)

val init : ?domains:int -> int -> (int -> 'a) -> 'a array
(** Parallel [Array.init]. *)
