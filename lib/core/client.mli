(** The leasing client cache.

    A read is served locally iff the datum is cached {e and} covered by an
    unexpired lease on the client's own clock; otherwise the client sends a
    read/extension RPC (batched over all held files when
    [batch_extensions]), retransmitting on loss.  Writes are write-through.
    The client answers the server's approval callbacks by invalidating its
    copy, and accepts the multicast installed-file refreshes.

    A crash clears the cache and abandons outstanding operations — their
    continuations are never invoked, which the driver reports as dropped
    operations. *)

type t

val create :
  engine:Simtime.Engine.t ->
  clock:Clock.t ->
  net:Messages.payload Netsim.Net.t ->
  liveness:Host.Liveness.t ->
  host:Host.Host_id.t ->
  server:Host.Host_id.t ->
  ?rng:Prng.Splitmix.t ->
  config:Config.t ->
  ?tracer:Trace.Sink.t ->
  ?req_origin:int ->
  unit ->
  t
(** Every RPC, approval reply and batched extension goes to [server].
    [rng] jitters the exponential retransmission
    backoff (each retry waits [retry_interval * 2^k] capped at
    [retry_max_interval], scaled by a uniform factor in [0.5, 1.5));
    without it the backoff is deterministic and unjittered.  [tracer]
    receives the client-side protocol events (cache hits, misses and
    invalidations, local lease records); disabled by default.
    [req_origin] seeds the request-id counter (default
    [Trace.Op_id.origin ~host ~shard:0]) — a deployment that instantiates
    the same client host in several sub-simulations gives each instance a
    distinct origin so correlation ids stay unique in the merged trace. *)

val host : t -> Host.Host_id.t
val clock : t -> Clock.t

type read_result = {
  r_version : Vstore.Version.t;
  r_latency : Simtime.Time.Span.t;  (** engine time from issue to completion *)
  r_from_cache : bool;
}

val read : t -> Vstore.File_id.t -> k:(read_result -> unit) -> unit
(** [k] fires exactly once per completed read — immediately for a cache
    hit, on RPC completion otherwise; never if the client crashes first. *)

type write_result = {
  w_version : Vstore.Version.t;
  w_latency : Simtime.Time.Span.t;
}

val write : t -> Vstore.File_id.t -> k:(write_result -> unit) -> unit

(** {2 Introspection} *)

val holds_valid_lease : t -> Vstore.File_id.t -> bool
(** On the client's own clock, right now. *)

val cached_version : t -> Vstore.File_id.t -> Vstore.Version.t option
(** The version cached, with or without a live lease. *)

val cache_size : t -> int

val inflight_rpcs : t -> int
(** RPCs on the wire (retransmission timers armed). *)

val queued_ops : t -> int
(** Operations blocked behind an in-flight RPC on the same file. *)

val hits : t -> int
val misses : t -> int
val approvals_answered : t -> int
val retransmissions : t -> int
val renewals_sent : t -> int
(** Anticipatory extension RPCs issued with no read waiting. *)

val fallback_reads : t -> int
(** Reads re-issued because a reply answered a different file list (a
    retransmission raced a crash).  These never complete from fabricated
    local state, so they cannot pollute oracle staleness attribution. *)

val evictions : t -> int
(** Cache entries reclaimed by the periodic eviction sweep
    ([Config.cache_eviction_grace]) because their lease had lapsed at
    least a full grace earlier. *)

val counters : t -> Stats.Counter.Registry.t
