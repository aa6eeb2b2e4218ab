(** Sharded multi-server deployment.

    Partitions the file namespace across K independent lease servers with
    a {!Shard_map}: shard [s]'s server is host [s] and client [i] is host
    [K + i].  A lease covers one datum and the servers own disjoint file
    sets, so the cluster splits exactly into K single-server simulations,
    one per shard, each with its own engine, clocks, network, liveness and
    partition state, store, WAL, trace buffer, telemetry sampler and
    profile recorder.  A crashed shard runs the max-term recovery wait on
    its own while the others keep serving.

    Each part is [Leases.Sim.cluster] on a [Leases.Harness] world, faulted
    by [Leases.Harness.schedule_faults]: shard indices resolve modulo the
    shard count and [Crash_server] means shard 0, so single-server fault
    schedules replay on a sharded cluster.  Client-machine faults apply
    in every part and are traced by part 0 only; server faults apply in
    the part that runs the shard.  Each part's consistency oracle
    observes that part's store. *)

type setup = {
  seed : int64;
  n_clients : int;
  n_shards : int;
  vnodes : int;  (** virtual nodes per shard in the {!Shard_map} ring *)
  config : Leases.Config.t;
  m_prop : Simtime.Time.Span.t;
  m_proc : Simtime.Time.Span.t;
  loss : float;
  faults : Leases.Sim.fault list;
  drain : Simtime.Time.Span.t;
  tracer : Trace.Sink.t;
  telemetry_interval_s : float option;
      (** when set, each part runs a {!Telemetry.Sampler} at this
          interval; {!split_telemetry_report} reads them per shard *)
  profilers : Profile.Recorder.t array;
      (** the recorder installed on part [s]'s engine is [profilers.(s)]
          (out-of-range shards get {!Profile.Recorder.null}).  The caller
          creates them because the recorder needs a wallclock timer this
          library does not have.  Empty — the default — profiles
          nothing. *)
}

val default_setup : setup
(** Seed 1, one client, four shards, 64 vnodes, {!Leases.Config.default},
    V LAN message times, no loss, no faults, 120 s drain, no tracing, no
    telemetry. *)

val server_host : int -> Host.Host_id.t
(** Shard [s]'s server is host [s]. *)

val client_host : setup -> int -> Host.Host_id.t
(** Client [i] is host [n_shards + i]. *)

val server_hosts : setup -> int list
(** All server host ids, for the trace checker's [servers] argument. *)

type shard_load = {
  sl_shard : int;
  sl_host : int;
  sl_extension_msgs : int;
  sl_approval_msgs : int;
  sl_installed_msgs : int;
  sl_consistency_msgs : int;
  sl_total_msgs : int;
  sl_commits : int;
  sl_consistency_rate : float;  (** consistency messages per virtual second *)
}

(** {1 Running} The result is deterministic in the seed and independent
    of the domain count: per-shard RNG streams are pre-split from the
    master seed in shard order before any domain starts, metrics sum,
    latency histograms fold with {!Stats.Histogram.merge} in shard order,
    telemetry windows are keyed by shard, and the per-part trace streams
    are merged by [(timestamp, shard)] and replayed into [setup.tracer]
    after the parts join.  All [n_clients] client machines exist in every
    part (an op reaches the part owning its file; an idle client
    contributes nothing), with distinct request-id origins
    ({!Trace.Op_id}) so correlation ids stay unique in the merged
    trace. *)

type part = {
  p_shard : int;
  p_metrics : Leases.Metrics.t;  (** this part alone; [sim_duration] is the shared horizon *)
  p_load : shard_load;
  p_oracle : Oracle.Register_oracle.t;
  p_telemetry : Telemetry.Sampler.t option;  (** this part's sampler, finalized *)
  p_events : Trace.Event.t list;
      (** this part's trace, time-ordered; empty when [setup.tracer] is
          disabled *)
  p_rtt_s : float;
}

type split_outcome = {
  sp_metrics : Leases.Metrics.t;  (** deterministic merge over the parts *)
  sp_per_shard : shard_load array;
  sp_map : Shard_map.t;
  sp_telemetry : Shard_telemetry.t option;
      (** the parts' windows, keyed by shard *)
  sp_parts : part array;
}

val run_split : ?domains:int -> setup -> trace:Workload.Trace.t -> split_outcome
(** [domains] (default 1) caps the OCaml domains running parts
    concurrently; [min domains n_shards] are used, pulling shard indices
    from a shared counter.  [~domains:1] runs the parts sequentially on
    the calling domain and produces bit-identical results to any other
    domain count.  Trace ops and faults naming a client outside
    [0, n_clients), and more than {!Trace.Op_id.max_shards} shards, raise
    [Invalid_argument] before any domain starts. *)

val residual_params :
  ?tolerance:float -> ?warmup_s:float -> setup -> Telemetry.Residual.params
(** §3.1 residual parameters for this deployment: total client count, the
    configured message times and skew allowance, and the term implied by
    the term policy (an adaptive policy evaluates at its max term). *)

val split_telemetry_report :
  setup -> split_outcome -> Shard_telemetry.shard_report array option
(** Per-shard windows, residual evaluations and summaries; [None] when the
    setup collected no telemetry. *)
