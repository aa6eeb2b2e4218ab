(** The protocol-neutral cluster harness every simulation driver is built
    from: the world, the one fault injector, the one lazy op driver and
    the one derivation of the ratio metrics (DESIGN.md §16).

    Host layout: shard [s]'s server is host [s]; client [i] is host
    [K + i] for K shards (K = 1 for the single-server drivers). *)

type tally = {
  read_latency : Stats.Histogram.t;  (** seconds; cache hits contribute 0 *)
  write_latency : Stats.Histogram.t;
  mutable ops_issued : int;
  mutable reads_completed : int;
  mutable writes_completed : int;
  mutable temp_ops : int;
}

type 'a world = {
  who : string;  (** the driver's name, prefixed to every error it raises *)
  engine : Simtime.Engine.t;
  tracer : Trace.Sink.t;  (** when profiling, each push is charged to [trace/emit] *)
  liveness : Host.Liveness.t;
  partition : Netsim.Partition.t;
  net : 'a Netsim.Net.t;
  rng : Prng.Splitmix.t;  (** split once for the net; drivers split per-client streams after *)
  store : Vstore.Store.t;
  oracle : Oracle.Register_oracle.t;  (** observes [store] *)
  tally : tally;
}

val world :
  who:string ->
  ?tracer:Trace.Sink.t ->
  ?profiler:Profile.Recorder.t ->
  ?classify:('a -> Trace.Event.msg_kind * int) ->
  rng:Prng.Splitmix.t ->
  loss:float ->
  m_prop:Simtime.Time.Span.t ->
  m_proc:Simtime.Time.Span.t ->
  unit ->
  'a world
(** Tracer and profiler default to off. *)

val rtt_s : 'a world -> float
(** The network's unicast round trip, in seconds. *)

val horizon : Workload.Trace.t -> drain:Simtime.Time.Span.t -> Simtime.Time.t
(** The trace's duration plus [drain]. *)

val run : 'a world -> until:Simtime.Time.t -> unit
(** Run the engine to [until], profiling just this loop; flush the tracer. *)

(** {1 Faults} *)

type layout = {
  n_clients : int;
  n_shards : int;  (** K: shard indices in faults resolve modulo K *)
  shard : int;  (** the shard whose server this simulation runs *)
  server_clock : Clock.t option;  (** [None]: a server clock fault is ignored *)
  client_clocks : Clock.t array;
      (** one per client, or empty; a clock fault on a host with no clock
          here is ignored *)
}

val single_server : n_clients:int -> layout
(** K = 1, shard 0, no clocks. *)

val server_host : int -> Host.Host_id.t
val client_host : layout -> int -> Host.Host_id.t

val check_faults : who:string -> n_clients:int -> Fault.fault list -> unit
(** Raises [Invalid_argument] if a fault names a client outside
    [0, n_clients) or a negative shard. *)

val schedule_faults : 'a world -> layout -> Fault.fault list -> unit
(** {!check_faults}, then schedule every fault.  [Crash_server] means
    shard 0; a server fault is applied and traced only where that
    server runs.  Client-machine faults are applied everywhere but
    traced only when [shard = 0].  Partitions are not traced. *)

(** {1 Driving a trace} *)

val drive :
  'a world ->
  n_clients:int ->
  Workload.Op.t list ->
  read:(Workload.Op.t -> unit) ->
  write:(Workload.Op.t -> unit) ->
  unit
(** Check every op's client index ([Invalid_argument] if outside
    [0, n_clients)), then issue the time-ordered ops lazily: op [k]'s
    event issues it, then schedules op [k + 1].  Temporary ops are only
    counted; the others go to [read] or [write], which report completion
    through {!read_done} and {!write_done}.  An op and a protocol event
    at the same microsecond fire in the order they were scheduled. *)

val read_done : 'a world -> float -> unit
(** Count a completed read and record its latency in seconds. *)

val write_done : 'a world -> float -> unit

(** {1 Metrics} *)

val metrics : 'a world -> Metrics.t
(** Duration, op counts, latency histograms, network counters and oracle
    verdicts.  Protocol counters are zero and [write_wait] empty, for the
    driver to fill with [{ ... with }] before {!derive}. *)

val derive : rtt_s:float -> Metrics.t -> Metrics.t
(** Recompute [hit_ratio], [consistency_msg_rate], [mean_read_delay],
    [mean_write_delay_added] (mean write latency beyond [rtt_s], floored
    at 0) and [mean_op_delay] from the record's raw fields. *)
