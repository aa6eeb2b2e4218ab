(** End-to-end simulation driver for the lease protocol.

    Builds a lease cluster on a {!Harness.world} — one server, N client
    caches, a network with the configured message times — drives a
    workload trace through it, injects the requested faults, and returns
    a {!Metrics.t}.  The consistency oracle always observes the run.

    Host layout: the server is host 0; client index [i] is host [i + 1].
    {!cluster} is the same builder for one shard of K. *)

include module type of struct
  include Fault
end
(** The fault vocabulary and its [--fault] grammar; see {!Fault}. *)

type setup = {
  seed : int64;
  n_clients : int;
  config : Config.t;
  m_prop : Simtime.Time.Span.t;
  m_proc : Simtime.Time.Span.t;
  loss : float;  (** per-delivery drop probability *)
  faults : fault list;
  drain : Simtime.Time.Span.t;
  (** how long past the last trace operation to keep the cluster running so
      in-flight work settles *)
  tracer : Trace.Sink.t;
  (** receives the protocol event stream from every layer (engine, net,
      server, clients, fault injector); {!Trace.Sink.null} — the default —
      compiles the instrumentation down to a guarded no-op *)
  profiler : Profile.Recorder.t;
  (** cost-center recorder installed on the engine for the run; started
      just before the event loop and stopped when it drains.  When enabled
      alongside tracing, sink pushes are bracketed so emission cost lands
      in the [trace/emit] center.  {!Profile.Recorder.null} — the default —
      keeps the dispatch loop on its one-branch fast path. *)
  on_instruments : instruments -> unit;
  (** called once per run, after the cluster is built and the workload and
      faults are scheduled but before the engine starts — the hook a
      telemetry sampler uses to attach itself.  Default [ignore]. *)
}

and instruments = {
  i_engine : Simtime.Engine.t;
  i_net : Messages.payload Netsim.Net.t;
  i_server : Server.t;
  i_clients : Client.t array;
  i_server_clock : Clock.t;
  i_client_clocks : Clock.t array;
  i_read_latency : Stats.Histogram.t;
      (** the driver's read-latency histogram, live while the run executes *)
  i_write_latency : Stats.Histogram.t;
}
(** Read-only handles on every layer of a running cluster.  Consumers must
    not mutate protocol state; sampling through {!Server.snapshot},
    counter registries and clock readings is the intended use. *)

val default_setup : setup
(** Seed 1, one client, {!Config.default}, the V LAN message times
    (m_prop 0.5 ms, m_proc 1 ms), no loss, no faults, 120 s drain, no
    tracing. *)

val v_lan_setup : setup
(** Alias of {!default_setup}, named for readability in experiments. *)

type outcome = {
  metrics : Metrics.t;
  oracle : Oracle.Register_oracle.t;
  store : Vstore.Store.t;
}

val run : setup -> trace:Workload.Trace.t -> outcome
(** Operations or faults naming clients beyond [n_clients - 1] raise
    [Invalid_argument] before the run starts. *)

(** {1 The lease cluster builder} *)

type cluster = {
  world : Messages.payload Harness.world;
  layout : Harness.layout;  (** with the server's and every client's clock *)
  server : Server.t;
  clients : Client.t array;
}

val cluster :
  Messages.payload Harness.world ->
  n_clients:int ->
  config:Config.t ->
  ?n_shards:int ->
  ?shard:int ->
  unit ->
  cluster
(** The lease server of shard [shard] of [n_shards] (defaults: shard 0 of
    1) on the world's store, and [n_clients] clients, each host with its
    own clock.  Clients number requests from
    [Trace.Op_id.origin ~host ~shard], which raises [Invalid_argument]
    for a shard past {!Trace.Op_id.max_shards}. *)

val instruments : cluster -> instruments
(** The cluster's read-only handles, as {!run} passes them to
    [on_instruments]. *)

val drive : cluster -> Workload.Op.t list -> unit
(** {!Harness.drive} through the clients; the oracle checks each read. *)

val metrics : cluster -> Metrics.t
(** Counters summed over the clients, plus the server's. *)
