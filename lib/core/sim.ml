open Simtime
module Host_id = Host.Host_id

include Fault

type setup = {
  seed : int64;
  n_clients : int;
  config : Config.t;
  m_prop : Time.Span.t;
  m_proc : Time.Span.t;
  loss : float;
  faults : fault list;
  drain : Time.Span.t;
  tracer : Trace.Sink.t;
  profiler : Profile.Recorder.t;
  on_instruments : instruments -> unit;
}

and instruments = {
  i_engine : Engine.t;
  i_net : Messages.payload Netsim.Net.t;
  i_server : Server.t;
  i_clients : Client.t array;
  i_server_clock : Clock.t;
  i_client_clocks : Clock.t array;
  i_read_latency : Stats.Histogram.t;
  i_write_latency : Stats.Histogram.t;
}

let default_setup =
  {
    seed = 1L;
    n_clients = 1;
    config = Config.default;
    m_prop = Time.Span.of_ms 0.5;
    m_proc = Time.Span.of_ms 1.;
    loss = 0.;
    faults = [];
    drain = Time.Span.of_sec 120.;
    tracer = Trace.Sink.null;
    profiler = Profile.Recorder.null;
    on_instruments = ignore;
  }

let v_lan_setup = default_setup

type outcome = {
  metrics : Metrics.t;
  oracle : Oracle.Register_oracle.t;
  store : Vstore.Store.t;
}

type cluster = {
  world : Messages.payload Harness.world;
  layout : Harness.layout;
  server : Server.t;
  clients : Client.t array;
}

let cluster world ~n_clients ~config ?(n_shards = 1) ?(shard = 0) () =
  let engine = world.Harness.engine and net = world.net and liveness = world.liveness in
  let tracer = world.tracer in
  let server_clock = Clock.create engine () in
  let layout =
    {
      Harness.n_clients;
      n_shards;
      shard;
      server_clock = Some server_clock;
      client_clocks = Array.init n_clients (fun _ -> Clock.create engine ());
    }
  in
  let server =
    Server.create ~engine ~clock:server_clock ~net ~liveness ~host:(Harness.server_host shard)
      ~clients:(List.init n_clients (Harness.client_host layout))
      ~store:world.store ~config ~tracer ()
  in
  let clients =
    (* Split after the net's draw so adding per-client jitter streams never
       perturbs the loss stream of existing seeds. *)
    Array.init n_clients (fun i ->
        let host = Harness.client_host layout i in
        Client.create ~engine ~clock:layout.client_clocks.(i) ~net ~liveness ~host
          ~server:(Harness.server_host shard) ~rng:(Prng.Splitmix.split world.rng) ~config ~tracer
          ~req_origin:(Trace.Op_id.origin ~host:(Host_id.to_int host) ~shard)
          ())
  in
  { world; layout; server; clients }

let instruments c =
  {
    i_engine = c.world.engine;
    i_net = c.world.net;
    i_server = c.server;
    i_clients = c.clients;
    i_server_clock = Server.clock c.server;
    i_client_clocks = c.layout.client_clocks;
    i_read_latency = c.world.tally.read_latency;
    i_write_latency = c.world.tally.write_latency;
  }

let drive c ops =
  let engine = c.world.engine in
  Harness.drive c.world ~n_clients:(Array.length c.clients) ops
    ~read:(fun op ->
      let start = Engine.now engine in
      Client.read c.clients.(op.client) op.file ~k:(fun r ->
          Harness.read_done c.world (Time.Span.to_sec r.Client.r_latency);
          Oracle.Register_oracle.check_read c.world.oracle ~file:op.file ~version:r.Client.r_version
            ~start ~finish:(Engine.now engine)))
    ~write:(fun op ->
      Client.write c.clients.(op.client) op.file ~k:(fun r ->
          Harness.write_done c.world (Time.Span.to_sec r.Client.w_latency)))

let metrics c =
  let client_sum f = Array.fold_left (fun acc x -> acc + f x) 0 c.clients in
  let server = c.server in
  let handled = Server.messages_handled server in
  Harness.derive ~rtt_s:(Harness.rtt_s c.world)
    {
      (Harness.metrics c.world) with
      cache_hits = client_sum Client.hits;
      cache_misses = client_sum Client.misses;
      msgs_extension = handled Messages.Extension;
      msgs_approval = handled Messages.Approval;
      msgs_installed = handled Messages.Installed;
      msgs_write_transfer = handled Messages.Write_transfer;
      consistency_msgs = Server.consistency_messages server;
      server_total_msgs = Server.messages_handled_total server;
      callbacks_sent = Server.callbacks_sent server;
      commits = Server.commits server;
      wal_io = Vstore.Wal.io_records (Server.wal server);
      write_wait = Server.write_wait server;
      retransmissions = client_sum Client.retransmissions;
      renewals_sent = client_sum Client.renewals_sent;
      approvals_answered = client_sum Client.approvals_answered;
    }

let run setup ~trace =
  if setup.n_clients < 1 then invalid_arg "Sim.run: need at least one client";
  let world =
    Harness.world ~who:"Sim.run" ~tracer:setup.tracer ~profiler:setup.profiler
      ~classify:Messages.trace_class ~rng:(Prng.Splitmix.create ~seed:setup.seed)
      ~loss:setup.loss ~m_prop:setup.m_prop ~m_proc:setup.m_proc ()
  in
  let c = cluster world ~n_clients:setup.n_clients ~config:setup.config () in
  Harness.schedule_faults world c.layout setup.faults;
  drive c (Workload.Trace.ops trace);
  setup.on_instruments (instruments c);
  Harness.run world ~until:(Harness.horizon trace ~drain:setup.drain);
  { metrics = metrics c; oracle = world.oracle; store = world.store }
