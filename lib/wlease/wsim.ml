open Simtime

type setup = {
  seed : int64;
  n_clients : int;
  term : Time.Span.t;
  wconfig : Wclient.wconfig;
  m_prop : Time.Span.t;
  m_proc : Time.Span.t;
  loss : float;
  faults : Leases.Sim.fault list;
  drain : Time.Span.t;
}

let default_setup =
  {
    seed = 1L;
    n_clients = 1;
    term = Time.Span.of_sec 10.;
    wconfig = Wclient.default_wconfig;
    m_prop = Time.Span.of_ms 0.5;
    m_proc = Time.Span.of_ms 1.;
    loss = 0.;
    faults = [];
    drain = Time.Span.of_sec 120.;
  }

type outcome = {
  metrics : Leases.Metrics.t;
  oracle : Oracle.Register_oracle.t;
  store : Vstore.Store.t;
  dirty_reads : int;
  writes_lost : int;
  flushes_accepted : int;
  flushes_rejected : int;
}

let run setup ~trace =
  if setup.n_clients < 1 then invalid_arg "Wsim.run: need at least one client";
  let w =
    Leases.Harness.world ~who:"Wsim.run" ~rng:(Prng.Splitmix.create ~seed:setup.seed)
      ~loss:setup.loss ~m_prop:setup.m_prop ~m_proc:setup.m_proc ()
  in
  let engine = w.engine in
  let server_clock = Clock.create engine () in
  let layout =
    {
      (Leases.Harness.single_server ~n_clients:setup.n_clients) with
      server_clock = Some server_clock;
      client_clocks = Array.init setup.n_clients (fun _ -> Clock.create engine ());
    }
  in
  let server_host = Leases.Harness.server_host 0 in
  let store = w.store and oracle = w.oracle in
  let server =
    Wserver.create ~engine ~clock:server_clock ~net:w.net ~liveness:w.liveness
      ~host:server_host ~store ~term:setup.term ()
  in
  let clients =
    Array.init setup.n_clients (fun i ->
        Wclient.create ~engine ~clock:layout.client_clocks.(i) ~net:w.net ~liveness:w.liveness
          ~host:(Leases.Harness.client_host layout i) ~server:server_host ~config:setup.wconfig ())
  in
  Leases.Harness.schedule_faults w layout setup.faults;
  let dirty_reads = ref 0 in
  Leases.Harness.drive w ~n_clients:setup.n_clients (Workload.Trace.ops trace)
    ~read:(fun op ->
      let start = Engine.now engine in
      Wclient.read clients.(op.client) op.file ~k:(fun r ->
          Leases.Harness.read_done w (Time.Span.to_sec r.Wclient.r_latency);
          if r.Wclient.r_dirty then incr dirty_reads
          else
            Oracle.Register_oracle.check_read oracle ~file:op.file ~version:r.Wclient.r_version
              ~start ~finish:(Engine.now engine)))
    ~write:(fun op ->
      Wclient.write clients.(op.client) op.file ~k:(fun r ->
          Leases.Harness.write_done w (Time.Span.to_sec r.Wclient.w_latency)));
  Leases.Harness.run w ~until:(Leases.Harness.horizon trace ~drain:setup.drain);

  let sum f = Array.fold_left (fun acc c -> acc + f c) 0 clients in
  let ext = Wserver.messages_extension server in
  let recall = Wserver.messages_recall server in
  let flush = Wserver.messages_flush server in
  (* A write under a held lease costs nothing, so the whole write latency
     is the consistency share: derive against a zero round trip. *)
  let metrics =
    Leases.Harness.derive ~rtt_s:0.
      {
        (Leases.Harness.metrics w) with
        cache_hits = sum Wclient.hits;
        cache_misses = sum Wclient.misses;
        msgs_extension = ext;
        msgs_approval = recall;
        msgs_write_transfer = flush;
        consistency_msgs = ext + recall;
        server_total_msgs = ext + recall + flush;
        callbacks_sent = Wserver.recalls_sent server;
        commits = Wserver.commits server;
        write_wait = Wserver.grant_wait server;
        retransmissions = sum Wclient.retransmissions;
        renewals_sent = sum Wclient.flushes_sent;
        approvals_answered = sum Wclient.recalls_answered;
      }
  in
  {
    metrics;
    oracle;
    store;
    dirty_reads = !dirty_reads;
    writes_lost = sum Wclient.writes_lost;
    flushes_accepted = Wserver.flushes_accepted server;
    flushes_rejected = Wserver.flushes_rejected server;
  }
