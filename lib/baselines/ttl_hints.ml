type setup = {
  seed : int64;
  n_clients : int;
  m_prop : Simtime.Time.Span.t;
  m_proc : Simtime.Time.Span.t;
  loss : float;
  faults : Leases.Sim.fault list;
  drain : Simtime.Time.Span.t;
  ttl : Simtime.Time.Span.t;
  tracer : Trace.Sink.t;
}

let default_setup =
  {
    seed = 1L;
    n_clients = 1;
    m_prop = Simtime.Time.Span.of_ms 0.5;
    m_proc = Simtime.Time.Span.of_ms 1.;
    loss = 0.;
    faults = [];
    drain = Simtime.Time.Span.of_sec 120.;
    ttl = Simtime.Time.Span.of_sec 10.;
    tracer = Trace.Sink.null;
  }

let run setup ~trace =
  Unleased.run
    {
      Unleased.seed = setup.seed;
      n_clients = setup.n_clients;
      m_prop = setup.m_prop;
      m_proc = setup.m_proc;
      loss = setup.loss;
      faults = setup.faults;
      drain = setup.drain;
      policy = Unleased.Ttl setup.ttl;
      tracer = setup.tracer;
    }
    ~trace
