type setup = {
  seed : int64;
  n_clients : int;
  m_prop : Simtime.Time.Span.t;
  m_proc : Simtime.Time.Span.t;
  loss : float;
  faults : Leases.Sim.fault list;
  drain : Simtime.Time.Span.t;
  break_timeout : Simtime.Time.Span.t;
  poll_period : Simtime.Time.Span.t;
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
    break_timeout = Simtime.Time.Span.of_sec 3.;
    poll_period = Simtime.Time.Span.of_sec 600.;
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
      policy =
        Unleased.Callbacks { break_timeout = setup.break_timeout; poll_period = setup.poll_period };
      tracer = setup.tracer;
    }
    ~trace
