(** The two Section 6 caches that are not leases, on one server and one
    client: a callback is a promise with no term ({!Callback}), a TTL
    hint a term with no promise ({!Ttl_hints}).

    Under [Callbacks] the server records holders and breaks them before a
    write, giving up on a silent holder after [break_timeout]; the client
    answers breaks, caches its own writes and revalidates every
    [poll_period].  Under [Ttl] the server records no holders, so every
    write commits at once, and the client serves a fetched datum for the
    TTL.  Writes are write-through under both. *)

type policy =
  | Callbacks of { break_timeout : Simtime.Time.Span.t; poll_period : Simtime.Time.Span.t }
  | Ttl of Simtime.Time.Span.t

type setup = {
  seed : int64;
  n_clients : int;
  m_prop : Simtime.Time.Span.t;
  m_proc : Simtime.Time.Span.t;
  loss : float;
  faults : Leases.Sim.fault list;
  drain : Simtime.Time.Span.t;
  policy : policy;
  tracer : Trace.Sink.t;
}

val run : setup -> trace:Workload.Trace.t -> Leases.Sim.outcome
(** Raises [Invalid_argument] naming the driver ([Callback.run] or
    [Ttl_hints.run]) before the engine starts if the setup has no client,
    a non-positive [poll_period], a negative [break_timeout] or a negative
    TTL.  Clock faults are ignored: the clients keep engine time.  Break
    traffic is reported as [approval], fetch and revalidation traffic as
    [extension]. *)
