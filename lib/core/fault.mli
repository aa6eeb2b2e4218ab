(** The fault vocabulary shared by every simulation driver, and its
    [--fault] command-line grammar.  {!Leases.Sim} re-exports all of it;
    {!Harness.schedule_faults} is the one injector that applies it. *)

type fault =
  | Crash_client of { client : int; at : Simtime.Time.t; duration : Simtime.Time.Span.t }
  | Crash_server of { at : Simtime.Time.t; duration : Simtime.Time.Span.t }
      (** crash the server of shard 0 *)
  | Crash_shard of { shard : int; at : Simtime.Time.t; duration : Simtime.Time.Span.t }
      (** crash the server owning the given shard; the index resolves
          modulo the shard count, so a single-server driver crashes its one
          server whatever the index *)
  | Partition_clients of { clients : int list; at : Simtime.Time.t; duration : Simtime.Time.Span.t }
      (** cut the listed clients off from the rest (servers included) *)
  | Client_drift of { client : int; at : Simtime.Time.t; drift : float }
  | Server_drift of { shard : int; at : Simtime.Time.t; drift : float }
      (** drift the clock of the server owning shard [shard], with the same
          modulo resolution as {!Crash_shard}.  The spec grammar's
          two-argument form ([server-drift=AT,RATE]) parses as shard 0, so
          pre-sharding schedules replay unchanged. *)
  | Client_step of { client : int; at : Simtime.Time.t; step : Simtime.Time.Span.t }
  | Server_step of { shard : int; at : Simtime.Time.t; step : Simtime.Time.Span.t }
      (** step the owning server's clock; same shard resolution and
          two-argument default as {!Server_drift} *)

val fault_to_spec : fault -> string
(** The [--fault] command-line form of a fault
    (e.g. ["server-drift=40,-0.5"]), as accepted by [leases-sim] and
    printed by the campaign harness's shrunk reproducers. *)

val fault_of_spec : string -> (fault, string) result
(** Inverse of {!fault_to_spec}; round-trips every fault (times carry
    microsecond precision).  Client and shard indices must be
    non-negative integers; anything else is a [bad fault spec] error. *)

val pp_fault : Format.formatter -> fault -> unit
