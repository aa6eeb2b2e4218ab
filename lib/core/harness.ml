open Simtime
module Host_id = Host.Host_id

type tally = {
  read_latency : Stats.Histogram.t;
  write_latency : Stats.Histogram.t;
  mutable ops_issued : int;
  mutable reads_completed : int;
  mutable writes_completed : int;
  mutable temp_ops : int;
}

let tally () =
  {
    read_latency = Stats.Histogram.create ();
    write_latency = Stats.Histogram.create ();
    ops_issued = 0;
    reads_completed = 0;
    writes_completed = 0;
    temp_ops = 0;
  }

type 'a world = {
  who : string;
  engine : Engine.t;
  tracer : Trace.Sink.t;
  liveness : Host.Liveness.t;
  partition : Netsim.Partition.t;
  net : 'a Netsim.Net.t;
  rng : Prng.Splitmix.t;
  store : Vstore.Store.t;
  oracle : Oracle.Register_oracle.t;
  tally : tally;
}

let world ~who ?(tracer = Trace.Sink.null) ?(profiler = Profile.Recorder.null) ?classify ~rng
    ~loss ~m_prop ~m_proc () =
  let engine = Engine.create () in
  Engine.set_profiler engine profiler;
  (* When both profiling and tracing are live, bracket every sink push so
     emission cost lands in the [trace/emit] center rather than polluting
     whichever subsystem happened to emit. *)
  let tracer =
    if Profile.Recorder.enabled profiler then
      Trace.Sink.observe tracer
        ~enter:(fun () -> Profile.Recorder.enter profiler Profile.Center.Trace_emit)
        ~leave:(fun () -> Profile.Recorder.exit profiler)
    else tracer
  in
  Engine.set_tracer engine tracer;
  let liveness = Host.Liveness.create () in
  let partition = Netsim.Partition.create () in
  let net =
    Netsim.Net.create engine ~liveness ~partition ~rng:(Prng.Splitmix.split rng) ~loss ~tracer
      ?classify ~prop_delay:m_prop ~proc_delay:m_proc ()
  in
  let store = Vstore.Store.create () in
  let oracle = Oracle.Register_oracle.create ~store in
  { who; engine; tracer; liveness; partition; net; rng; store; oracle; tally = tally () }

let rtt_s w = Time.Span.to_sec (Netsim.Net.unicast_rtt w.net)
let horizon trace ~drain = Time.add Time.zero (Time.Span.add (Workload.Trace.duration trace) drain)

let run w ~until =
  let prof = Engine.profiler w.engine in
  if Profile.Recorder.enabled prof then Profile.Recorder.start prof;
  Engine.run ~until w.engine;
  if Profile.Recorder.enabled prof then Profile.Recorder.stop prof;
  Trace.Sink.flush w.tracer

(* --- faults -------------------------------------------------------- *)

type layout = {
  n_clients : int;
  n_shards : int;
  shard : int;
  server_clock : Clock.t option;
  client_clocks : Clock.t array;
}

let single_server ~n_clients =
  { n_clients; n_shards = 1; shard = 0; server_clock = None; client_clocks = [||] }

let server_host s = Host_id.of_int s
let client_host l i = Host_id.of_int (l.n_shards + i)

(* What a fault does, to whom: the one place the fault vocabulary is
   taken apart.  Indices are checked here, before anything is scheduled.
   A clock action carries what it does to the target's clock and the
   trace event it emits for the target's host. *)
type target = Client of int | Shard of int

type action =
  | Crash of Time.Span.t
  | Isolate of Time.Span.t
  | Set_clock of (Clock.t -> unit) * (int -> Trace.Event.kind)

let plan ~who ~n_clients (fault : Fault.fault) =
  let bad what =
    invalid_arg (Printf.sprintf "%s: fault %s names %s" who (Fault.fault_to_spec fault) what)
  in
  let client c =
    if c < 0 || c >= n_clients then
      bad (Printf.sprintf "client %d outside the cluster of %d" c n_clients);
    Client c
  in
  let shard s = if s < 0 then bad (Printf.sprintf "negative shard %d" s) else Shard s in
  let drift d =
    Set_clock
      ((fun c -> Clock.set_drift c d), fun host -> Trace.Event.Clock_drift { host; drift = d })
  in
  let step s =
    let step_s = Time.Span.to_sec s in
    Set_clock ((fun c -> Clock.step c s), fun host -> Trace.Event.Clock_step { host; step_s })
  in
  match fault with
  | Crash_client { client = c; at; duration } -> (at, [ client c ], Crash duration)
  | Crash_server { at; duration } -> (at, [ Shard 0 ], Crash duration)
  | Crash_shard { shard = s; at; duration } -> (at, [ shard s ], Crash duration)
  | Partition_clients { clients; at; duration } -> (at, List.map client clients, Isolate duration)
  | Client_drift { client = c; at; drift = d } -> (at, [ client c ], drift d)
  | Client_step { client = c; at; step = st } -> (at, [ client c ], step st)
  | Server_drift { shard = s; at; drift = d } -> (at, [ shard s ], drift d)
  | Server_step { shard = s; at; step = st } -> (at, [ shard s ], step st)

let check_faults ~who ~n_clients faults =
  List.iter (fun f -> ignore (plan ~who ~n_clients f)) faults

(* A target's host, its clock if the layout has clocks, and whether this
   simulation traces it; [None] for a server another simulation runs.
   Every simulation holds every client machine, so in a run split into
   one simulation per shard only the first traces what happens to them. *)
let resolve l target =
  match target with
  | Client c ->
    let clock = if Array.length l.client_clocks = 0 then None else Some l.client_clocks.(c) in
    Some (client_host l c, clock, l.shard = 0)
  | Shard s ->
    if s mod l.n_shards = l.shard then Some (server_host l.shard, l.server_clock, true) else None

let schedule_faults w l faults =
  let plans = List.map (plan ~who:w.who ~n_clients:l.n_clients) faults in
  let at_time at f = ignore (Engine.schedule_at w.engine at f) in
  let after span f = ignore (Engine.schedule_after w.engine span f) in
  let note traced ev =
    if traced && Trace.Sink.enabled w.tracer then
      Trace.Sink.emit w.tracer (Time.to_sec (Engine.now w.engine)) (ev ())
  in
  List.iter
    (fun (at, targets, action) ->
      let targets = List.filter_map (resolve l) targets in
      match action with
      | Crash duration ->
        List.iter
          (fun (host, _, traced) ->
            let id = Host_id.to_int host in
            at_time at (fun () ->
                note traced (fun () -> Trace.Event.Crash { host = id });
                Host.Liveness.crash w.liveness host;
                after duration (fun () ->
                    note traced (fun () -> Trace.Event.Recover { host = id });
                    Host.Liveness.recover w.liveness host)))
          targets
      | Isolate duration ->
        at_time at (fun () ->
            Netsim.Partition.isolate w.partition (List.map (fun (host, _, _) -> host) targets);
            after duration (fun () -> Netsim.Partition.heal w.partition))
      | Set_clock (apply, ev) ->
        List.iter
          (fun (host, clock, traced) ->
            Option.iter
              (fun clock ->
                at_time at (fun () ->
                    note traced (fun () -> ev (Host_id.to_int host));
                    apply clock))
              clock)
          targets)
    plans

(* --- driving a trace ----------------------------------------------- *)

let read_done w latency_s =
  w.tally.reads_completed <- w.tally.reads_completed + 1;
  Stats.Histogram.add w.tally.read_latency latency_s

let write_done w latency_s =
  w.tally.writes_completed <- w.tally.writes_completed + 1;
  Stats.Histogram.add w.tally.write_latency latency_s

let drive w ~n_clients ops ~read ~write =
  let t = w.tally in
  (* Validate eagerly so a malformed trace still fails before the run. *)
  List.iter
    (fun (op : Workload.Op.t) ->
      if op.client < 0 || op.client >= n_clients then
        invalid_arg (w.who ^ ": trace uses a client index outside the cluster"))
    ops;
  (* Drive the trace lazily: ops are time-ordered ([Workload.Trace.create]
     sorts), so each op's callback issues it and schedules the next.  The
     engine's heap then holds only in-flight work — deliveries, timers, the
     one cursor event — instead of the entire remaining trace; with 100k
     pre-scheduled ops every pop paid a ~17-level sift over cold memory
     before any protocol work began. *)
  let prof = Engine.profiler w.engine in
  let rec chain = function
    | [] -> ()
    | (op : Workload.Op.t) :: rest ->
      ignore
        (Engine.schedule_at w.engine op.at (fun () ->
             if Profile.Recorder.enabled prof then
               Profile.Recorder.mark prof Profile.Center.Client_op;
             if op.temporary then t.temp_ops <- t.temp_ops + 1
             else begin
               t.ops_issued <- t.ops_issued + 1;
               match op.kind with Workload.Op.Read -> read op | Workload.Op.Write -> write op
             end;
             chain rest))
  in
  chain ops

(* --- metrics ------------------------------------------------------- *)

let metrics w =
  let t = w.tally and oracle = w.oracle in
  {
    Metrics.sim_duration = Time.Span.to_sec (Time.Span.since_epoch (Engine.now w.engine));
    ops_issued = t.ops_issued;
    reads_completed = t.reads_completed;
    writes_completed = t.writes_completed;
    temp_ops = t.temp_ops;
    dropped_ops = t.ops_issued - t.reads_completed - t.writes_completed;
    cache_hits = 0;
    cache_misses = 0;
    hit_ratio = 0.;
    msgs_extension = 0;
    msgs_approval = 0;
    msgs_installed = 0;
    msgs_write_transfer = 0;
    consistency_msgs = 0;
    server_total_msgs = 0;
    consistency_msg_rate = 0.;
    callbacks_sent = 0;
    commits = 0;
    wal_io = 0;
    read_latency = t.read_latency;
    write_latency = t.write_latency;
    write_wait = Stats.Histogram.create ();
    mean_read_delay = 0.;
    mean_write_delay_added = 0.;
    mean_op_delay = 0.;
    retransmissions = 0;
    renewals_sent = 0;
    approvals_answered = 0;
    net_sent = Netsim.Net.sent w.net;
    net_dropped_loss = Netsim.Net.dropped_loss w.net;
    net_dropped_partition = Netsim.Net.dropped_partition w.net;
    net_dropped_down = Netsim.Net.dropped_down w.net;
    oracle_reads = Oracle.Register_oracle.reads_checked oracle;
    oracle_violations = Oracle.Register_oracle.violations oracle;
    staleness = Oracle.Register_oracle.staleness oracle;
  }

let derive ~rtt_s (m : Metrics.t) =
  let hits = m.cache_hits and misses = m.cache_misses in
  let mean_write_added = Float.max 0. (Stats.Histogram.mean m.write_latency -. rtt_s) in
  let reads = Stats.Histogram.count m.read_latency in
  let writes = Stats.Histogram.count m.write_latency in
  {
    m with
    hit_ratio =
      (if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses));
    consistency_msg_rate =
      (if m.sim_duration <= 0. then 0.
       else float_of_int m.consistency_msgs /. m.sim_duration);
    mean_read_delay = Stats.Histogram.mean m.read_latency;
    mean_write_delay_added = mean_write_added;
    mean_op_delay =
      (if reads + writes = 0 then 0.
       else
         ((Stats.Histogram.mean m.read_latency *. float_of_int reads)
         +. (mean_write_added *. float_of_int writes))
         /. float_of_int (reads + writes));
  }
