open Simtime
module Host_id = Host.Host_id

type setup = {
  seed : int64;
  n_clients : int;
  n_shards : int;
  vnodes : int;
  config : Leases.Config.t;
  m_prop : Time.Span.t;
  m_proc : Time.Span.t;
  loss : float;
  faults : Leases.Sim.fault list;
  drain : Time.Span.t;
  tracer : Trace.Sink.t;
  telemetry_interval_s : float option;
  profilers : Profile.Recorder.t array;
}

let default_setup =
  {
    seed = 1L;
    n_clients = 1;
    n_shards = 4;
    vnodes = 64;
    config = Leases.Config.default;
    m_prop = Time.Span.of_ms 0.5;
    m_proc = Time.Span.of_ms 1.;
    loss = 0.;
    faults = [];
    drain = Time.Span.of_sec 120.;
    tracer = Trace.Sink.null;
    telemetry_interval_s = None;
    profilers = [||];
  }

(* Host layout: shard s's server is host s; client i is host n_shards + i. *)
let server_host s = Host_id.of_int s
let client_host setup i = Host_id.of_int (setup.n_shards + i)
let server_hosts setup = List.init setup.n_shards (fun s -> Host_id.to_int (server_host s))

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

(* A shard server multicasts installed-file refreshes only for the files
   it owns; splitting the configured population keeps the global refresh
   traffic identical to the single-server deployment. *)
let config_for_shard setup map s =
  match setup.config.Leases.Config.installed with
  | None -> setup.config
  | Some inst ->
    let files = List.filter (fun f -> Shard_map.owner map f = s) inst.Leases.Config.files in
    {
      setup.config with
      Leases.Config.installed =
        (if files = [] then None else Some { inst with Leases.Config.files });
    }

let load_of_server ~shard ~sim_duration server =
  let extension = Leases.Server.messages_handled server Leases.Messages.Extension in
  let approval = Leases.Server.messages_handled server Leases.Messages.Approval in
  let installed = Leases.Server.messages_handled server Leases.Messages.Installed in
  let shard_consistency = Leases.Server.consistency_messages server in
  {
    sl_shard = shard;
    sl_host = Host_id.to_int (server_host shard);
    sl_extension_msgs = extension;
    sl_approval_msgs = approval;
    sl_installed_msgs = installed;
    sl_consistency_msgs = shard_consistency;
    sl_total_msgs = Leases.Server.messages_handled_total server;
    sl_commits = Leases.Server.commits server;
    sl_consistency_rate =
      (if sim_duration <= 0. then 0. else float_of_int shard_consistency /. sim_duration);
  }

type part = {
  p_shard : int;
  p_metrics : Leases.Metrics.t;
  p_load : shard_load;
  p_oracle : Oracle.Register_oracle.t;
  p_telemetry : Telemetry.Sampler.t option;
  p_events : Trace.Event.t list;
  p_rtt_s : float;
}

type split_outcome = {
  sp_metrics : Leases.Metrics.t;
  sp_per_shard : shard_load array;
  sp_map : Shard_map.t;
  sp_telemetry : Shard_telemetry.t option;
  sp_parts : part array;
}

(* One shard as a complete, isolated simulation: its own engine, clocks,
   network, liveness/partition, store, WAL (inside the server), trace
   buffer, telemetry sampler and profile recorder.  Nothing in here
   touches state shared with another part, so parts may run on separate
   domains; [rng] was pre-split from the master seed before any domain
   started.  All [n_clients] client machines exist in every part — an op
   reaches the part owning its file, so a client idle on this shard just
   contributes nothing.  The harness applies client-machine faults in
   every part but traces them only from part 0, and server faults only in
   the part that runs the shard. *)
let run_part setup ~map ~rng ~horizon ~ops s =
  let buf = if Trace.Sink.enabled setup.tracer then Some (Trace.Sink.buffer ()) else None in
  let tracer = match buf with Some b -> Trace.Sink.buffer_sink b | None -> Trace.Sink.null in
  let profiler =
    if s < Array.length setup.profilers then setup.profilers.(s) else Profile.Recorder.null
  in
  let world =
    Leases.Harness.world ~who:"Deploy.run_split" ~tracer ~profiler
      ~classify:Leases.Messages.trace_class ~rng ~loss:setup.loss ~m_prop:setup.m_prop
      ~m_proc:setup.m_proc ()
  in
  let c =
    Leases.Sim.cluster world ~n_clients:setup.n_clients ~config:(config_for_shard setup map s)
      ~n_shards:setup.n_shards ~shard:s ()
  in
  Leases.Harness.schedule_faults world c.layout setup.faults;
  Leases.Sim.drive c ops;
  let sampler =
    Option.map
      (fun interval_s ->
        let sampler = Telemetry.Sampler.create ~interval_s () in
        Telemetry.Sampler.attach sampler (Leases.Sim.instruments c);
        sampler)
      setup.telemetry_interval_s
  in
  Leases.Harness.run world ~until:horizon;
  Option.iter Telemetry.Sampler.finalize sampler;
  let metrics = Leases.Sim.metrics c in
  {
    p_shard = s;
    p_metrics = metrics;
    p_load = load_of_server ~shard:s ~sim_duration:metrics.Leases.Metrics.sim_duration c.server;
    p_oracle = world.oracle;
    p_telemetry = sampler;
    p_events = (match buf with Some b -> Trace.Sink.buffer_contents b | None -> []);
    p_rtt_s = Leases.Harness.rtt_s world;
  }

(* Deterministic merge: every integer field sums; histograms fold with
   [Stats.Histogram.merge] in shard order, so float accumulation order is
   fixed; derived fields are recomputed from the merged raw values by
   [Leases.Harness.derive].  Every part ran to the same horizon, so
   [sim_duration] is common. *)
let merge_split_metrics ~rtt_s parts =
  let sum f = Array.fold_left (fun acc (p : part) -> acc + f p.p_metrics) 0 parts in
  let merged_hist f =
    let h = Stats.Histogram.create () in
    Array.iter (fun (p : part) -> Stats.Histogram.merge h (f p.p_metrics)) parts;
    h
  in
  let open Leases.Metrics in
  Leases.Harness.derive ~rtt_s
    {
      (parts.(0).p_metrics) with
      ops_issued = sum (fun m -> m.ops_issued);
      reads_completed = sum (fun m -> m.reads_completed);
      writes_completed = sum (fun m -> m.writes_completed);
      temp_ops = sum (fun m -> m.temp_ops);
      dropped_ops = sum (fun m -> m.dropped_ops);
      cache_hits = sum (fun m -> m.cache_hits);
      cache_misses = sum (fun m -> m.cache_misses);
      msgs_extension = sum (fun m -> m.msgs_extension);
      msgs_approval = sum (fun m -> m.msgs_approval);
      msgs_installed = sum (fun m -> m.msgs_installed);
      msgs_write_transfer = sum (fun m -> m.msgs_write_transfer);
      consistency_msgs = sum (fun m -> m.consistency_msgs);
      server_total_msgs = sum (fun m -> m.server_total_msgs);
      callbacks_sent = sum (fun m -> m.callbacks_sent);
      commits = sum (fun m -> m.commits);
      wal_io = sum (fun m -> m.wal_io);
      read_latency = merged_hist (fun m -> m.read_latency);
      write_latency = merged_hist (fun m -> m.write_latency);
      write_wait = merged_hist (fun m -> m.write_wait);
      retransmissions = sum (fun m -> m.retransmissions);
      renewals_sent = sum (fun m -> m.renewals_sent);
      approvals_answered = sum (fun m -> m.approvals_answered);
      net_sent = sum (fun m -> m.net_sent);
      net_dropped_loss = sum (fun m -> m.net_dropped_loss);
      net_dropped_partition = sum (fun m -> m.net_dropped_partition);
      net_dropped_down = sum (fun m -> m.net_dropped_down);
      oracle_reads = sum (fun m -> m.oracle_reads);
      oracle_violations = sum (fun m -> m.oracle_violations);
      staleness = merged_hist (fun m -> m.staleness);
    }

(* Merge the per-part streams by (timestamp, shard) into [push].  Each
   part's buffer is already time-ordered, so repeatedly emitting the
   earliest head — ties to the lowest shard — yields exactly the stable sort
   of the shard-ordered concatenation, without building either list.  A
   scan of the part cursors per event: parts are few (one per shard). *)
let merge_streams (streams : Trace.Event.t list array) push =
  let cursors = Array.copy streams in
  let rec loop () =
    let best = ref 0 in
    for s = 1 to Array.length cursors - 1 do
      match cursors.(s), cursors.(!best) with
      | _ :: _, [] -> best := s
      | e :: _, b :: _ when Float.compare e.Trace.Event.at b.Trace.Event.at < 0 -> best := s
      | _ -> ()
    done;
    match cursors.(!best) with
    | [] -> ()
    | e :: rest ->
      push e;
      cursors.(!best) <- rest;
      loop ()
  in
  if Array.length cursors > 0 then loop ()

let run_split ?(domains = 1) setup ~trace =
  if setup.n_clients < 1 then invalid_arg "Deploy.run_split: need at least one client";
  if setup.n_shards < 1 then invalid_arg "Deploy.run_split: need at least one shard";
  if setup.n_shards > Trace.Op_id.max_shards then
    invalid_arg
      (Printf.sprintf "Deploy.run_split: %d shards, at most %d fit the request-id layout"
         setup.n_shards Trace.Op_id.max_shards);
  if domains < 1 then invalid_arg "Deploy.run_split: need at least one domain";
  Leases.Harness.check_faults ~who:"Deploy.run_split" ~n_clients:setup.n_clients setup.faults;
  let map = Shard_map.create ~vnodes:setup.vnodes ~seed:setup.seed ~shards:setup.n_shards () in
  (* RNG streams pre-split in shard order before any domain spawns: the
     draw sequence is fixed by construction, so domain scheduling cannot
     perturb seeded determinism. *)
  let master = Prng.Splitmix.create ~seed:setup.seed in
  let rngs = Array.init setup.n_shards (fun _ -> Prng.Splitmix.split master) in
  let part_ops = Array.make setup.n_shards [] in
  List.iter
    (fun (op : Workload.Op.t) ->
      if op.client < 0 || op.client >= setup.n_clients then
        invalid_arg "Deploy.run_split: trace uses a client index outside the cluster";
      let s = Shard_map.owner map op.file in
      part_ops.(s) <- op :: part_ops.(s))
    (Workload.Trace.ops trace);
  let part_ops = Array.map List.rev part_ops in
  let horizon = Leases.Harness.horizon trace ~drain:setup.drain in
  let run_part s = run_part setup ~map ~rng:rngs.(s) ~horizon ~ops:part_ops.(s) s in
  let parts =
    let n_dom = Stdlib.min domains setup.n_shards in
    if n_dom <= 1 then Array.init setup.n_shards run_part
    else begin
      (* Work-stealing over the shard indices: each slot is written by
         exactly one domain and read only after the joins, which is the
         happens-before edge that publishes the parts. *)
      let results = Array.make setup.n_shards None in
      let next = Atomic.make 0 in
      let worker () =
        let rec loop () =
          let s = Atomic.fetch_and_add next 1 in
          if s < setup.n_shards then begin
            results.(s) <- Some (run_part s);
            loop ()
          end
        in
        loop ()
      in
      let spawned = Array.init (n_dom - 1) (fun _ -> Domain.spawn worker) in
      worker ();
      Array.iter Domain.join spawned;
      Array.map (function Some p -> p | None -> assert false) results
    end
  in
  (* Replaying into the caller's sink feeds whatever it wired up — a JSONL
     writer, a checker buffer, a critical-path analyzer tee. *)
  if Trace.Sink.enabled setup.tracer then begin
    merge_streams (Array.map (fun p -> p.p_events) parts) setup.tracer.Trace.Sink.push;
    Trace.Sink.flush setup.tracer
  end;
  let sp_telemetry =
    Option.map
      (fun _ -> Shard_telemetry.gather (Array.map (fun p -> Option.get p.p_telemetry) parts))
      setup.telemetry_interval_s
  in
  {
    sp_metrics = merge_split_metrics ~rtt_s:parts.(0).p_rtt_s parts;
    sp_per_shard = Array.map (fun p -> p.p_load) parts;
    sp_map = map;
    sp_telemetry;
    sp_parts = parts;
  }

let residual_params ?tolerance ?warmup_s setup =
  let term =
    match setup.config.Leases.Config.term_policy with
    | Leases.Term_policy.Zero -> Analytic.Model.Finite 0.
    | Leases.Term_policy.Fixed span -> Analytic.Model.Finite (Time.Span.to_sec span)
    | Leases.Term_policy.Infinite -> Analytic.Model.Infinite
    | Leases.Term_policy.Adaptive a -> Analytic.Model.Finite (Time.Span.to_sec a.Leases.Term_policy.max_term)
  in
  Telemetry.Residual.make_params ?tolerance ?warmup_s ~n_clients:setup.n_clients
    ~m_prop_s:(Time.Span.to_sec setup.m_prop) ~m_proc_s:(Time.Span.to_sec setup.m_proc)
    ~epsilon_s:(Time.Span.to_sec setup.config.Leases.Config.skew_allowance)
    ~term ()

let split_telemetry_report setup outcome =
  Option.map
    (fun windows -> Shard_telemetry.report windows ~params:(residual_params setup))
    outcome.sp_telemetry
