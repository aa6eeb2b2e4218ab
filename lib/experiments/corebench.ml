(* Simulation-core benchmarks: the event-queue and lease-table hot paths,
   and end-to-end simulated-seconds-per-wallclock-second throughput.  Shared
   by bench/main.ml (human-readable) and bin/bench_core.ml (BENCH_core.json)
   so both report the same measurement. *)

open Simtime

type micro = { ops : int; elapsed_s : float; ops_per_sec : float }

type queue_growth = {
  g_micro : micro;
  max_slots : int;  (** peak occupied heap slots — equals live under eager cancel *)
  live_target : int;  (** live events maintained throughout *)
}

type throughput = {
  n_clients : int;
  sim_seconds : float;
  wall_seconds : float;
  sim_sec_per_wall_sec : float;
}

let finish ~timer ~started ~ops =
  let elapsed_s = Float.max 1e-9 (timer () -. started) in
  { ops; elapsed_s; ops_per_sec = float_of_int ops /. elapsed_s }

(* One op = one push plus its eventual pop, over a churning 1k-event window. *)
let event_queue_push_pop ~timer ~ops =
  let q = Event_queue.create () in
  let window = 1_000 in
  for i = 0 to window - 1 do
    ignore (Event_queue.push q ~at:(Time.of_us ((i * 7919) mod 1_000_000)) i)
  done;
  let started = timer () in
  for i = 0 to ops - 1 do
    ignore (Event_queue.pop q);
    ignore (Event_queue.push q ~at:(Time.of_us (1_000_000 + (i * 7919 mod 1_000_000))) i)
  done;
  let rec drain () = match Event_queue.pop q with Some _ -> drain () | None -> () in
  drain ();
  finish ~timer ~started ~ops

(* The renewal/retry pattern: almost every scheduled event is cancelled and
   replaced before it fires.  One op = cancel + push (+ occasional pop).
   Peak slot occupancy demonstrates that eager cancellation keeps the heap
   at exactly the live count. *)
let event_queue_cancel_heavy ~timer ~ops =
  let q = Event_queue.create () in
  let live_target = 1_024 in
  let handles = Array.init live_target (fun i -> Event_queue.push q ~at:(Time.of_us i) i) in
  let max_slots = ref (Event_queue.occupied_slots q) in
  let started = timer () in
  for i = 0 to ops - 1 do
    let slot = i mod live_target in
    Event_queue.cancel handles.(slot);
    handles.(slot) <- Event_queue.push q ~at:(Time.of_us (live_target + i)) i;
    if i mod 64 = 0 then begin
      let slots = Event_queue.occupied_slots q in
      if slots > !max_slots then max_slots := slots
    end
  done;
  let g_micro = finish ~timer ~started ~ops in
  { g_micro; max_slots = !max_slots; live_target }

(* One op = record + live-deadline scan (+ periodic holder removal and file
   drop), over 1k files x 32 holders — the server's per-message pattern. *)
let lease_table_churn ~timer ~ops =
  let table = Leases.Lease_table.create () in
  let files = Array.init 1_000 Vstore.File_id.of_int in
  let holders = Array.init 32 (fun i -> Host.Host_id.of_int (i + 1)) in
  let started = timer () in
  for i = 0 to ops - 1 do
    let file = files.((i * 7919) mod Array.length files) in
    let holder = holders.(i mod Array.length holders) in
    let now = Time.of_us i in
    Leases.Lease_table.record table file holder (Leases.Lease.At (Time.add now (Time.Span.of_sec 10.)));
    ignore (Leases.Lease_table.live_deadline table file ~now ~init:(Leases.Lease.At now));
    if i mod 4 = 3 then Leases.Lease_table.remove_holder table file holder;
    if i mod 64 = 63 then Leases.Lease_table.drop_file table file
  done;
  finish ~timer ~started ~ops

type trace_emit = { null_sink : micro; ring_sink : micro; ring_dropped : int }

(* One op = one guarded emit attempt at a representative hot-path call
   site (a cache-hit event).  The null sink measures the cost left on the
   untraced fast path — one load and one branch, no allocation; the ring
   sink measures tracing at full bore with a bounded buffer. *)
let trace_emit ~timer ~ops =
  let measure sink =
    let started = timer () in
    for i = 0 to ops - 1 do
      if Trace.Sink.enabled sink then
        Trace.Sink.emit sink
          (float_of_int i *. 1e-6)
          (Trace.Event.Cache_hit
             { host = 1 + (i mod 7); file = i mod 1_000; version = i; local_now = float_of_int i *. 1e-6 })
    done;
    finish ~timer ~started ~ops
  in
  let null_sink = measure Trace.Sink.null in
  let ring = Trace.Sink.ring ~capacity:65_536 in
  let ring_sink = measure (Trace.Sink.ring_sink ring) in
  { null_sink; ring_sink; ring_dropped = Trace.Sink.ring_dropped ring }

type classify_bench = { classify_disabled : micro; classify_enabled : micro }

(* One op = one [Net]-style traced send point: the payload classifier that
   computes the typed message kind and correlation id runs only inside the
   enabled-tracer branch, so with tracing off the op-id plumbing leaves the
   same single load and branch as every other guard here — no classification,
   no allocation.  The sink is read through [Sys.opaque_identity] so the
   guard cannot be hoisted out of the loop. *)
let classify_point_once ~timer ~ops sink =
  let payloads =
    Array.init 8 (fun i ->
        Leases.Messages.Write_request
          { req = Trace.Op_id.origin ~host:1 ~shard:0 + i; file = Vstore.File_id.of_int i })
  in
  let started = timer () in
  for i = 0 to ops - 1 do
    let sink = Sys.opaque_identity sink in
    if Trace.Sink.enabled sink then begin
      let kind, corr = Leases.Messages.trace_class payloads.(i land 7) in
      Trace.Sink.emit sink
        (float_of_int i *. 1e-6)
        (Trace.Event.Net_send { src = 1 + (i mod 7); dst = 0; kind; corr })
    end
  done;
  finish ~timer ~started ~ops

let classify_bench ~timer ~ops =
  let classify_disabled = classify_point_once ~timer ~ops Trace.Sink.null in
  let ring = Trace.Sink.ring ~capacity:65_536 in
  let classify_enabled = classify_point_once ~timer ~ops (Trace.Sink.ring_sink ring) in
  { classify_disabled; classify_enabled }

type telemetry_bench = { probe_disabled : micro; probe_enabled : micro; snapshot : micro }

(* One op = one guarded per-entity bump attempt at the server's read hot
   path (two axes: by file, by client).  Detached measures the cost left
   on an unsampled run — one load and one branch per site, mirroring the
   trace [enabled] guard; attached measures bumping at full bore.  The
   option is read through [Sys.opaque_identity] so the branch cannot be
   hoisted out of the loop. *)
let telemetry_probe ~timer ~ops =
  let measure obs_value =
    let obs = ref obs_value in
    let started = timer () in
    for i = 0 to ops - 1 do
      match Sys.opaque_identity !obs with
      | Some b ->
        Leases.Breakdown.bump b.Leases.Breakdown.reads_by_file (i mod 1_000);
        Leases.Breakdown.bump b.Leases.Breakdown.reads_by_client (i mod 7)
      | None -> ()
    done;
    finish ~timer ~started ~ops
  in
  let probe_disabled = measure None in
  let probe_enabled = measure (Some (Leases.Breakdown.create ())) in
  (probe_disabled, probe_enabled)

(* One op = one full sampler visit to the server: occupancy snapshot plus
   a prefixed counter-registry dump — the per-window cost of the telemetry
   sampler, measured against a server left populated by a real run. *)
let telemetry_snapshot ~timer ~ops =
  let server = ref None in
  let duration = Simtime.Time.Span.of_sec 60. in
  let trace = (V_trace.poisson ~clients:4 ~duration ()).V_trace.trace in
  let setup = Runner.lease_setup ~n_clients:4 ~term:(Analytic.Model.Finite 10.) () in
  let setup =
    { setup with
      Leases.Sim.on_instruments = (fun i -> server := Some i.Leases.Sim.i_server) }
  in
  ignore (Leases.Sim.run setup ~trace);
  let server = Option.get !server in
  let sink = ref 0 in
  let started = timer () in
  for _ = 0 to ops - 1 do
    let snap = Leases.Server.snapshot server in
    let dump = Stats.Counter.Registry.dump ~prefix:"server/" (Leases.Server.counters server) in
    sink := !sink + snap.Leases.Server.lease_records + List.length dump
  done;
  ignore (Sys.opaque_identity !sink);
  finish ~timer ~started ~ops

let telemetry_bench ~timer ~ops =
  let probe_disabled, probe_enabled = telemetry_probe ~timer ~ops in
  (* a sampler visit is ~1000x a probe; scale the op count down *)
  let snapshot = telemetry_snapshot ~timer ~ops:(Stdlib.max 100 (ops / 1_000)) in
  { probe_disabled; probe_enabled; snapshot }

type dispatch_bench = { dispatch_disabled : micro; dispatch_enabled : micro }

(* One op = one engine dispatch of a no-op callback that schedules its
   successor — the pure per-event cost of [Engine.step]'s single dispatch
   site.  Disabled measures the residual left by the profiler guard (one
   load and one branch, same shape as the trace sink and the telemetry
   probe); enabled measures full begin/end accounting with a cadence far
   past the run so sampling never fires. *)
let engine_dispatch_once ~timer ~ops profiler =
  let engine = Engine.create () in
  (match profiler with Some p -> Engine.set_profiler engine p | None -> ());
  let remaining = ref ops in
  let rec event () =
    if !remaining > 0 then begin
      decr remaining;
      ignore (Engine.schedule_after engine (Time.Span.of_us 1) event)
    end
  in
  ignore (Engine.schedule_after engine (Time.Span.of_us 1) event);
  let started = timer () in
  Engine.run engine;
  (match profiler with Some p -> Profile.Recorder.stop p | None -> ());
  finish ~timer ~started ~ops

let engine_dispatch ~timer ~ops =
  let dispatch_disabled = engine_dispatch_once ~timer ~ops None in
  let dispatch_enabled =
    engine_dispatch_once ~timer ~ops (Some (Profile.Recorder.create ~interval_s:1e12 ~timer ()))
  in
  { dispatch_disabled; dispatch_enabled }

(* The end-to-end sweep runs with piggyback extensions disabled
   ([batch_extension_limit = Some 0]).  Each piggybacked file multiplies a
   miss into an extra server-side grant, so with unbounded batching (the
   default) the sweep mostly measures how many free renewals the workload
   generator happens to piggyback rather than the per-operation core cost
   the sweep exists to track.  On the poisson sweep workload the batching
   buys almost nothing anyway — 77_381 misses unbounded vs 77_507 with it
   off at 10k clients (+0.16%) — while costing ~1.7x the wall time.
   Protocol-quality experiments (term sweeps, Table 2) keep the default. *)
let sweep_config = { Leases.Config.default with batch_extension_limit = Some 0 }

let lease_throughput ~timer ~n_clients ~duration =
  let trace = (V_trace.poisson ~clients:n_clients ~duration ()).V_trace.trace in
  let setup =
    Runner.lease_setup ~config:sweep_config ~n_clients ~term:(Analytic.Model.Finite 10.) ()
  in
  let started = timer () in
  let m = Runner.run_lease setup trace in
  let wall_seconds = Float.max 1e-9 (timer () -. started) in
  let sim_seconds = m.Leases.Metrics.sim_duration in
  { n_clients; sim_seconds; wall_seconds; sim_sec_per_wall_sec = sim_seconds /. wall_seconds }

type hotspot = { h_center : string; h_wall_pct : float; h_hits : int }

(* Same workload as [lease_throughput], run once with a recorder attached;
   the report's non-empty centers, hottest first, ride along in
   BENCH_core.json so a sweep row says not just how fast but where the
   time went. *)
let lease_hotspots ~timer ~n_clients ~duration =
  let trace = (V_trace.poisson ~clients:n_clients ~duration ()).V_trace.trace in
  let recorder = Profile.Recorder.create ~timer () in
  let setup =
    Runner.lease_setup ~config:sweep_config ~n_clients ~term:(Analytic.Model.Finite 10.) ()
  in
  let setup = { setup with Leases.Sim.profiler = recorder } in
  ignore (Runner.run_lease setup trace);
  let report = Profile.Report.of_recorder recorder in
  report.Profile.Report.centers
  |> List.filter (fun (c : Profile.Report.center_row) -> c.hits > 0 || c.wall_s > 0.)
  |> List.sort (fun (a : Profile.Report.center_row) (b : Profile.Report.center_row) ->
         Float.compare b.wall_s a.wall_s)
  |> List.map (fun (c : Profile.Report.center_row) ->
         { h_center = c.center; h_wall_pct = c.wall_pct; h_hits = c.hits })

type domain_point = {
  d_domains : int;
  d_sim_seconds : float;
  d_wall_seconds : float;
  d_sim_sec_per_wall_sec : float;
}

(* The K-shard split deployment at a fixed shard count, driven across a
   domain-count axis.  Every point runs the identical seeded workload and
   the identical per-shard sub-simulations — only the number of OCaml
   domains executing them varies — so the rate ratio between two points is
   pure parallel speedup, not a workload change. *)
let split_throughput ~timer ~n_clients ~n_shards ~domains ~duration =
  let trace = (V_trace.poisson ~clients:n_clients ~duration ()).V_trace.trace in
  let setup =
    {
      Shard.Deploy.default_setup with
      Shard.Deploy.n_clients;
      n_shards;
      config = sweep_config;
    }
  in
  let started = timer () in
  let outcome = Shard.Deploy.run_split ~domains setup ~trace in
  let wall = Float.max 1e-9 (timer () -. started) in
  let sim = outcome.Shard.Deploy.sp_metrics.Leases.Metrics.sim_duration in
  {
    d_domains = domains;
    d_sim_seconds = sim;
    d_wall_seconds = wall;
    d_sim_sec_per_wall_sec = sim /. wall;
  }

let domain_counts = [ 1; 2; 4; 8 ]
let split_shards = 8

let client_counts = [ 1; 10; 100; 1_000; 10_000 ]

(* Simulated seconds per sweep point: the full budget up to 100 clients,
   then inversely scaled so the event count — which grows linearly with N —
   stays roughly constant across the big end of the axis. *)
let sweep_duration_s ~base_s n = base_s *. 100. /. float_of_int (Stdlib.max 100 n)

(* --- perf-regression gate ------------------------------------------ *)

type gate_point = { p_clients : int; p_baseline : float; p_current : float; p_ratio : float }
type gate_result = { g_points : gate_point list; g_worst : gate_point option; g_pass : bool }

(* The end-to-end sweep of a BENCH_core.json document, as
   (n_clients, sim_sec_per_wall_sec) pairs. *)
let end_to_end_rows text =
  let module J = Trace.Json in
  match J.parse text with
  | Error e -> Error e
  | Ok doc -> (
    match J.member "end_to_end" doc with
    | Some (J.Arr rows) ->
      Ok
        (List.filter_map
           (fun row ->
             match (J.member "n_clients" row, J.member "sim_sec_per_wall_sec" row) with
             | Some (J.Num n), Some (J.Num r) -> Some (int_of_float n, r)
             | _ -> None)
           rows)
    | Some _ | None -> Error "no end_to_end array")

let gate_compare ~tolerance ~baseline ~current =
  if tolerance <= 0. || tolerance > 1. || not (Float.is_finite tolerance) then
    invalid_arg "Corebench.gate_compare: tolerance must be in (0, 1]";
  match (end_to_end_rows baseline, end_to_end_rows current) with
  | Error e, _ -> Error ("baseline: " ^ e)
  | _, Error e -> Error ("current: " ^ e)
  | Ok base, Ok cur -> (
    let points =
      List.filter_map
        (fun (n, b) ->
          match List.assoc_opt n cur with
          | Some c when b > 0. ->
            Some { p_clients = n; p_baseline = b; p_current = c; p_ratio = c /. b }
          | Some _ | None -> None)
        base
    in
    match points with
    | [] -> Error "no common sweep points between baseline and current"
    | _ ->
      let worst =
        List.fold_left
          (fun acc p ->
            match acc with Some w when w.p_ratio <= p.p_ratio -> acc | Some _ | None -> Some p)
          None points
      in
      Ok
        {
          g_points = points;
          g_worst = worst;
          g_pass = (match worst with Some w -> w.p_ratio >= tolerance | None -> true);
        })

(* --- parallel-speedup gate ----------------------------------------- *)

type speedup_result = {
  su_host_cores : int;
  su_domains : int;
  su_base : float;
  su_parallel : float;
  su_speedup : float;
  su_enforced : bool;
  su_pass : bool;
}

(* The domain_sweep section of a BENCH_core.json document: host core
   count plus (domains, sim_sec_per_wall_sec) rows.  Absent in documents
   generated before the section existed, so the caller distinguishes
   "no section" from a parse failure. *)
let domain_sweep_rows text =
  let module J = Trace.Json in
  match J.parse text with
  | Error e -> Error e
  | Ok doc -> (
    match J.member "domain_sweep" doc with
    | None -> Ok None
    | Some section -> (
      match (J.member "host_cores" section, J.member "points" section) with
      | Some (J.Num cores), Some (J.Arr rows) ->
        Ok
          (Some
             ( int_of_float cores,
               List.filter_map
                 (fun row ->
                   match (J.member "domains" row, J.member "sim_sec_per_wall_sec" row) with
                   | Some (J.Num d), Some (J.Num r) -> Some (int_of_float d, r)
                   | _ -> None)
                 rows ))
      | _ -> Error "domain_sweep section lacks host_cores or points"))

let speedup_gate ~min_speedup ~at_domains ~current =
  if min_speedup <= 0. || not (Float.is_finite min_speedup) then
    invalid_arg "Corebench.speedup_gate: min_speedup must be positive and finite";
  if at_domains < 2 then invalid_arg "Corebench.speedup_gate: at_domains must be at least 2";
  match domain_sweep_rows current with
  | Error e -> Error ("current: " ^ e)
  | Ok None -> Ok None
  | Ok (Some (host_cores, rows)) -> (
    match (List.assoc_opt 1 rows, List.assoc_opt at_domains rows) with
    | Some base, Some parallel when base > 0. ->
      let speedup = parallel /. base in
      (* A host with fewer cores than the parallel point cannot exhibit
         the speedup (the domains time-slice one core), so the threshold
         is only enforced where the hardware can express it; the measured
         numbers are recorded either way. *)
      let enforced = host_cores >= at_domains in
      Ok
        (Some
           {
             su_host_cores = host_cores;
             su_domains = at_domains;
             su_base = base;
             su_parallel = parallel;
             su_speedup = speedup;
             su_enforced = enforced;
             su_pass = (not enforced) || speedup >= min_speedup;
           })
    | _ ->
      Error
        (Printf.sprintf "domain_sweep lacks a positive rate at domains=1 and domains=%d"
           at_domains))
