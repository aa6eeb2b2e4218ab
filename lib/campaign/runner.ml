type classification = Clean | Degraded | Safety

type outcome = {
  schedule : Schedule.t;
  classification : classification;
  oracle_violations : int;
  checker_violations : int;
  first_violation : string option;
  ops_issued : int;
  dropped_ops : int;
  commits : int;
  checked_events : int;
  telemetry : Telemetry.Residual.summary;
  worst_write : string option;
      (* critical-path explanation of the schedule's slowest completed
         write, e.g. which holder's expiry dominated and why *)
}

let classification_name = function
  | Clean -> "clean"
  | Degraded -> "degraded"
  | Safety -> "safety"

(* Telemetry windows per schedule: aim for ~24 windows but keep each wide
   enough (>= 2.5 s) that per-window counts are not all-noise, and never
   wider than the 30 s the standalone runs use. *)
let telemetry_interval_s duration_s = Float.max 2.5 (Float.min 30. (duration_s /. 24.))

(* Replay the schedule's buffered trace through the critical-path
   analyzer and render its slowest completed write's causal explanation. *)
let worst_write_of events =
  let analyzer = Trace.Critical_path.create () in
  List.iter (Trace.Critical_path.feed analyzer) events;
  match (Trace.Critical_path.report ~k:1 analyzer).Trace.Critical_path.r_worst with
  | w :: _ -> Some w.Trace.Critical_path.w_explain
  | [] -> None

(* Classification and reporting shared by the single-server and sharded
   paths once each has produced metrics, a checker report and the oracle's
   first stale read. *)
let conclude ~schedule ~(m : Leases.Metrics.t) ~(report : Trace.Checker.report) ~stale
    ~telemetry ~worst_write =
  let oracle_violations = m.Leases.Metrics.oracle_violations in
  let checker_violations = List.length report.Trace.Checker.violations in
  let first_violation =
    match report.Trace.Checker.violations with
    | v :: _ -> Some (Format.asprintf "%a" Trace.Checker.pp_violation v)
    | [] ->
      Option.map
        (fun (file, version, at) ->
          Format.asprintf "oracle: stale read of file %d v%d completed at %a"
            (Vstore.File_id.to_int file) (Vstore.Version.to_int version) Simtime.Time.pp at)
        stale
  in
  let classification =
    if oracle_violations > 0 || checker_violations > 0 then Safety
    else if m.Leases.Metrics.dropped_ops > 0 then Degraded
    else Clean
  in
  {
    schedule;
    classification;
    oracle_violations;
    checker_violations;
    first_violation;
    ops_issued = m.Leases.Metrics.ops_issued;
    dropped_ops = m.Leases.Metrics.dropped_ops;
    commits = m.Leases.Metrics.commits;
    checked_events = report.Trace.Checker.events;
    telemetry;
    worst_write;
  }

let run_single schedule =
  let trace = Schedule.trace schedule in
  let buf = Trace.Sink.buffer () in
  let setup = Schedule.setup ~tracer:(Trace.Sink.buffer_sink buf) schedule in
  let sampler =
    Telemetry.Sampler.create ~interval_s:(telemetry_interval_s schedule.Schedule.duration_s) ()
  in
  let setup = { setup with Leases.Sim.on_instruments = Telemetry.Sampler.attach sampler } in
  let outcome = Leases.Sim.run setup ~trace in
  Telemetry.Sampler.finalize sampler;
  let residual_params =
    Telemetry.Residual.params_of_setup
      ~term:(Analytic.Model.Finite schedule.Schedule.term_s) setup
  in
  let telemetry =
    Telemetry.Residual.summarize residual_params
      (Telemetry.Residual.evaluate residual_params sampler)
  in
  let events = Trace.Sink.buffer_contents buf in
  let report = Trace.Checker.check ~server:0 events in
  conclude ~schedule ~m:outcome.Leases.Sim.metrics ~report
    ~stale:(Oracle.Register_oracle.first_violation outcome.Leases.Sim.oracle)
    ~telemetry ~worst_write:(worst_write_of events)

let run_sharded ~domains schedule =
  let trace = Schedule.trace schedule in
  let buf = Trace.Sink.buffer () in
  let setup = Schedule.deploy_setup ~tracer:(Trace.Sink.buffer_sink buf) schedule in
  let setup =
    {
      setup with
      Shard.Deploy.telemetry_interval_s =
        Some (telemetry_interval_s schedule.Schedule.duration_s);
    }
  in
  let outcome = Shard.Deploy.run_split ~domains setup ~trace in
  (* Pool every shard's windows into one summary: each window is judged
     against its own shard's predicted load, so the pooled worst/steady
     residuals flag whichever shard diverges. *)
  let telemetry =
    let params = Shard.Deploy.residual_params setup in
    let reports = Option.get (Shard.Deploy.split_telemetry_report setup outcome) in
    Telemetry.Residual.summarize params
      (List.concat_map
         (fun r -> r.Shard.Shard_telemetry.sr_evals)
         (Array.to_list reports))
  in
  let events = Trace.Sink.buffer_contents buf in
  let report =
    Trace.Checker.check
      ~servers:(Shard.Deploy.server_hosts setup)
      ~owner:(fun f ->
        Shard.Shard_map.owner outcome.Shard.Deploy.sp_map (Vstore.File_id.of_int f))
      events
  in
  (* each part's oracle watches its own shard; the earliest stale read
     wins, the lower shard on a tie *)
  let stale =
    Array.fold_left
      (fun first (p : Shard.Deploy.part) ->
        match (first, Oracle.Register_oracle.first_violation p.Shard.Deploy.p_oracle) with
        | Some (_, _, t0), Some (_, _, t1) when Simtime.Time.(t1 >= t0) -> first
        | _, None -> first
        | _, later -> later)
      None outcome.Shard.Deploy.sp_parts
  in
  conclude ~schedule ~m:outcome.Shard.Deploy.sp_metrics ~report ~stale
    ~telemetry ~worst_write:(worst_write_of events)

let run ?(domains = 2) schedule =
  if schedule.Schedule.n_shards > 1 then run_sharded ~domains schedule else run_single schedule

let to_json o =
  Trace.Json.Obj
    [
      ("schedule", Schedule.to_json o.schedule);
      ("classification", Trace.Json.Str (classification_name o.classification));
      ("oracle_violations", Trace.Json.Num (float_of_int o.oracle_violations));
      ("checker_violations", Trace.Json.Num (float_of_int o.checker_violations));
      ( "first_violation",
        match o.first_violation with Some v -> Trace.Json.Str v | None -> Trace.Json.Null );
      ("ops_issued", Trace.Json.Num (float_of_int o.ops_issued));
      ("dropped_ops", Trace.Json.Num (float_of_int o.dropped_ops));
      ("commits", Trace.Json.Num (float_of_int o.commits));
      ("checked_events", Trace.Json.Num (float_of_int o.checked_events));
      ("telemetry", Telemetry.Report.summary_to_json o.telemetry);
      ( "worst_write",
        match o.worst_write with Some w -> Trace.Json.Str w | None -> Trace.Json.Null );
    ]
