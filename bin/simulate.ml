(* Run one configurable simulation and print the full metric summary. *)

open Cmdliner

let span_sec = Simtime.Time.Span.of_sec

let make_trace workload clients duration seed =
  let duration = span_sec duration in
  match workload with
  | "poisson" -> (Experiments.V_trace.poisson ~seed ~clients ~duration ()).Experiments.V_trace.trace
  | "bursty" -> (Experiments.V_trace.bursty ~seed ~clients ~duration ()).Experiments.V_trace.trace
  | "shared-heavy" ->
    (Experiments.V_trace.shared_heavy ~seed ~clients ~duration ()).Experiments.V_trace.trace
  | other -> failwith (Printf.sprintf "unknown workload %S (poisson|bursty|shared-heavy)" other)

(* The message model charges one processing delay at each host a message
   crosses, so a unicast RPC pays 2 propagation + 4 processing legs; with
   the fixed 1 ms processing delay the floor is 4 ms of RTT. *)
let m_prop_of_rtt rtt_ms =
  if Float.is_nan rtt_ms || rtt_ms < 4. then
    failwith
      (Printf.sprintf
         "--rtt %g is below the 4 ms floor: RTT = 2 propagation + 4 processing legs and each \
          processing leg is fixed at 1 ms, so propagation would be negative"
         rtt_ms)
  else Simtime.Time.Span.of_ms (Float.max 0. ((rtt_ms -. 4.) /. 2.))

(* --fault specs: kind=args with comma-separated numbers, e.g.
   crash-client=1,30,20 (client 1 down at t=30 for 20 s) or
   server-drift=40,1.0 (server clock runs 2x from t=40).  The grammar
   lives in [Leases.Sim] so campaign reproducers stay parseable here. *)
let parse_fault spec =
  match Leases.Sim.fault_of_spec spec with Ok fault -> fault | Error why -> failwith why

let trace_sink trace_out trace_format =
  match trace_out with
  | None -> (Trace.Sink.null, fun () -> ())
  | Some path -> (
    match trace_format with
    | "jsonl" ->
      let oc = open_out path in
      (Trace.Sink.jsonl oc, fun () -> close_out oc)
    | "chrome" ->
      let buf = Trace.Sink.buffer () in
      ( Trace.Sink.buffer_sink buf,
        fun () ->
          let oc = open_out path in
          Trace.Chrome.write oc (Trace.Sink.buffer_contents buf);
          close_out oc )
    | other -> failwith (Printf.sprintf "unknown trace format %S (jsonl|chrome)" other))

(* --telemetry wires a Telemetry.Sampler into the run via the
   on_instruments hook; the report is written after the run drains so the
   final partial window is included. *)
let finish_telemetry sampler ~term ~setup ~telemetry_out ~telemetry_format ~json =
  Telemetry.Sampler.finalize sampler;
  let params = Telemetry.Residual.params_of_setup ~term setup in
  (match telemetry_out with
  | None -> ()
  | Some path ->
    let data =
      match telemetry_format with
      | "json" -> Telemetry.Report.to_json_string ~params sampler
      | "csv" -> Telemetry.Report.to_csv_string ~params sampler
      | other -> failwith (Printf.sprintf "unknown telemetry format %S (json|csv)" other)
    in
    let oc = open_out path in
    output_string oc data;
    close_out oc);
  if not json then begin
    let summary =
      Telemetry.Residual.summarize params (Telemetry.Residual.evaluate params sampler)
    in
    Format.printf
      "telemetry: %d windows (%d flagged), consistency load %.3f msg/s measured vs %.3f \
       predicted, steady residual %+.1f%%@."
      summary.Telemetry.Residual.windows summary.Telemetry.Residual.flagged_windows
      summary.Telemetry.Residual.mean_measured_load
      summary.Telemetry.Residual.mean_predicted_load
      (100. *. summary.Telemetry.Residual.steady_load_residual)
  end

(* --latency tees a live critical-path analyzer next to the tracer; the
   report is rendered (and optionally exported) after the run drains so
   still-open operations are counted as incomplete, not lost. *)
let finish_latency analyzer ~latency_out ~latency_k ~json =
  let report = Trace.Critical_path.report ~k:latency_k analyzer in
  (match latency_out with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (Trace.Critical_path.export report);
    close_out oc);
  if not json then Format.printf "%a@." Trace.Critical_path.pp_report report

(* --profile attaches a Profile.Recorder to the engine; the report is
   rendered after the run drains.  The hotspot table goes to stdout unless
   --json asked for machine-readable output only. *)
let finish_profile recorder ~profile_out ~profile_format ~json =
  let report = Profile.Report.of_recorder recorder in
  (match profile_out with
  | None -> ()
  | Some path ->
    let data =
      match profile_format with
      | "json" -> Profile.Report.to_json_string report
      | "speedscope" -> Profile.Report.to_speedscope report
      | "chrome" -> Profile.Report.to_chrome report
      | other -> failwith (Printf.sprintf "unknown profile format %S (json|speedscope|chrome)" other)
    in
    let oc = open_out path in
    output_string oc data;
    close_out oc);
  if not json then print_string (Profile.Report.hotspot_table report)

(* --shards N runs the sharded deployment, one sub-simulation per shard,
   up to --domains of them on parallel OCaml domains: per-shard loads
   after the aggregate metrics, per-shard residual summaries when
   telemetry is on, and one profile per shard with --profile. *)
let print_shard_loads per_shard =
  Array.iter
    (fun sl ->
      Format.printf
        "shard %d (host %d): consistency %d msgs (%.3f/s) = ext %d + appr %d + inst %d; \
         total handled %d, commits %d@."
        sl.Shard.Deploy.sl_shard sl.Shard.Deploy.sl_host sl.Shard.Deploy.sl_consistency_msgs
        sl.Shard.Deploy.sl_consistency_rate sl.Shard.Deploy.sl_extension_msgs
        sl.Shard.Deploy.sl_approval_msgs sl.Shard.Deploy.sl_installed_msgs
        sl.Shard.Deploy.sl_total_msgs sl.Shard.Deploy.sl_commits)
    per_shard

let print_shard_telemetry reports =
  Array.iter
    (fun r ->
      let s = r.Shard.Shard_telemetry.sr_summary in
      Format.printf
        "shard %d telemetry: %d windows (%d flagged), load %.3f msg/s measured vs %.3f \
         predicted, steady residual %+.1f%%@."
        r.Shard.Shard_telemetry.sr_shard s.Telemetry.Residual.windows
        s.Telemetry.Residual.flagged_windows s.Telemetry.Residual.mean_measured_load
        s.Telemetry.Residual.mean_predicted_load
        (100. *. s.Telemetry.Residual.steady_load_residual))
    reports

(* Split-mode per-shard profiles: one leases-profile/1 document per shard,
   wrapped in a leases-profile-shards/1 envelope keyed by shard index. *)
let finish_shard_profiles profilers ~profile_out ~profile_format ~json =
  (match profile_out with
  | None -> ()
  | Some path ->
    (match profile_format with
    | "json" -> ()
    | other ->
      failwith
        (Printf.sprintf "per-shard profiles support --profile-format json only, not %S" other));
    let sections =
      Array.to_list
        (Array.mapi
           (fun s r ->
             Printf.sprintf "%S:%s" (string_of_int s)
               (Profile.Report.to_json_string (Profile.Report.of_recorder r)))
           profilers)
    in
    let oc = open_out path in
    output_string oc
      (Printf.sprintf "{\"schema\":\"leases-profile-shards/1\",\"shards\":{%s}}"
         (String.concat "," sections));
    close_out oc);
  if not json then
    Array.iteri
      (fun s r ->
        Format.printf "shard %d profile:@." s;
        print_string (Profile.Report.hotspot_table (Profile.Report.of_recorder r)))
      profilers

let run_sharded ~shards ~domains ~clients ~seed ~loss ~m_prop ~m_proc ~term ~faults ~tracer
    ~telemetry_s ~json ~trace ~profile ~profile_out ~profile_format =
  let base = Experiments.Runner.lease_setup ~n_clients:clients ~m_prop ~m_proc ~term () in
  let profilers =
    if profile then
      let interval_s = Option.value telemetry_s ~default:10. in
      Array.init shards (fun _ ->
          Profile.Recorder.create ~interval_s ~timer:Unix.gettimeofday ())
    else [||]
  in
  let setup =
    {
      Shard.Deploy.default_setup with
      Shard.Deploy.seed;
      n_clients = clients;
      n_shards = shards;
      config = base.Leases.Sim.config;
      m_prop;
      m_proc;
      loss;
      faults;
      tracer;
      telemetry_interval_s = telemetry_s;
      profilers;
    }
  in
  let outcome = Shard.Deploy.run_split ~domains setup ~trace in
  let print_extra () =
    if not json then begin
      print_shard_loads outcome.Shard.Deploy.sp_per_shard;
      Option.iter print_shard_telemetry (Shard.Deploy.split_telemetry_report setup outcome)
    end;
    if profile then finish_shard_profiles profilers ~profile_out ~profile_format ~json
  in
  (outcome.Shard.Deploy.sp_metrics, print_extra)

let rec main protocol term_s clients duration seed loss rtt_ms workload ops_file json trace_out
    trace_format fault_specs telemetry_s telemetry_out telemetry_format shards domains profile
    profile_out profile_format latency latency_out latency_k =
  try
    let faults = List.map parse_fault fault_specs in
    if shards < 1 then failwith "--shards must be at least 1";
    if shards > Trace.Op_id.max_shards then
      failwith
        (Printf.sprintf "--shards must be at most %d (the request-id layout's shard field)"
           Trace.Op_id.max_shards);
    if domains < 1 then failwith "--domains must be at least 1";
    if latency_out <> None && not latency then failwith "--latency-out requires --latency";
    if latency_k < 1 then failwith "--latency-k must be at least 1";
    if latency && protocol <> "leases" then
      failwith
        (Printf.sprintf
           "--latency attributes the lease protocol's phases; protocol %S does not emit the \
            correlated events it needs"
           protocol);
    if shards > 1 && protocol <> "leases" then
      failwith "--shards runs the sharded lease deployment; it needs --protocol leases";
    if protocol = "ttl" && term_s < 0. then
      failwith "--term: a TTL hint is never infinite; --protocol ttl needs a term of 0 s or more";
    if profile_out <> None && not profile then failwith "--profile-out requires --profile";
    if profile && protocol <> "leases" then
      failwith
        (Printf.sprintf
           "--profile instruments the lease protocol's engine; protocol %S does not expose it"
           protocol);
    if shards > 1 && telemetry_out <> None then
      failwith
        "--telemetry-out writes a single-server report; with --shards use the printed per-shard \
         summaries";
    if telemetry_out <> None && telemetry_s = None then
      failwith "--telemetry-out requires --telemetry INTERVAL";
    (match telemetry_s with
    | Some i when i <= 0. -> failwith "--telemetry interval must be positive"
    | _ -> ());
    if telemetry_s <> None && protocol <> "leases" then
      failwith
        (Printf.sprintf
           "--telemetry instruments the lease protocol's server and clients; protocol %S does \
            not expose them"
           protocol);
    let trace =
      match ops_file with
      | Some path ->
        let ic = open_in path in
        let len = in_channel_length ic in
        let text = really_input_string ic len in
        close_in ic;
        Workload.Trace_io.parse_exn text
      | None -> make_trace workload clients duration seed
    in
    let m_proc = Simtime.Time.Span.of_ms 1. in
    let m_prop = m_prop_of_rtt rtt_ms in
    let tracer, finish_trace = trace_sink trace_out trace_format in
    let analyzer = if latency then Some (Trace.Critical_path.create ()) else None in
    let tracer =
      match analyzer with
      | None -> tracer
      | Some a -> Trace.Sink.tee [ tracer; Trace.Critical_path.sink a ]
    in
    let term = if term_s < 0. then Analytic.Model.Infinite else Analytic.Model.Finite term_s in
    let metrics, print_extra =
      if shards > 1 then
        run_sharded ~shards ~domains ~clients ~seed ~loss ~m_prop ~m_proc ~term ~faults ~tracer
          ~telemetry_s ~json ~trace ~profile ~profile_out ~profile_format
      else
        ( run_single ~protocol ~term ~term_s ~clients ~seed ~loss ~m_prop ~m_proc ~faults ~tracer
            ~telemetry_s ~telemetry_out ~telemetry_format ~analyzer ~json ~trace ~profile
            ~profile_out ~profile_format,
          fun () -> () )
    in
    finish_trace ();
    if json then print_endline (Leases.Metrics.to_json metrics)
    else Format.printf "%a@." Leases.Metrics.pp metrics;
    print_extra ();
    Option.iter (fun a -> finish_latency a ~latency_out ~latency_k ~json) analyzer;
    `Ok ()
  with Failure why | Sys_error why | Invalid_argument why -> `Error (false, why)

and run_single ~protocol ~term ~term_s ~clients ~seed ~loss ~m_prop ~m_proc ~faults ~tracer
    ~telemetry_s ~telemetry_out ~telemetry_format ~analyzer ~json ~trace ~profile ~profile_out
    ~profile_format =
  match protocol with
  | "leases" ->
        let setup = Experiments.Runner.lease_setup ~n_clients:clients ~m_prop ~m_proc ~term () in
        let setup = { setup with Leases.Sim.loss; seed; tracer; faults } in
        let sampler =
          Option.map (fun interval_s -> Telemetry.Sampler.create ~interval_s ()) telemetry_s
        in
        let setup =
          match sampler with
          | None -> setup
          | Some s -> { setup with Leases.Sim.on_instruments = Telemetry.Sampler.attach s }
        in
        (match (sampler, analyzer) with
        | Some s, Some a ->
          Telemetry.Sampler.set_phase_source s (fun () -> Trace.Critical_path.phase_sums a)
        | _ -> ());
        let recorder =
          if profile then
            (* Engine-health samples share the telemetry cadence when one
               was asked for, 10 s otherwise. *)
            let interval_s = Option.value telemetry_s ~default:10. in
            Some (Profile.Recorder.create ~interval_s ~timer:Unix.gettimeofday ())
          else None
        in
        let setup =
          match recorder with
          | None -> setup
          | Some r -> { setup with Leases.Sim.profiler = r }
        in
        let metrics = (Leases.Sim.run setup ~trace).Leases.Sim.metrics in
        Option.iter
          (fun s -> finish_telemetry s ~term ~setup ~telemetry_out ~telemetry_format ~json)
          sampler;
        Option.iter (fun r -> finish_profile r ~profile_out ~profile_format ~json) recorder;
        metrics
      | "polling" ->
        let setup =
          { Baselines.Polling.default_setup with
            Baselines.Polling.n_clients = clients; m_prop; m_proc; loss; seed; tracer; faults }
        in
        (Baselines.Polling.run setup ~trace).Leases.Sim.metrics
      | "callback" ->
        let setup =
          { Baselines.Callback.default_setup with
            Baselines.Callback.n_clients = clients; m_prop; m_proc; loss; seed; tracer; faults }
        in
        (Baselines.Callback.run setup ~trace).Leases.Sim.metrics
      | "ttl" ->
        let ttl = span_sec term_s in
        let setup =
          { Baselines.Ttl_hints.default_setup with
            Baselines.Ttl_hints.n_clients = clients; m_prop; m_proc; loss; seed; ttl; tracer;
            faults }
        in
        (Baselines.Ttl_hints.run setup ~trace).Leases.Sim.metrics
      | other ->
        failwith (Printf.sprintf "unknown protocol %S (leases|polling|callback|ttl)" other)

let protocol =
  Arg.(value & opt string "leases"
       & info [ "p"; "protocol" ] ~docv:"PROTO" ~doc:"leases, polling, callback or ttl.")

let term =
  Arg.(value & opt float 10.
       & info [ "t"; "term" ] ~docv:"SEC"
           ~doc:"Lease term (or TTL) in seconds; negative = infinite (leases only).")

let clients =
  Arg.(value & opt int 1 & info [ "n"; "clients" ] ~docv:"N" ~doc:"Number of client caches.")

let duration =
  Arg.(value & opt float 600. & info [ "d"; "duration" ] ~docv:"SEC" ~doc:"Virtual seconds of workload.")

let seed = Arg.(value & opt int64 1L & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let loss =
  Arg.(value & opt float 0. & info [ "loss" ] ~docv:"P" ~doc:"Per-delivery message loss probability.")

let rtt =
  Arg.(value & opt float 5.
       & info [ "rtt" ] ~docv:"MS"
           ~doc:"Unicast round-trip time in milliseconds; must be at least 4 (the fixed \
                 processing legs).")

let workload =
  Arg.(value & opt string "poisson"
       & info [ "w"; "workload" ] ~docv:"KIND" ~doc:"poisson, bursty or shared-heavy.")

let ops_file =
  Arg.(value & opt (some string) None
       & info [ "ops" ] ~docv:"FILE"
           ~doc:"Drive the run from a workload trace file (see leases-tracegen).")

let json =
  Arg.(value & flag
       & info [ "json" ] ~doc:"Print metrics as one machine-readable JSON object instead of the \
                               human summary.")

let trace_out =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write the structured protocol event trace to $(docv) (see leases-tracedump).")

let trace_format =
  Arg.(value & opt string "jsonl"
       & info [ "trace-format" ] ~docv:"FMT"
           ~doc:"Event trace format: jsonl (one event per line, tracedump input) or chrome \
                 (chrome://tracing / Perfetto timeline).")

let faults =
  Arg.(value & opt_all string []
       & info [ "fault" ] ~docv:"SPEC"
           ~doc:"Inject a fault (repeatable): crash-client=CLIENT,AT,DUR; crash-server=AT,DUR; \
                 partition=C1+C2,AT,DUR; client-drift=CLIENT,AT,RATE; \
                 server-drift=[SHARD,]AT,RATE; client-step=CLIENT,AT,SEC; \
                 server-step=[SHARD,]AT,SEC.  Times in virtual seconds; the server clock \
                 faults default to shard 0 when no shard is given.")

let telemetry =
  Arg.(value & opt (some float) None
       & info [ "telemetry" ] ~docv:"SEC"
           ~doc:"Sample telemetry every $(docv) virtual seconds (leases protocol only): counter \
                 registries, lease-table occupancy, write queues, in-flight messages, clock \
                 skew, and live analytic-model residuals per window.")

let telemetry_out =
  Arg.(value & opt (some string) None
       & info [ "telemetry-out" ] ~docv:"FILE"
           ~doc:"Write the telemetry report to $(docv) (see leases-telemetry); requires \
                 --telemetry.")

let telemetry_format =
  Arg.(value & opt string "json"
       & info [ "telemetry-format" ] ~docv:"FMT"
           ~doc:"Telemetry report format: json (full report, leases-telemetry input) or csv \
                 (per-window scalars).")

let shards =
  Arg.(value & opt int 1
       & info [ "shards" ] ~docv:"N"
           ~doc:"Partition the file namespace across $(docv) (at most 64) independent lease \
                 servers (consistent hashing; servers are hosts 0..N-1) and run each shard \
                 as its own sub-simulation of the clients' operations on its files.  Leases \
                 protocol only.  Adds crash-shard=SHARD,AT,DUR to the --fault vocabulary and \
                 prints per-shard load lines after the aggregate metrics.")

let domains =
  Arg.(value & opt int 1
       & info [ "domains" ] ~docv:"K"
           ~doc:"With --shards: run up to $(docv) of the per-shard sub-simulations \
                 concurrently on OCaml domains.  Only the speed changes: the results merge \
                 deterministically (metrics summed, histograms merged, traces interleaved by \
                 timestamp), so every domain count produces bit-identical output.")

let profile =
  Arg.(value & flag
       & info [ "profile" ]
           ~doc:"Self-profile the run (leases protocol; with --shards, one recorder per \
                 shard): attribute wall time and GC allocation to per-subsystem cost \
                 centers and sample engine health (queue depth, live/occupied slots, cancel \
                 ratio, events per sim-second) on the telemetry cadence.  Prints a hotspot \
                 table; see leases-profile-view.")

let profile_out =
  Arg.(value & opt (some string) None
       & info [ "profile-out" ] ~docv:"FILE"
           ~doc:"Write the leases-profile/1 report to $(docv); requires --profile.")

let profile_format =
  Arg.(value & opt string "json"
       & info [ "profile-format" ] ~docv:"FMT"
           ~doc:"Profile report format: json (leases-profile/1, leases-profile-view input), \
                 speedscope (speedscope.app flamegraph) or chrome (chrome://tracing / Perfetto).")

let latency =
  Arg.(value & flag
       & info [ "latency" ]
           ~doc:"Attribute every operation's client-observed latency to causal phases (request \
                 transit, backoff, server queueing, lease waits split by approval vs expiry, \
                 reply transit) with a live critical-path analyzer (leases protocol only).  \
                 Prints per-phase tail summaries and worst-write explanations; see \
                 leases-latency.")

let latency_out =
  Arg.(value & opt (some string) None
       & info [ "latency-out" ] ~docv:"FILE"
           ~doc:"Write the leases-latency/1 JSON report to $(docv) (leases-latency input); \
                 requires --latency.")

let latency_k =
  Arg.(value & opt int 5
       & info [ "latency-k" ] ~docv:"N"
           ~doc:"Keep $(docv) worst-write exemplars in the latency report.")

let cmd =
  let doc = "Simulate a distributed file cache under a chosen consistency protocol." in
  Cmd.v (Cmd.info "leases-sim" ~doc)
    Term.(ret (const main $ protocol $ term $ clients $ duration $ seed $ loss $ rtt $ workload
               $ ops_file $ json $ trace_out $ trace_format $ faults $ telemetry $ telemetry_out
               $ telemetry_format $ shards $ domains $ profile $ profile_out $ profile_format
               $ latency $ latency_out $ latency_k))

let () = exit (Cmd.eval cmd)
