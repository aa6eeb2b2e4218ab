(* Emit BENCH_core.json: the simulation-core performance trajectory.

   Records the event-queue and lease-table microbenches and end-to-end
   simulated-seconds-per-wallclock-second across a client-count sweep
   (default N = 1, 10, 100, 1000, 10000; override with --clients), so
   future PRs touching the hot paths are held to these numbers.  Each
   sweep row carries hotspot attribution from one profiled run.  A
   domain_sweep section records the K-shard split deployment's rate at
   10k clients across 1/2/4/8 OCaml domains, with the host's core count.
   With --gate BASELINE the run doubles as a perf-regression gate: the
   fresh document's end_to_end sweep is compared against the baseline's
   and the exit status is non-zero on a regression past --tolerance; the
   domain_sweep is additionally held to --min-speedup at 4 domains when
   the host has the cores to express it.  The JSON format is documented
   in DESIGN.md sections 4, 12 and 15. *)

let timer = Unix.gettimeofday

let span_sec = Simtime.Time.Span.of_sec

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let fnum v =
  (* JSON has no infinities; benchmarks never legitimately produce them. *)
  if Float.is_finite v then Printf.sprintf "%.6g" v else "0"

let micro_fields (m : Experiments.Corebench.micro) =
  Printf.sprintf "\"ops\": %d, \"elapsed_s\": %s, \"ops_per_sec\": %s" m.ops (fnum m.elapsed_s)
    (fnum m.ops_per_sec)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Check [current_text]'s domain_sweep section against the minimum
   parallel speedup at 4 domains.  Enforcement is conditional on the
   recording host's core count — a 1-core machine time-slices the domains
   and cannot exhibit the speedup, so the gate records the measurement and
   passes with a notice rather than failing on hardware it cannot test. *)
let run_speedup_gate ~min_speedup ~current_text =
  match Experiments.Corebench.speedup_gate ~min_speedup ~at_domains:4 ~current:current_text with
  | Error e ->
    Printf.eprintf "leases-bench-core: speedup gate: %s\n" e;
    1
  | Ok None ->
    Printf.printf "speedup gate: SKIP (no domain_sweep section in this document)\n";
    0
  | Ok (Some s) ->
    Printf.printf "speedup gate: domains=1 %10.0f  domains=%d %10.0f  speedup %.2fx\n"
      s.Experiments.Corebench.su_base s.Experiments.Corebench.su_domains
      s.Experiments.Corebench.su_parallel s.Experiments.Corebench.su_speedup;
    if not s.Experiments.Corebench.su_enforced then begin
      Printf.printf
        "speedup gate: SKIP (host has %d core%s, fewer than the %d the gate needs; recorded but \
         not enforced)\n"
        s.Experiments.Corebench.su_host_cores
        (if s.Experiments.Corebench.su_host_cores = 1 then "" else "s")
        s.Experiments.Corebench.su_domains;
      0
    end
    else if s.Experiments.Corebench.su_pass then begin
      Printf.printf "speedup gate: PASS (%.2fx >= required %.2fx at %d domains)\n"
        s.Experiments.Corebench.su_speedup min_speedup s.Experiments.Corebench.su_domains;
      0
    end
    else begin
      Printf.eprintf "speedup gate: FAIL — %.2fx < required %.2fx at %d domains on %d cores\n"
        s.Experiments.Corebench.su_speedup min_speedup s.Experiments.Corebench.su_domains
        s.Experiments.Corebench.su_host_cores;
      1
    end

(* Compare [current_text]'s end_to_end sweep against the baseline file;
   prints every common point and, on failure, the worst regressing one. *)
let run_gate ~tolerance ~baseline ~current_text =
  match read_file baseline with
  | exception Sys_error reason ->
    Printf.eprintf "leases-bench-core: cannot read baseline %s: %s\n" baseline reason;
    1
  | baseline_text -> (
    match
      Experiments.Corebench.gate_compare ~tolerance ~baseline:baseline_text ~current:current_text
    with
    | Error e ->
      Printf.eprintf "leases-bench-core: gate: %s\n" e;
      1
    | Ok g ->
      List.iter
        (fun (p : Experiments.Corebench.gate_point) ->
          Printf.printf "gate: N=%-6d baseline %10.0f  current %10.0f  ratio %.3f\n" p.p_clients
            p.p_baseline p.p_current p.p_ratio)
        g.Experiments.Corebench.g_points;
      if g.Experiments.Corebench.g_pass then begin
        Printf.printf "gate: PASS (every sweep point within tolerance %.2f of %s)\n" tolerance
          baseline;
        0
      end
      else begin
        (match g.Experiments.Corebench.g_worst with
        | Some w ->
          Printf.eprintf
            "gate: FAIL — worst sweep point N=%d: %.0f -> %.0f sim-s/wall-s (ratio %.3f < \
             tolerance %.2f)\n"
            w.Experiments.Corebench.p_clients w.Experiments.Corebench.p_baseline
            w.Experiments.Corebench.p_current w.Experiments.Corebench.p_ratio tolerance
        | None -> Printf.eprintf "gate: FAIL\n");
        1
      end)

let run_benches quick clients =
  let micro_ops = if quick then 100_000 else 1_000_000 in
  let base_s = if quick then 200. else 1_000. in
  let push_pop = Experiments.Corebench.event_queue_push_pop ~timer ~ops:micro_ops in
  let cancel_heavy = Experiments.Corebench.event_queue_cancel_heavy ~timer ~ops:micro_ops in
  let lease_table = Experiments.Corebench.lease_table_churn ~timer ~ops:micro_ops in
  let hot_file = Experiments.Corebench.lease_table_hot_file ~timer ~ops:(micro_ops / 100) in
  let trace_sink = Experiments.Corebench.trace_emit ~timer ~ops:micro_ops in
  let classify = Experiments.Corebench.classify_bench ~timer ~ops:micro_ops in
  let telemetry = Experiments.Corebench.telemetry_bench ~timer ~ops:micro_ops in
  let dispatch = Experiments.Corebench.engine_dispatch ~timer ~ops:micro_ops in
  (* The N=1 run lasts a couple of milliseconds, which makes a single shot
     hostage to heap warmup (the first run after the microbenches measures
     GC growth, not the simulator).  Warm up once per N and report the best
     of three measured runs — the stable estimate of what the core can do.
     Hotspot attribution comes from one extra profiled run so the measured
     rate stays free of accounting overhead. *)
  let end_to_end =
    List.map
      (fun n_clients ->
        let duration = span_sec (Experiments.Corebench.sweep_duration_s ~base_s n_clients) in
        ignore (Experiments.Corebench.lease_throughput ~timer ~n_clients ~duration);
        let best a b =
          if a.Experiments.Corebench.sim_sec_per_wall_sec
             >= b.Experiments.Corebench.sim_sec_per_wall_sec
          then a
          else b
        in
        let r0 = Experiments.Corebench.lease_throughput ~timer ~n_clients ~duration in
        let r1 = Experiments.Corebench.lease_throughput ~timer ~n_clients ~duration in
        let r2 = Experiments.Corebench.lease_throughput ~timer ~n_clients ~duration in
        let hotspots = Experiments.Corebench.lease_hotspots ~timer ~n_clients ~duration in
        (best r0 (best r1 r2), hotspots))
      clients
  in
  (* The parallel-deployment sweep: the same 10k-client workload through
     the K-shard split deployment at 8 shards, on 1, 2, 4 and 8 domains.
     The recording host's core count rides along so the speedup gate can
     tell a perf regression from hardware that cannot parallelize. *)
  let host_cores = Domain.recommended_domain_count () in
  let split_clients = 10_000 in
  let domain_sweep =
    let duration = span_sec (Experiments.Corebench.sweep_duration_s ~base_s split_clients) in
    let point domains =
      Experiments.Corebench.split_throughput ~timer ~n_clients:split_clients
        ~n_shards:Experiments.Corebench.split_shards ~domains ~duration
    in
    List.map
      (fun domains ->
        ignore (point domains);
        let best a b =
          if a.Experiments.Corebench.d_sim_sec_per_wall_sec
             >= b.Experiments.Corebench.d_sim_sec_per_wall_sec
          then a
          else b
        in
        best (point domains) (best (point domains) (point domains)))
      Experiments.Corebench.domain_counts
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"leases-bench-core/1\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"quick\": %b,\n" quick);
  Buffer.add_string buf
    (Printf.sprintf "  \"event_queue\": {\n    \"push_pop\": { %s },\n"
       (micro_fields push_pop));
  Buffer.add_string buf
    (Printf.sprintf
       "    \"cancel_heavy\": { %s, \"live_target\": %d, \"max_occupied_slots\": %d }\n  },\n"
       (micro_fields cancel_heavy.Experiments.Corebench.g_micro)
       cancel_heavy.Experiments.Corebench.live_target
       cancel_heavy.Experiments.Corebench.max_slots);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"lease_table\": {\n    \"churn\": { %s },\n    \"hot_file\": { %s, \"holders\": %d }\n  },\n"
       (micro_fields lease_table) (micro_fields hot_file) Experiments.Corebench.hot_file_holders);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"trace_sink\": {\n    \"null\": { %s },\n    \"ring\": { %s, \"dropped\": %d }\n  },\n"
       (micro_fields trace_sink.Experiments.Corebench.null_sink)
       (micro_fields trace_sink.Experiments.Corebench.ring_sink)
       trace_sink.Experiments.Corebench.ring_dropped);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"msg_classify\": {\n    \"probe_disabled\": { %s },\n    \"probe_enabled\": { %s }\n\
       \  },\n"
       (micro_fields classify.Experiments.Corebench.classify_disabled)
       (micro_fields classify.Experiments.Corebench.classify_enabled));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"telemetry\": {\n    \"probe_disabled\": { %s },\n    \"probe_enabled\": { %s },\n\
       \    \"snapshot\": { %s }\n  },\n"
       (micro_fields telemetry.Experiments.Corebench.probe_disabled)
       (micro_fields telemetry.Experiments.Corebench.probe_enabled)
       (micro_fields telemetry.Experiments.Corebench.snapshot));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"engine_dispatch\": {\n    \"probe_disabled\": { %s },\n    \"probe_enabled\": { %s \
        }\n  },\n"
       (micro_fields dispatch.Experiments.Corebench.dispatch_disabled)
       (micro_fields dispatch.Experiments.Corebench.dispatch_enabled));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"domain_sweep\": {\n    \"n_clients\": %d, \"n_shards\": %d, \"host_cores\": %d,\n\
       \    \"points\": [\n"
       split_clients Experiments.Corebench.split_shards host_cores);
  List.iteri
    (fun i (r : Experiments.Corebench.domain_point) ->
      Buffer.add_string buf
        (Printf.sprintf
           "      { \"domains\": %d, \"sim_seconds\": %s, \"wall_seconds\": %s, \
            \"sim_sec_per_wall_sec\": %s }%s\n"
           r.d_domains (fnum r.d_sim_seconds) (fnum r.d_wall_seconds)
           (fnum r.d_sim_sec_per_wall_sec)
           (if i = List.length domain_sweep - 1 then "" else ",")))
    domain_sweep;
  Buffer.add_string buf "    ]\n  },\n";
  Buffer.add_string buf "  \"end_to_end\": [\n";
  List.iteri
    (fun i ((r : Experiments.Corebench.throughput), hotspots) ->
      let hs =
        List.map
          (fun (h : Experiments.Corebench.hotspot) ->
            Printf.sprintf "{ \"center\": \"%s\", \"wall_pct\": %s, \"hits\": %d }"
              (json_escape h.h_center) (fnum h.h_wall_pct) h.h_hits)
          (match hotspots with a :: b :: c :: _ -> [ a; b; c ] | short -> short)
      in
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"n_clients\": %d, \"sim_seconds\": %s, \"wall_seconds\": %s, \
            \"sim_sec_per_wall_sec\": %s,\n      \"hotspots\": [ %s ] }%s\n"
           r.n_clients (fnum r.sim_seconds) (fnum r.wall_seconds) (fnum r.sim_sec_per_wall_sec)
           (String.concat ", " hs)
           (if i = List.length end_to_end - 1 then "" else ",")))
    end_to_end;
  Buffer.add_string buf "  ]\n}\n";
  let report = Buffer.contents buf in
  Printf.printf
    "event queue : push+pop %.2f Mops/s; cancel-heavy %.2f Mops/s, peak %d slots for %d live\n"
    (push_pop.Experiments.Corebench.ops_per_sec /. 1e6)
    (cancel_heavy.Experiments.Corebench.g_micro.Experiments.Corebench.ops_per_sec /. 1e6)
    cancel_heavy.Experiments.Corebench.max_slots cancel_heavy.Experiments.Corebench.live_target;
  Printf.printf "lease table : churn %.2f Mops/s; hot file (%d holders) %.2f Mops/s\n"
    (lease_table.Experiments.Corebench.ops_per_sec /. 1e6)
    Experiments.Corebench.hot_file_holders
    (hot_file.Experiments.Corebench.ops_per_sec /. 1e6);
  Printf.printf "trace sink  : null %.2f Mops/s; ring %.2f Mops/s\n"
    (trace_sink.Experiments.Corebench.null_sink.Experiments.Corebench.ops_per_sec /. 1e6)
    (trace_sink.Experiments.Corebench.ring_sink.Experiments.Corebench.ops_per_sec /. 1e6);
  Printf.printf "msg classify: tracing off %.2f Mops/s, on %.2f Mops/s\n"
    (classify.Experiments.Corebench.classify_disabled.Experiments.Corebench.ops_per_sec /. 1e6)
    (classify.Experiments.Corebench.classify_enabled.Experiments.Corebench.ops_per_sec /. 1e6);
  Printf.printf
    "telemetry   : probe off %.2f Mops/s, on %.2f Mops/s; snapshot %.1f Kops/s\n"
    (telemetry.Experiments.Corebench.probe_disabled.Experiments.Corebench.ops_per_sec /. 1e6)
    (telemetry.Experiments.Corebench.probe_enabled.Experiments.Corebench.ops_per_sec /. 1e6)
    (telemetry.Experiments.Corebench.snapshot.Experiments.Corebench.ops_per_sec /. 1e3);
  Printf.printf "dispatch    : profiler off %.2f Mevents/s, on %.2f Mevents/s\n"
    (dispatch.Experiments.Corebench.dispatch_disabled.Experiments.Corebench.ops_per_sec /. 1e6)
    (dispatch.Experiments.Corebench.dispatch_enabled.Experiments.Corebench.ops_per_sec /. 1e6);
  List.iter
    (fun ((r : Experiments.Corebench.throughput), hotspots) ->
      let top =
        (* every center still holding >= 2% of the wall, hottest first, so
           a sweep line shows the whole cost distribution at a glance *)
        match
          List.filter
            (fun (h : Experiments.Corebench.hotspot) -> h.h_wall_pct >= 2.)
            hotspots
        with
        | [] -> ""
        | hot ->
          Printf.sprintf "  (%s)"
            (String.concat ", "
               (List.map
                  (fun (h : Experiments.Corebench.hotspot) ->
                    Printf.sprintf "%s %.0f%%" h.h_center h.h_wall_pct)
                  hot))
      in
      Printf.printf "end-to-end  : N=%-5d  %.0f sim-s in %.2f s  =  %.0f sim-s/s%s\n" r.n_clients
        r.sim_seconds r.wall_seconds r.sim_sec_per_wall_sec top)
    end_to_end;
  List.iter
    (fun (r : Experiments.Corebench.domain_point) ->
      Printf.printf
        "parallel    : N=%d/%d shards, domains=%d  %.0f sim-s in %.2f s  =  %.0f sim-s/s\n"
        split_clients Experiments.Corebench.split_shards r.d_domains r.d_sim_seconds
        r.d_wall_seconds r.d_sim_sec_per_wall_sec)
    domain_sweep;
  Printf.printf "parallel    : host cores %d\n" host_cores;
  report

let main quick out clients gate tolerance min_speedup compare =
  let full_gate ~baseline ~current_text =
    let sweep_status = run_gate ~tolerance ~baseline ~current_text in
    let speedup_status = run_speedup_gate ~min_speedup ~current_text in
    if sweep_status <> 0 then sweep_status else speedup_status
  in
  match compare with
  | Some current_path -> (
    (* Compare-only mode: no benches run; --gate names the baseline. *)
    match gate with
    | None ->
      Printf.eprintf "leases-bench-core: --compare requires --gate BASELINE\n";
      1
    | Some baseline -> (
      match read_file current_path with
      | exception Sys_error reason ->
        Printf.eprintf "leases-bench-core: cannot read %s: %s\n" current_path reason;
        1
      | current_text -> full_gate ~baseline ~current_text))
  | None -> (
    if clients = [] then begin
      Printf.eprintf "leases-bench-core: --clients needs at least one count\n";
      1
    end
    else if List.exists (fun n -> n < 1) clients then begin
      Printf.eprintf "leases-bench-core: client counts must be positive\n";
      1
    end
    else begin
      let report = run_benches quick clients in
      (match open_out out with
      | oc ->
        output_string oc report;
        close_out oc
      | exception Sys_error reason ->
        Printf.eprintf "leases-bench-core: cannot write %s: %s\n" out reason;
        exit 1);
      Printf.printf "wrote %s\n" (json_escape out);
      match gate with
      | None -> 0
      | Some baseline -> full_gate ~baseline ~current_text:report
    end)

open Cmdliner

let quick_arg =
  let doc = "Smaller op counts and shorter traces: noisier numbers, much faster." in
  Arg.(value & flag & info [ "q"; "quick" ] ~doc)

let out_arg =
  let doc = "Output path for the JSON record." in
  Arg.(value & opt string "BENCH_core.json" & info [ "o"; "output" ] ~docv:"PATH" ~doc)

let clients_arg =
  let doc =
    "Comma-separated client counts for the end-to-end sweep.  Simulated duration scales down \
     past 100 clients so the event count stays roughly flat."
  in
  Arg.(
    value
    & opt (list int) Experiments.Corebench.client_counts
    & info [ "clients" ] ~docv:"N,N,..." ~doc)

let gate_arg =
  let doc =
    "Compare the end-to-end sweep against this baseline BENCH_core.json and exit non-zero when \
     any common sweep point regresses past the tolerance."
  in
  Arg.(value & opt (some string) None & info [ "gate" ] ~docv:"BASELINE" ~doc)

let tolerance_arg =
  let doc =
    "Minimum acceptable current/baseline ratio of sim-s per wall-s at every sweep point \
     (0.75 = fail on a >25% regression)."
  in
  Arg.(value & opt float 0.75 & info [ "tolerance" ] ~docv:"RATIO" ~doc)

let min_speedup_arg =
  let doc =
    "Minimum acceptable sim-s/wall-s speedup of --domains 4 over --domains 1 in the \
     domain_sweep section, enforced with --gate only when the recording host has at least 4 \
     cores (fewer cores time-slice the domains; the measurement is recorded but not gated)."
  in
  Arg.(value & opt float 2.5 & info [ "min-speedup" ] ~docv:"RATIO" ~doc)

let compare_arg =
  let doc =
    "Skip the benchmarks and gate this existing BENCH_core.json against the --gate baseline."
  in
  Arg.(value & opt (some string) None & info [ "compare" ] ~docv:"PATH" ~doc)

let cmd =
  let doc = "Benchmark the simulation-core hot paths and emit BENCH_core.json." in
  Cmd.v
    (Cmd.info "leases-bench-core" ~doc)
    Term.(
      const main $ quick_arg $ out_arg $ clients_arg $ gate_arg $ tolerance_arg $ min_speedup_arg
      $ compare_arg)

let () = exit (Cmd.eval' cmd)
