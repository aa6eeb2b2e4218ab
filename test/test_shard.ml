(* Sharded deployment: map determinism and balance, clean multi-shard
   runs, shard failover under the max-term rule, per-shard telemetry with
   §3.1 residuals, and the request-id layout's shard field. *)

open Simtime

let span = Time.Span.of_sec
let file = Vstore.File_id.of_int

(* --- shard map ----------------------------------------------------- *)

let test_map_deterministic () =
  let a = Shard.Shard_map.create ~shards:4 () in
  let b = Shard.Shard_map.create ~shards:4 () in
  for i = 0 to 999 do
    Alcotest.(check int)
      (Printf.sprintf "owner of file %d" i)
      (Shard.Shard_map.owner a (file i))
      (Shard.Shard_map.owner b (file i))
  done;
  let c = Shard.Shard_map.create ~shards:4 ~seed:99L () in
  let moved = ref 0 in
  for i = 0 to 999 do
    if Shard.Shard_map.owner a (file i) <> Shard.Shard_map.owner c (file i) then incr moved
  done;
  Alcotest.(check bool) "different seed places differently" true (!moved > 0)

let test_map_balance () =
  let map = Shard.Shard_map.create ~shards:8 () in
  let files = List.init 10_000 file in
  let counts = Shard.Shard_map.spread map files in
  Alcotest.(check int) "total preserved" 10_000 (Array.fold_left ( + ) 0 counts);
  let ideal = 10_000. /. 8. in
  Array.iteri
    (fun s n ->
      let skew = Float.abs ((float_of_int n -. ideal) /. ideal) in
      Alcotest.(check bool)
        (Printf.sprintf "shard %d within 50%% of ideal (%d files)" s n)
        true (skew < 0.5))
    counts

let test_map_stability_under_growth () =
  (* consistent hashing: going from 4 to 5 shards moves roughly 1/5 of the
     keys, not most of them *)
  let four = Shard.Shard_map.create ~shards:4 () in
  let five = Shard.Shard_map.create ~shards:5 () in
  let n = 10_000 in
  let moved = ref 0 in
  for i = 0 to n - 1 do
    let a = Shard.Shard_map.owner four (file i) in
    let b = Shard.Shard_map.owner five (file i) in
    if a <> b then begin
      incr moved;
      Alcotest.(check int) "moved keys land on the new shard" 4 b
    end
  done;
  let frac = float_of_int !moved /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "moved fraction %.3f near 1/5" frac)
    true
    (frac > 0.1 && frac < 0.35)

(* --- deployment ---------------------------------------------------- *)

let sharded_setup ?(n_clients = 6) ?(n_shards = 4) ?(faults = []) ?tracer ?telemetry () =
  let base = Shard.Deploy.default_setup in
  {
    base with
    Shard.Deploy.n_clients;
    n_shards;
    faults;
    tracer = Option.value tracer ~default:base.Shard.Deploy.tracer;
    telemetry_interval_s = telemetry;
  }

let v_trace ?(duration = 300.) ?(clients = 6) () =
  (Experiments.V_trace.poisson ~clients ~duration:(span duration) ()).Experiments.V_trace.trace

let test_sharded_run_clean () =
  let setup = sharded_setup () in
  let trace = v_trace () in
  let outcome = Shard.Deploy.run_split setup ~trace in
  let m = outcome.Shard.Deploy.sp_metrics in
  Alcotest.(check int) "zero oracle violations" 0 m.Leases.Metrics.oracle_violations;
  Alcotest.(check bool) "work happened" true (m.Leases.Metrics.reads_completed > 0);
  Alcotest.(check int) "nothing dropped" 0 m.Leases.Metrics.dropped_ops;
  (* every shard served consistency traffic, and the per-shard loads sum
     to the aggregate *)
  let sum =
    Array.fold_left
      (fun acc sl -> acc + sl.Shard.Deploy.sl_consistency_msgs)
      0 outcome.Shard.Deploy.sp_per_shard
  in
  Alcotest.(check int) "per-shard loads sum to aggregate" m.Leases.Metrics.consistency_msgs sum;
  Array.iter
    (fun sl ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d handled traffic" sl.Shard.Deploy.sl_shard)
        true
        (sl.Shard.Deploy.sl_total_msgs > 0))
    outcome.Shard.Deploy.sp_per_shard

let test_single_shard_matches_sim_load () =
  (* one shard owns every file, so the deployment degenerates to the
     single-server harness: same commits, same oracle verdict *)
  let trace = v_trace ~duration:200. () in
  let sharded = Shard.Deploy.run_split (sharded_setup ~n_shards:1 ()) ~trace in
  let m = sharded.Shard.Deploy.sp_metrics in
  Alcotest.(check int) "zero violations" 0 m.Leases.Metrics.oracle_violations;
  Alcotest.(check int) "one shard carries everything"
    m.Leases.Metrics.consistency_msgs
    sharded.Shard.Deploy.sp_per_shard.(0).Shard.Deploy.sl_consistency_msgs

let test_shard_failover () =
  (* crash one shard's server mid-run: its files stall through the crash
     and the max-term recovery wait, the other shards keep serving, and no
     stale read ever completes (oracle + trace checker agree) *)
  let buf = Trace.Sink.buffer () in
  let faults =
    [ Leases.Sim.Crash_shard { shard = 1; at = Time.of_sec 100.; duration = span 10. } ]
  in
  let setup =
    sharded_setup ~faults ~tracer:(Trace.Sink.buffer_sink buf) ()
  in
  let trace = v_trace ~duration:400. () in
  let outcome = Shard.Deploy.run_split setup ~trace in
  let m = outcome.Shard.Deploy.sp_metrics in
  Alcotest.(check int) "zero oracle violations" 0 m.Leases.Metrics.oracle_violations;
  Alcotest.(check bool) "reads completed" true (m.Leases.Metrics.reads_completed > 0);
  let report =
    Trace.Checker.check
      ~servers:(Shard.Deploy.server_hosts setup)
      ~owner:(fun f -> Shard.Shard_map.owner outcome.Shard.Deploy.sp_map (Vstore.File_id.of_int f))
      (Trace.Sink.buffer_contents buf)
  in
  Alcotest.(check int) "checker: no violations"
    0
    (List.length report.Trace.Checker.violations);
  Alcotest.(check bool) "checker saw hits" true (report.Trace.Checker.checked_hits > 0)

let test_failover_other_shards_keep_serving () =
  (* during the outage window, commits still happen on the surviving
     shards *)
  let faults =
    [ Leases.Sim.Crash_shard { shard = 0; at = Time.of_sec 50.; duration = span 200. } ]
  in
  let setup = sharded_setup ~faults ~telemetry:10. () in
  let trace = v_trace ~duration:300. () in
  let outcome = Shard.Deploy.run_split setup ~trace in
  (match Shard.Deploy.split_telemetry_report setup outcome with
  | None -> Alcotest.fail "telemetry expected"
  | Some reports ->
    (* shard 0's windows show the outage (server down), the others never
       go down *)
    let down_windows shard =
      List.length
        (List.filter
           (fun (w : Telemetry.Sampler.window) -> not w.Telemetry.Sampler.server_up)
           reports.(shard).Shard.Shard_telemetry.sr_windows)
    in
    Alcotest.(check bool) "crashed shard shows down windows" true (down_windows 0 > 0);
    for s = 1 to 3 do
      Alcotest.(check int) (Printf.sprintf "shard %d stayed up" s) 0 (down_windows s)
    done);
  Alcotest.(check int) "zero oracle violations" 0
    outcome.Shard.Deploy.sp_metrics.Leases.Metrics.oracle_violations;
  (* surviving shards committed during the outage: compare their commits
     against a run where shard 0 never crashes — they are within noise *)
  Array.iteri
    (fun s sl ->
      if s <> 0 then
        Alcotest.(check bool)
          (Printf.sprintf "shard %d committed" s)
          true
          (sl.Shard.Deploy.sl_commits > 0))
    outcome.Shard.Deploy.sp_per_shard

let test_per_shard_residuals () =
  let setup = sharded_setup ~telemetry:30. () in
  let trace = v_trace ~duration:600. () in
  let outcome = Shard.Deploy.run_split setup ~trace in
  match Shard.Deploy.split_telemetry_report setup outcome with
  | None -> Alcotest.fail "telemetry expected"
  | Some reports ->
    Alcotest.(check int) "one report per shard" 4 (Array.length reports);
    Array.iter
      (fun r ->
        Alcotest.(check bool)
          (Printf.sprintf "shard %d has windows" r.Shard.Shard_telemetry.sr_shard)
          true
          (r.Shard.Shard_telemetry.sr_summary.Telemetry.Residual.windows > 0);
        Alcotest.(check bool)
          (Printf.sprintf "shard %d residual is finite" r.Shard.Shard_telemetry.sr_shard)
          true
          (Float.is_finite
             r.Shard.Shard_telemetry.sr_summary.Telemetry.Residual.steady_load_residual))
      reports

(* --- goldens --------------------------------------------------------- *)

(* Two seeded CLI-shaped split runs, one clean and one with a shard crash
   and server clock faults, pinned as their metrics document and the md5
   of their encoded merged trace (golden_split_*.json, generated before
   the deployment was reduced to the split path; the md5s were replaced
   once more when one reap pass's lease-expire events took their
   (expiry, holder) order, after checking that the new traces are the
   old lines with only same-instant lease-expire lines reordered).  Any
   drift means a change altered the simulation, not just reorganised it. *)

let read_file path =
  (* dune runtest runs in the test directory; a `dune exec` from the repo
     root finds the goldens one level down *)
  let path = if Sys.file_exists path then path else Filename.concat "test" path in
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Mirrors bin/simulate.ml's sharded setup for `-p leases -t 10` at the
   default 5 ms RTT: propagation (5 - 4) / 2 ms, processing 1 ms. *)
let cli_setup ~seed ~faults () =
  let m_proc = Time.Span.of_ms 1. in
  let m_prop = Time.Span.of_ms 0.5 in
  let base =
    Experiments.Runner.lease_setup ~n_clients:6 ~m_prop ~m_proc ~term:(Analytic.Model.Finite 10.)
      ()
  in
  {
    Shard.Deploy.default_setup with
    Shard.Deploy.seed;
    n_clients = 6;
    n_shards = 4;
    config = base.Leases.Sim.config;
    m_prop;
    m_proc;
    faults;
  }

let cli_trace ~seed ~duration =
  (Experiments.V_trace.poisson ~seed ~clients:6 ~duration:(span duration) ())
    .Experiments.V_trace.trace

let fault_exn spec =
  match Leases.Sim.fault_of_spec spec with
  | Ok fault -> fault
  | Error why -> Alcotest.failf "fault spec %S: %s" spec why

let golden_document setup ~trace =
  let buf = Trace.Sink.buffer () in
  let outcome =
    Shard.Deploy.run_split ~domains:1
      { setup with Shard.Deploy.tracer = Trace.Sink.buffer_sink buf }
      ~trace
  in
  let encoded =
    String.concat ""
      (List.map (fun e -> Trace.Codec.encode e ^ "\n") (Trace.Sink.buffer_contents buf))
  in
  Printf.sprintf "{\"metrics\":%s,\"trace_md5\":\"%s\"}"
    (Leases.Metrics.to_json outcome.Shard.Deploy.sp_metrics)
    (Digest.to_hex (Digest.string encoded))

let test_golden_clean () =
  Alcotest.(check string)
    "clean 4-shard run matches its golden"
    (String.trim (read_file "golden_split_clean.json"))
    (golden_document (cli_setup ~seed:1L ~faults:[] ()) ~trace:(cli_trace ~seed:1L ~duration:300.))

let test_golden_faults () =
  let faults =
    List.map fault_exn [ "crash-shard=1,40,8"; "server-drift=60,0.5"; "server-step=80,-2" ]
  in
  Alcotest.(check string)
    "faulted 4-shard run matches its golden"
    (String.trim (read_file "golden_split_faults.json"))
    (golden_document (cli_setup ~seed:3L ~faults ()) ~trace:(cli_trace ~seed:3L ~duration:120.))

(* --- split deployment ---------------------------------------------- *)

(* One seeded split run's complete observable output: metrics JSON,
   per-shard loads, per-shard telemetry windows, and the merged trace
   (encoded lines, in stream order). *)
let split_observables ~domains ~faults ~duration () =
  let buf = Trace.Sink.buffer () in
  let setup = sharded_setup ~faults ~tracer:(Trace.Sink.buffer_sink buf) ~telemetry:10. () in
  let trace = v_trace ~duration () in
  let outcome = Shard.Deploy.run_split ~domains setup ~trace in
  let windows =
    match Shard.Deploy.split_telemetry_report setup outcome with
    | None -> []
    | Some reports ->
      Array.to_list (Array.map (fun r -> r.Shard.Shard_telemetry.sr_windows) reports)
  in
  ( Leases.Metrics.to_json outcome.Shard.Deploy.sp_metrics,
    outcome.Shard.Deploy.sp_per_shard,
    windows,
    List.map Trace.Codec.encode (Trace.Sink.buffer_contents buf) )

let split_faults () =
  [
    Leases.Sim.Crash_shard { shard = 1; at = Time.of_sec 60.; duration = span 8. };
    fault_exn "server-drift=2,80,0.5";
    fault_exn "crash-client=3,50,15";
  ]

let test_split_domains_equivalent () =
  (* the tentpole's correctness spine: the same seeded split deployment —
     faults, loss-free network, telemetry, tracing — produces identical
     metrics, loads, windows and merged trace whether its four parts run
     on one domain or four *)
  let m1, l1, w1, t1 = split_observables ~domains:1 ~faults:(split_faults ()) ~duration:200. () in
  let m4, l4, w4, t4 = split_observables ~domains:4 ~faults:(split_faults ()) ~duration:200. () in
  Alcotest.(check string) "metrics identical across domain counts" m1 m4;
  Alcotest.(check bool) "per-shard loads identical" true (l1 = l4);
  Alcotest.(check bool) "telemetry windows identical" true (w1 = w4);
  Alcotest.(check bool) "traces non-empty" true (t1 <> []);
  Alcotest.(check (list string)) "merged traces identical" t1 t4

let test_split_failover_checker_parallel () =
  (* the 4-shard failover campaign replayed on 4 domains: the merged
     trace must satisfy the multi-server invariant checker exactly as the
     sequential run does *)
  let buf = Trace.Sink.buffer () in
  let faults =
    [ Leases.Sim.Crash_shard { shard = 1; at = Time.of_sec 100.; duration = span 10. } ]
  in
  let setup = sharded_setup ~faults ~tracer:(Trace.Sink.buffer_sink buf) () in
  let trace = v_trace ~duration:400. () in
  let outcome = Shard.Deploy.run_split ~domains:4 setup ~trace in
  Alcotest.(check int) "zero oracle violations" 0
    outcome.Shard.Deploy.sp_metrics.Leases.Metrics.oracle_violations;
  let report =
    Trace.Checker.check
      ~servers:(Shard.Deploy.server_hosts setup)
      ~owner:(fun f ->
        Shard.Shard_map.owner outcome.Shard.Deploy.sp_map (Vstore.File_id.of_int f))
      (Trace.Sink.buffer_contents buf)
  in
  Alcotest.(check int) "checker: no violations" 0 (List.length report.Trace.Checker.violations);
  Alcotest.(check bool) "checker saw hits" true (report.Trace.Checker.checked_hits > 0)

let test_split_merged_trace_ordered () =
  (* the merged stream is globally time-ordered — what the (timestamp,
     shard) merge promises downstream consumers *)
  let _, _, _, lines = split_observables ~domains:4 ~faults:[] ~duration:120. () in
  Alcotest.(check bool) "trace non-empty" true (lines <> []);
  let buf = Trace.Sink.buffer () in
  let setup = sharded_setup ~tracer:(Trace.Sink.buffer_sink buf) () in
  let _ = Shard.Deploy.run_split ~domains:4 setup ~trace:(v_trace ~duration:120. ()) in
  let rec ordered = function
    | (a : Trace.Event.t) :: (b :: _ as rest) -> a.Trace.Event.at <= b.Trace.Event.at && ordered rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "timestamps non-decreasing" true
    (ordered (Trace.Sink.buffer_contents buf))

let test_single_shard_deploy_is_sim () =
  (* Sim.run and a one-shard run_split build the same cluster through the
     same harness, so a seeded run with clock faults of every kind gives
     the same metrics JSON and the same encoded trace, byte for byte.  The
     part draws its RNG stream from a split of the seed, so the runs stay
     loss-free and crash-free: nothing retransmits, and no draw is made *)
  let faults =
    List.map fault_exn
      [
        "client-drift=4,60,0.3"; "server-drift=70,0.2"; "client-step=5,80,1.5";
        "server-step=90,-1";
      ]
  in
  let trace = v_trace ~duration:150. () in
  List.iter
    (fun seed ->
      let sim_buf = Trace.Sink.buffer () in
      let sim =
        Leases.Sim.run
          {
            Leases.Sim.default_setup with
            Leases.Sim.seed;
            n_clients = 6;
            faults;
            tracer = Trace.Sink.buffer_sink sim_buf;
          }
          ~trace
      in
      let deploy_buf = Trace.Sink.buffer () in
      let deployed =
        Shard.Deploy.run_split
          {
            (sharded_setup ~n_shards:1 ~faults ~tracer:(Trace.Sink.buffer_sink deploy_buf) ()) with
            Shard.Deploy.seed;
          }
          ~trace
      in
      let encoded buf = List.map Trace.Codec.encode (Trace.Sink.buffer_contents buf) in
      Alcotest.(check string)
        (Printf.sprintf "seed %Ld: metrics identical" seed)
        (Leases.Metrics.to_json sim.Leases.Sim.metrics)
        (Leases.Metrics.to_json deployed.Shard.Deploy.sp_metrics);
      Alcotest.(check (list string))
        (Printf.sprintf "seed %Ld: traces identical" seed)
        (encoded sim_buf) (encoded deploy_buf))
    [ 1L; 3L; 7L ]

let test_split_client_faults_traced_once () =
  (* every part holds every client machine and applies its faults, but
     only part 0 traces them: the merged stream shows one crash, one
     recovery and one drift for the faulted client *)
  let buf = Trace.Sink.buffer () in
  let faults = List.map fault_exn [ "crash-client=3,50,15"; "client-drift=3,60,0.5" ] in
  let setup = sharded_setup ~faults ~tracer:(Trace.Sink.buffer_sink buf) () in
  ignore (Shard.Deploy.run_split ~domains:4 setup ~trace:(v_trace ~duration:120. ()));
  let host = Host.Host_id.to_int (Shard.Deploy.client_host setup 3) in
  let count p =
    List.length
      (List.filter (fun (e : Trace.Event.t) -> p e.Trace.Event.ev) (Trace.Sink.buffer_contents buf))
  in
  Alcotest.(check int) "one crash" 1
    (count (function Trace.Event.Crash { host = h } -> h = host | _ -> false));
  Alcotest.(check int) "one recovery" 1
    (count (function Trace.Event.Recover { host = h } -> h = host | _ -> false));
  Alcotest.(check int) "one drift" 1
    (count (function Trace.Event.Clock_drift { host = h; _ } -> h = host | _ -> false))

let test_deploy_deterministic () =
  let trace = v_trace ~duration:120. () in
  let run () =
    let outcome = Shard.Deploy.run_split (sharded_setup ()) ~trace in
    Leases.Metrics.to_json outcome.Shard.Deploy.sp_metrics
  in
  Alcotest.(check string) "same seed, same metrics" (run ()) (run ())

(* --- request-id layout --------------------------------------------- *)

let test_shard_limit () =
  (* the shard field has 6 bits: with 65 shards, part 64's origin for
     client 0 would be client 1's part-0 origin, so the deployment is
     refused before any part runs *)
  let max = Trace.Op_id.max_shards in
  Alcotest.(check int) "64 shards fit" 64 max;
  Alcotest.(check bool) "the last shard's origin stays below the next host" true
    (Trace.Op_id.origin ~host:7 ~shard:(max - 1) < Trace.Op_id.origin ~host:8 ~shard:0);
  Alcotest.check_raises "65 shards refused"
    (Invalid_argument "Deploy.run_split: 65 shards, at most 64 fit the request-id layout")
    (fun () ->
      ignore
        (Shard.Deploy.run_split ~domains:2 (sharded_setup ~n_shards:(max + 1) ())
           ~trace:(v_trace ~duration:10. ())));
  Alcotest.(check bool) "origin refuses shard 64" true
    (match Trace.Op_id.origin ~host:1 ~shard:max with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_op_name_shard_field () =
  (* a part-2 id renders its shard separately instead of folding it into
     the sequence; shard-0 ids print as they always have *)
  let id ~host ~shard seq = Trace.Op_id.origin ~host ~shard + seq in
  Alcotest.(check string) "shard 0" "c4#6" (Trace.Op_id.name (id ~host:4 ~shard:0 6));
  Alcotest.(check string) "shard 2" "c4/s2#6" (Trace.Op_id.name (id ~host:4 ~shard:2 6));
  Alcotest.(check string) "shard 63" "c9/s63#0" (Trace.Op_id.name (id ~host:9 ~shard:63 0));
  (* the ids a split run hands out carry their part's shard *)
  let buf = Trace.Sink.buffer () in
  let setup = sharded_setup ~tracer:(Trace.Sink.buffer_sink buf) () in
  ignore (Shard.Deploy.run_split setup ~trace:(v_trace ~duration:60. ()));
  let a = Trace.Critical_path.create () in
  List.iter (Trace.Critical_path.feed a) (Trace.Sink.buffer_contents buf);
  let named =
    List.map
      (fun (w : Trace.Critical_path.worst) -> w.Trace.Critical_path.w_explain)
      (Trace.Critical_path.report ~k:50 a).Trace.Critical_path.r_worst
  in
  Alcotest.(check bool) "writes reported" true (named <> []);
  Alcotest.(check bool) "no sequence swallowed a shard field" true
    (List.for_all
       (fun line ->
         match String.index_opt line '#' with
         | None -> false
         | Some i ->
           let j = try String.index_from line i ' ' with Not_found -> String.length line in
           int_of_string (String.sub line (i + 1) (j - i - 1)) < 1 lsl 26)
       named)

let () =
  Alcotest.run "shard"
    [
      ( "map",
        [
          Alcotest.test_case "deterministic" `Quick test_map_deterministic;
          Alcotest.test_case "balanced" `Quick test_map_balance;
          Alcotest.test_case "stable under growth" `Quick test_map_stability_under_growth;
        ] );
      ( "deploy",
        [
          Alcotest.test_case "clean sharded run" `Quick test_sharded_run_clean;
          Alcotest.test_case "single shard degenerates" `Quick test_single_shard_matches_sim_load;
          Alcotest.test_case "deterministic" `Quick test_deploy_deterministic;
          Alcotest.test_case "golden: clean run unchanged" `Quick test_golden_clean;
          Alcotest.test_case "golden: faulted run unchanged" `Quick test_golden_faults;
          Alcotest.test_case "one shard is Sim, byte for byte" `Quick test_single_shard_deploy_is_sim;
        ] );
      ( "split",
        [
          Alcotest.test_case "domains 1 = domains 4" `Quick test_split_domains_equivalent;
          Alcotest.test_case "failover checked on 4 domains" `Quick
            test_split_failover_checker_parallel;
          Alcotest.test_case "merged trace time-ordered" `Quick test_split_merged_trace_ordered;
          Alcotest.test_case "client faults traced once" `Quick
            test_split_client_faults_traced_once;
        ] );
      ( "failover",
        [
          Alcotest.test_case "zero stale reads through crash" `Quick test_shard_failover;
          Alcotest.test_case "others keep serving" `Quick test_failover_other_shards_keep_serving;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "per-shard residuals" `Quick test_per_shard_residuals;
        ] );
      ( "op-id",
        [
          Alcotest.test_case "more than 64 shards refused" `Quick test_shard_limit;
          Alcotest.test_case "shard field rendered apart" `Quick test_op_name_shard_field;
        ] );
    ]
