(* Tests for the Section-6 baseline protocols: each must be exactly as
   consistent — and exactly as broken — as the paper says it is. *)

open Simtime

let span = Time.Span.of_sec
let sec = Time.of_sec
let file = Vstore.File_id.of_int

let v_trace ?(seed = 3L) ?(clients = 2) duration =
  (Experiments.V_trace.shared_heavy ~seed ~clients ~duration:(span duration) ())
    .Experiments.V_trace.trace

let read_op ~at ~client ~f =
  { Workload.Op.at = sec at; client; kind = Workload.Op.Read; file = f; temporary = false }

let write_op ~at ~client ~f =
  { Workload.Op.at = sec at; client; kind = Workload.Op.Write; file = f; temporary = false }

(* --- polling ----------------------------------------------------------- *)

let test_polling_consistent_and_expensive () =
  let trace = v_trace 1_000. in
  let setup = { Baselines.Polling.default_setup with Baselines.Polling.n_clients = 2 } in
  let m = (Baselines.Polling.run setup ~trace).Leases.Sim.metrics in
  Alcotest.(check int) "always consistent" 0 m.Leases.Metrics.oracle_violations;
  Alcotest.(check (float 0.001)) "never hits" 0. m.Leases.Metrics.hit_ratio;
  Alcotest.(check int) "two messages per read" (2 * m.Leases.Metrics.reads_completed)
    m.Leases.Metrics.msgs_extension

let test_polling_equals_zero_term_lease () =
  let trace = v_trace 500. in
  let polling =
    (Baselines.Polling.run
       { Baselines.Polling.default_setup with Baselines.Polling.n_clients = 2 }
       ~trace)
      .Leases.Sim.metrics
  in
  let zero =
    Experiments.Runner.run_lease
      (Experiments.Runner.lease_setup ~n_clients:2 ~term:(Analytic.Model.Finite 0.) ())
      trace
  in
  Alcotest.(check int) "same message count as a zero-term lease"
    zero.Leases.Metrics.consistency_msgs polling.Leases.Metrics.consistency_msgs

(* --- callbacks ---------------------------------------------------------- *)

let test_callbacks_consistent_when_healthy () =
  let trace = v_trace ~seed:7L 1_000. in
  let setup = { Baselines.Callback.default_setup with Baselines.Callback.n_clients = 2 } in
  let m = (Baselines.Callback.run setup ~trace).Leases.Sim.metrics in
  Alcotest.(check int) "no stale reads without faults" 0 m.Leases.Metrics.oracle_violations;
  Alcotest.(check bool) "cache actually used" true (m.Leases.Metrics.hit_ratio > 0.5);
  Alcotest.(check int) "all writes commit" m.Leases.Metrics.writes_completed
    m.Leases.Metrics.commits

let test_callbacks_break_round () =
  (* scripted: client 1 caches f, client 0 writes it -> break + ack *)
  let f = file 0 in
  let trace =
    Workload.Trace.of_ops
      [ read_op ~at:1. ~client:1 ~f; write_op ~at:2. ~client:0 ~f; read_op ~at:3. ~client:1 ~f ]
  in
  let setup = { Baselines.Callback.default_setup with Baselines.Callback.n_clients = 2 } in
  let outcome = Baselines.Callback.run setup ~trace in
  let m = outcome.Leases.Sim.metrics in
  Alcotest.(check int) "consistent" 0 m.Leases.Metrics.oracle_violations;
  Alcotest.(check bool) "a break was sent" true (m.Leases.Metrics.callbacks_sent >= 1);
  Alcotest.(check int) "break answered" 1 m.Leases.Metrics.approvals_answered

let test_callbacks_stale_under_partition () =
  (* the paper's criticism: the server proceeds after a transport timeout,
     leaving the partitioned client on stale data until its next poll *)
  let f = file 0 in
  let trace =
    Workload.Trace.of_ops
      [
        read_op ~at:1. ~client:1 ~f;
        write_op ~at:5. ~client:0 ~f;
        read_op ~at:15. ~client:1 ~f;
        read_op ~at:30. ~client:1 ~f;
        read_op ~at:200. ~client:1 ~f;
      ]
  in
  let setup =
    {
      Baselines.Callback.default_setup with
      Baselines.Callback.n_clients = 2;
      faults =
        [ Leases.Sim.Partition_clients
            { clients = [ 1 ]; at = sec 2.; duration = span 60. } ];
      poll_period = span 100.;
    }
  in
  let m = (Baselines.Callback.run setup ~trace).Leases.Sim.metrics in
  Alcotest.(check int) "the two partitioned reads are stale" 2
    m.Leases.Metrics.oracle_violations;
  Alcotest.(check bool) "write proceeded quickly (gave up on the holder)" true
    (Stats.Histogram.mean m.Leases.Metrics.write_wait < 5.);
  (* the read after the poll is fresh again: only 2 of 4 reads stale *)
  Alcotest.(check int) "reads all completed" 4 m.Leases.Metrics.reads_completed

let test_callbacks_lost_on_server_crash () =
  (* server crash wipes the callback registry; a client that cached before
     the crash reads stale after a post-crash write, until its next poll *)
  let f = file 0 in
  let trace =
    Workload.Trace.of_ops
      [
        read_op ~at:1. ~client:1 ~f;
        write_op ~at:10. ~client:0 ~f;
        read_op ~at:12. ~client:1 ~f;
      ]
  in
  let setup =
    {
      Baselines.Callback.default_setup with
      Baselines.Callback.n_clients = 2;
      faults = [ Leases.Sim.Crash_server { at = sec 3.; duration = span 2. } ];
    }
  in
  let m = (Baselines.Callback.run setup ~trace).Leases.Sim.metrics in
  Alcotest.(check int) "stale read after registry loss" 1 m.Leases.Metrics.oracle_violations

(* --- TTL hints ----------------------------------------------------------- *)

let test_ttl_stale_within_ttl () =
  let f = file 0 in
  let trace =
    Workload.Trace.of_ops
      [
        read_op ~at:1. ~client:1 ~f;
        write_op ~at:2. ~client:0 ~f;
        read_op ~at:5. ~client:1 ~f; (* within TTL: stale *)
        read_op ~at:20. ~client:1 ~f; (* TTL expired: fresh *)
      ]
  in
  let setup = { Baselines.Ttl_hints.default_setup with Baselines.Ttl_hints.n_clients = 2 } in
  let m = (Baselines.Ttl_hints.run setup ~trace).Leases.Sim.metrics in
  Alcotest.(check int) "exactly the in-TTL read is stale" 1 m.Leases.Metrics.oracle_violations;
  (* staleness bounded by the TTL *)
  Alcotest.(check bool) "staleness < ttl" true
    (Stats.Histogram.quantile m.Leases.Metrics.staleness 1.0 <= 10.)

let test_ttl_writes_never_wait () =
  let trace = v_trace ~seed:11L 1_000. in
  let setup = { Baselines.Ttl_hints.default_setup with Baselines.Ttl_hints.n_clients = 2 } in
  let m = (Baselines.Ttl_hints.run setup ~trace).Leases.Sim.metrics in
  Alcotest.(check (float 1e-6)) "no added write delay" 0. m.Leases.Metrics.mean_write_delay_added;
  Alcotest.(check int) "no approval traffic" 0 m.Leases.Metrics.msgs_approval;
  Alcotest.(check bool) "but reads go stale" true (m.Leases.Metrics.oracle_violations > 0)

let test_ttl_zero_equivalence () =
  (* as the TTL shrinks the staleness disappears and the load approaches
     check-on-use *)
  let trace = v_trace ~seed:13L 500. in
  let run ttl =
    (Baselines.Ttl_hints.run
       { Baselines.Ttl_hints.default_setup with Baselines.Ttl_hints.n_clients = 2; ttl = span ttl }
       ~trace)
      .Leases.Sim.metrics
  in
  let short = run 0.001 in
  let long = run 30. in
  Alcotest.(check int) "microscopic ttl: no staleness" 0 short.Leases.Metrics.oracle_violations;
  Alcotest.(check bool) "long ttl: cheaper but stale" true
    (long.Leases.Metrics.consistency_msgs < short.Leases.Metrics.consistency_msgs
    && long.Leases.Metrics.oracle_violations > 0)

(* --- setup validation ---------------------------------------------------- *)

(* A bad setup fails before the engine starts: with a zero poll period
   the poll loop would reschedule itself at the same instant forever, and
   a negative TTL would silently turn caching off. *)
let test_bad_setups_rejected () =
  let trace = v_trace 100. in
  let callback setup () = ignore (Baselines.Callback.run setup ~trace) in
  let cb = { Baselines.Callback.default_setup with Baselines.Callback.n_clients = 2 } in
  Alcotest.check_raises "zero poll period"
    (Invalid_argument "Callback.run: poll_period must be positive")
    (callback { cb with poll_period = Time.Span.zero });
  Alcotest.check_raises "negative poll period"
    (Invalid_argument "Callback.run: poll_period must be positive")
    (callback { cb with poll_period = span (-1.) });
  Alcotest.check_raises "negative break timeout"
    (Invalid_argument "Callback.run: break_timeout must not be negative")
    (callback { cb with break_timeout = span (-1.) });
  let ttl = { Baselines.Ttl_hints.default_setup with Baselines.Ttl_hints.n_clients = 2 } in
  Alcotest.check_raises "negative ttl" (Invalid_argument "Ttl_hints.run: ttl must not be negative")
    (fun () -> ignore (Baselines.Ttl_hints.run { ttl with ttl = span (-1.) } ~trace))

(* --- goldens ------------------------------------------------------------- *)

(* The metrics document and the digest of the encoded trace that a seeded
   lossy run with crash-client, partition and crash-server faults produced
   before the two baselines were merged onto one server and client
   (committed as golden_baselines_*.json).  Any drift means the merge
   changed what a baseline does, not just how it is written. *)

let read_file path =
  (* dune runtest runs in the test directory; a `dune exec` from the repo
     root finds the goldens one level down *)
  let path = if Sys.file_exists path then path else Filename.concat "test" path in
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let golden_faults () =
  List.map
    (fun spec ->
      match Leases.Sim.fault_of_spec spec with
      | Ok fault -> fault
      | Error why -> Alcotest.failf "fault spec %S: %s" spec why)
    [ "crash-client=1,40,15"; "partition=2+3,90,40"; "crash-server=150,6" ]

let golden_document run =
  let buf = Trace.Sink.buffer () in
  let metrics = (run (Trace.Sink.buffer_sink buf)).Leases.Sim.metrics in
  let lines = List.map Trace.Codec.encode (Trace.Sink.buffer_contents buf) in
  Printf.sprintf "{\"metrics\":%s,\"trace_md5\":\"%s\"}" (Leases.Metrics.to_json metrics)
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))

let check_golden name run =
  Alcotest.(check string)
    (name ^ " matches the pre-merge golden")
    (String.trim (read_file ("golden_baselines_" ^ name ^ ".json")))
    (golden_document run)

let test_golden_callback () =
  let trace = v_trace ~clients:4 300. in
  check_golden "callback" (fun tracer ->
      Baselines.Callback.run
        {
          Baselines.Callback.default_setup with
          Baselines.Callback.seed = 3L;
          n_clients = 4;
          loss = 0.02;
          faults = golden_faults ();
          tracer;
        }
        ~trace)

let test_golden_ttl () =
  let trace = v_trace ~clients:4 300. in
  check_golden "ttl" (fun tracer ->
      Baselines.Ttl_hints.run
        {
          Baselines.Ttl_hints.default_setup with
          Baselines.Ttl_hints.seed = 3L;
          n_clients = 4;
          loss = 0.02;
          faults = golden_faults ();
          tracer;
        }
        ~trace)

(* --- the paper's two-axis comparison ------------------------------------ *)

let test_leases_dominate () =
  (* on the same workload, leases are the only protocol that is both
     within 2x of the cheapest message load and perfectly consistent *)
  let r = Experiments.Baselines_cmp.run ~duration:(span 800.) ~clients:4 () in
  let find name rows =
    List.find (fun (row : Experiments.Baselines_cmp.row) ->
        String.length row.Experiments.Baselines_cmp.name >= String.length name
        && String.sub row.Experiments.Baselines_cmp.name 0 (String.length name) = name)
      rows
  in
  let metric (row : Experiments.Baselines_cmp.row) = row.Experiments.Baselines_cmp.metrics in
  let leases = metric (find "leases" r.Experiments.Baselines_cmp.rows) in
  let polling = metric (find "polling" r.Experiments.Baselines_cmp.rows) in
  let ttl = metric (find "TTL" r.Experiments.Baselines_cmp.rows) in
  Alcotest.(check int) "leases consistent" 0 leases.Leases.Metrics.oracle_violations;
  Alcotest.(check bool) "leases much cheaper than polling" true
    (leases.Leases.Metrics.consistency_msgs * 2 < polling.Leases.Metrics.consistency_msgs);
  Alcotest.(check bool) "ttl inconsistent" true (ttl.Leases.Metrics.oracle_violations > 0);
  (* under partition, only the callback baseline goes stale *)
  let lease_part = metric (find "leases" r.Experiments.Baselines_cmp.partition_rows) in
  let cb_part = metric (find "callbacks" r.Experiments.Baselines_cmp.partition_rows) in
  Alcotest.(check int) "leases still consistent under partition" 0
    lease_part.Leases.Metrics.oracle_violations;
  Alcotest.(check bool) "callbacks stale under partition" true
    (cb_part.Leases.Metrics.oracle_violations > 0)

let () =
  Alcotest.run "baselines"
    [
      ( "polling",
        [
          Alcotest.test_case "consistent + expensive" `Quick test_polling_consistent_and_expensive;
          Alcotest.test_case "equals zero-term lease" `Quick test_polling_equals_zero_term_lease;
        ] );
      ( "callbacks",
        [
          Alcotest.test_case "consistent when healthy" `Quick test_callbacks_consistent_when_healthy;
          Alcotest.test_case "break round" `Quick test_callbacks_break_round;
          Alcotest.test_case "stale under partition" `Quick test_callbacks_stale_under_partition;
          Alcotest.test_case "registry lost on crash" `Quick test_callbacks_lost_on_server_crash;
        ] );
      ( "ttl",
        [
          Alcotest.test_case "stale within ttl" `Quick test_ttl_stale_within_ttl;
          Alcotest.test_case "writes never wait" `Quick test_ttl_writes_never_wait;
          Alcotest.test_case "ttl shrinks to check-on-use" `Quick test_ttl_zero_equivalence;
        ] );
      ( "setup",
        [
          Alcotest.test_case "bad setups rejected" `Quick test_bad_setups_rejected;
          Alcotest.test_case "golden: callbacks unchanged" `Quick test_golden_callback;
          Alcotest.test_case "golden: ttl unchanged" `Quick test_golden_ttl;
        ] );
      ( "comparison",
        [ Alcotest.test_case "leases dominate" `Slow test_leases_dominate ] );
    ]
