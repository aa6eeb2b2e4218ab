(* Tests for the write-back (read/write lease) extension: the paper's
   "non-write-through caches" remark and its Section-6 relative, the
   MFS/Echo token scheme. *)

open Simtime

let sec = Time.of_sec
let span = Time.Span.of_sec
let file = Vstore.File_id.of_int

type rig = {
  engine : Engine.t;
  liveness : Host.Liveness.t;
  server : Wlease.Wserver.t;
  clients : Wlease.Wclient.t array;
  store : Vstore.Store.t;
}

let make_rig ?(n = 2) ?(term = span 10.) ?(wconfig = Wlease.Wclient.default_wconfig) () =
  let engine = Engine.create () in
  let liveness = Host.Liveness.create () in
  let net =
    Netsim.Net.create engine ~liveness ~prop_delay:(Time.Span.of_ms 0.5)
      ~proc_delay:(Time.Span.of_ms 1.) ()
  in
  let server_host = Host.Host_id.of_int 0 in
  let store = Vstore.Store.create () in
  let server =
    Wlease.Wserver.create ~engine ~clock:(Clock.create engine ()) ~net ~liveness ~host:server_host
      ~store ~term ()
  in
  let clients =
    Array.init n (fun i ->
        Wlease.Wclient.create ~engine ~clock:(Clock.create engine ()) ~net ~liveness
          ~host:(Host.Host_id.of_int (i + 1)) ~server:server_host ~config:wconfig ())
  in
  { engine; liveness; server; clients; store }

let at rig t f = ignore (Engine.schedule_at rig.engine (sec t) f)

let test_repeat_writes_free () =
  let rig = make_rig ~n:1 () in
  let latencies = ref [] in
  let record w = latencies := Time.Span.to_sec w.Wlease.Wclient.w_latency :: !latencies in
  at rig 1. (fun () -> Wlease.Wclient.write rig.clients.(0) (file 0) ~k:record);
  at rig 2. (fun () -> Wlease.Wclient.write rig.clients.(0) (file 0) ~k:record);
  at rig 3. (fun () -> Wlease.Wclient.write rig.clients.(0) (file 0) ~k:record);
  Engine.run ~until:(sec 4.) rig.engine;
  match List.rev !latencies with
  | [ first; second; third ] ->
    Alcotest.(check bool) "first write pays the acquisition" true (first > 0.004);
    Alcotest.(check (float 0.)) "second is local" 0. second;
    Alcotest.(check (float 0.)) "third is local" 0. third;
    Alcotest.(check int) "three dirty writes buffered" 3
      (Wlease.Wclient.dirty_writes rig.clients.(0) (file 0))
  | _ -> Alcotest.fail "expected three writes"

let test_background_flush () =
  let rig = make_rig ~n:1 () in
  at rig 1. (fun () -> Wlease.Wclient.write rig.clients.(0) (file 0) ~k:(fun _ -> ()));
  (* default write-back delay is 5 s: by t=8 the write must be durable *)
  Engine.run ~until:(sec 8.) rig.engine;
  Alcotest.(check int) "flushed to the store" 1
    (Vstore.Version.to_int (Vstore.Store.current rig.store (file 0)));
  Alcotest.(check int) "dirty buffer drained" 0
    (Wlease.Wclient.dirty_writes rig.clients.(0) (file 0));
  Alcotest.(check bool) "write lease retained after flush" true
    (Wlease.Wclient.holds_lease rig.clients.(0) (file 0) = Some Wlease.Wmessages.Write_lease)

let test_recall_flushes_and_releases () =
  let rig = make_rig () in
  let read_result = ref None in
  at rig 1. (fun () -> Wlease.Wclient.write rig.clients.(0) (file 0) ~k:(fun _ -> ()));
  at rig 2. (fun () -> Wlease.Wclient.read rig.clients.(1) (file 0) ~k:(fun r -> read_result := Some r));
  Engine.run ~until:(sec 5.) rig.engine;
  (match !read_result with
  | Some r ->
    Alcotest.(check int) "reader sees the flushed write" 1
      (Vstore.Version.to_int r.Wlease.Wclient.r_version);
    Alcotest.(check bool) "not dirty for the reader" false r.Wlease.Wclient.r_dirty;
    (* recall + flush + grant: a few round trips, well under a second *)
    Alcotest.(check bool) "reader waited only for the recall round" true
      (Time.Span.to_sec r.Wlease.Wclient.r_latency < 0.05)
  | None -> Alcotest.fail "read never completed");
  Alcotest.(check int) "writer answered the recall" 1
    (Wlease.Wclient.recalls_answered rig.clients.(0));
  Alcotest.(check bool) "writer's lease is gone" true
    (Wlease.Wclient.holds_lease rig.clients.(0) (file 0) = None)

let test_readers_share () =
  let rig = make_rig ~n:3 () in
  at rig 1. (fun () -> Wlease.Wclient.read rig.clients.(0) (file 0) ~k:(fun _ -> ()));
  at rig 1.5 (fun () -> Wlease.Wclient.read rig.clients.(1) (file 0) ~k:(fun _ -> ()));
  at rig 2. (fun () -> Wlease.Wclient.read rig.clients.(2) (file 0) ~k:(fun _ -> ()));
  Engine.run ~until:(sec 3.) rig.engine;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "read leases coexist" true
        (Wlease.Wclient.holds_lease c (file 0) = Some Wlease.Wmessages.Read_lease))
    rig.clients;
  Alcotest.(check int) "no recalls among readers" 0 (Wlease.Wserver.recalls_sent rig.server)

let test_writer_recalls_readers () =
  let rig = make_rig ~n:3 () in
  let w = ref None in
  at rig 1. (fun () -> Wlease.Wclient.read rig.clients.(1) (file 0) ~k:(fun _ -> ()));
  at rig 1.5 (fun () -> Wlease.Wclient.read rig.clients.(2) (file 0) ~k:(fun _ -> ()));
  at rig 2. (fun () -> Wlease.Wclient.write rig.clients.(0) (file 0) ~k:(fun r -> w := Some r));
  Engine.run ~until:(sec 4.) rig.engine;
  (match !w with
  | Some w -> Alcotest.(check bool) "acquired after recalling readers" true w.Wlease.Wclient.w_acquired_lease
  | None -> Alcotest.fail "write never completed");
  Alcotest.(check bool) "readers were recalled" true (Wlease.Wserver.recalls_sent rig.server >= 1);
  Alcotest.(check bool) "reader 1 lost its lease" true
    (Wlease.Wclient.holds_lease rig.clients.(1) (file 0) = None)

let test_crash_loses_dirty_writes_safely () =
  let rig = make_rig () in
  let late = ref None in
  at rig 1. (fun () -> Wlease.Wclient.write rig.clients.(0) (file 0) ~k:(fun _ -> ()));
  at rig 2. (fun () -> Wlease.Wclient.write rig.clients.(0) (file 0) ~k:(fun _ -> ()));
  (* crash before the 5 s write-back delay fires *)
  at rig 3. (fun () -> Host.Liveness.crash rig.liveness (Host.Host_id.of_int 1));
  at rig 20. (fun () -> Wlease.Wclient.read rig.clients.(1) (file 0) ~k:(fun r -> late := Some r));
  Engine.run ~until:(sec 25.) rig.engine;
  Alcotest.(check int) "both buffered writes lost" 2 (Wlease.Wclient.writes_lost rig.clients.(0));
  Alcotest.(check int) "store never saw them" 0
    (Vstore.Version.to_int (Vstore.Store.current rig.store (file 0)));
  match !late with
  | Some r ->
    (* losing invisible writes is safe: the reader consistently sees v0 *)
    Alcotest.(check int) "reader sees version 0" 0 (Vstore.Version.to_int r.Wlease.Wclient.r_version)
  | None -> Alcotest.fail "read never completed"

let test_stale_flush_rejected () =
  (* a partitioned dirty writer cannot land its writes after the server
     has moved on: the epoch check rejects the late flush *)
  let rig = make_rig () in
  let partitioned = Host.Host_id.of_int 1 in
  let net_partition = Netsim.Partition.create () in
  ignore net_partition;
  at rig 1. (fun () -> Wlease.Wclient.write rig.clients.(0) (file 0) ~k:(fun _ -> ()));
  (* isolate the writer by crashing its link: simplest is a crash of the
     writer's network presence via liveness of the server side; here we
     crash the writer itself after its lease has some dirty data, then
     bring it back after the term so its flush retries arrive late *)
  at rig 2. (fun () -> Host.Liveness.crash rig.liveness partitioned);
  at rig 15. (fun () -> Host.Liveness.recover rig.liveness partitioned);
  at rig 16. (fun () -> Wlease.Wclient.write rig.clients.(1) (file 0) ~k:(fun _ -> ()));
  Engine.run ~until:(sec 30.) rig.engine;
  (* the crashed writer lost its buffer at crash; client 1's write lands *)
  Alcotest.(check bool) "successor write committed" true
    (Vstore.Version.to_int (Vstore.Store.current rig.store (file 0)) >= 1)

let test_grant_waits_out_unreachable_writer () =
  (* like the core protocol: an unreachable write-lease holder delays a
     conflicting acquisition by at most the term *)
  let rig = make_rig () in
  let w = ref None in
  at rig 1. (fun () -> Wlease.Wclient.write rig.clients.(0) (file 0) ~k:(fun _ -> ()));
  at rig 2. (fun () -> Host.Liveness.crash rig.liveness (Host.Host_id.of_int 1));
  at rig 3. (fun () -> Wlease.Wclient.write rig.clients.(1) (file 0) ~k:(fun r -> w := Some r));
  Engine.run ~until:(sec 30.) rig.engine;
  match !w with
  | Some w ->
    let wait = Time.Span.to_sec w.Wlease.Wclient.w_latency in
    Alcotest.(check bool) "bounded by the residual term" true (wait > 7. && wait <= 10.5)
  | None -> Alcotest.fail "write never completed"

(* --- scripted peers ---------------------------------------------------- *)

(* One side of the protocol is real, the other is the test: every message
   the real side sends lands in [inbox] (newest first), and [send] puts a
   hand-made message on the wire, so a test can lose a reply or deliver it
   late at will. *)
module Msg = Wlease.Wmessages

type peer = {
  p_engine : Engine.t;
  p_net : Msg.payload Netsim.Net.t;
  inbox : Msg.payload list ref;
}

let make_peer ~scripted =
  let engine = Engine.create () in
  let liveness = Host.Liveness.create () in
  let net =
    Netsim.Net.create engine ~liveness ~prop_delay:(Time.Span.of_ms 0.5)
      ~proc_delay:(Time.Span.of_ms 1.) ()
  in
  let inbox = ref [] in
  let record (env : Msg.payload Netsim.Net.envelope) = inbox := env.payload :: !inbox in
  List.iter (fun host -> Netsim.Net.register net host record) scripted;
  ({ p_engine = engine; p_net = net; inbox }, liveness)

let send peer ~src ~dst payload = Netsim.Net.send peer.p_net ~src ~dst payload

let latest peer pick =
  match List.find_map pick !(peer.inbox) with
  | Some req -> req
  | None -> Alcotest.fail "expected message never arrived"

let test_late_flush_reply_ignored () =
  (* A recalled writer's flush goes unanswered until its write lease has
     expired and a read grant carrying a newer version has replaced the
     entry.  The late flush reply describes the dead write lease: taking
     it would roll the cached copy back to the flushed version and serve
     that stale version as a clean hit. *)
  let server = Host.Host_id.of_int 0 and host = Host.Host_id.of_int 1 in
  let peer, liveness = make_peer ~scripted:[ server ] in
  let client =
    Wlease.Wclient.create ~engine:peer.p_engine ~clock:(Clock.create peer.p_engine ())
      ~net:peer.p_net ~liveness ~host ~server ~config:Wlease.Wclient.default_wconfig ()
  in
  let f = file 0 and version = Vstore.Version.of_int in
  let reply payload = send peer ~src:server ~dst:host payload in
  let acquire_req () =
    latest peer (function Msg.Acquire_request { req; _ } -> Some req | _ -> None)
  in
  let grant mode v =
    let granted = Some (mode, span 10., 1) in
    reply (Msg.Acquire_reply { req = acquire_req (); file = f; version = version v; granted })
  in
  let hit = ref None in
  let at t action = ignore (Engine.schedule_at peer.p_engine (sec t) action) in
  at 1. (fun () -> Wlease.Wclient.write client f ~k:(fun _ -> ()));
  at 1.1 (fun () -> grant Msg.Write_lease 0);
  at 2. (fun () -> reply (Msg.Recall_request { recall = 0; file = f }));
  (* the write lease runs out near t = 11 with its flush unanswered *)
  at 12. (fun () -> Wlease.Wclient.read client f ~k:(fun _ -> ()));
  at 12.1 (fun () -> grant Msg.Read_lease 2);
  at 12.5 (fun () ->
      let req =
        latest peer (function Msg.Flush_request { req; _ } -> Some req | _ -> None)
      in
      reply (Msg.Flush_reply { req; file = f; accepted = Some (version 1, span 10.) }));
  at 13. (fun () -> Wlease.Wclient.read client f ~k:(fun r -> hit := Some r));
  Engine.run ~until:(sec 14.) peer.p_engine;
  match !hit with
  | Some r ->
    Alcotest.(check bool) "served from the read lease" true r.Wlease.Wclient.r_from_cache;
    Alcotest.(check int) "the read grant's version, not the flushed one" 2
      (Vstore.Version.to_int r.Wlease.Wclient.r_version)
  | None -> Alcotest.fail "read never completed"

let test_flush_reply_promises_only_remaining_term () =
  (* A flush renews the writer's lease unless an acquisition is already
     waiting on it, and a reply resent for a duplicate flush renews
     nothing.  Either way the reply must promise only what is left of the
     lease on the server's clock: with the full term, the writer would
     keep serving clean reads after the server has granted the file to
     the waiting acquirer. *)
  let server_host = Host.Host_id.of_int 0 in
  let writer = Host.Host_id.of_int 1 and rival = Host.Host_id.of_int 2 in
  let peer, liveness = make_peer ~scripted:[ writer; rival ] in
  let store = Vstore.Store.create () in
  ignore
    (Wlease.Wserver.create ~engine:peer.p_engine ~clock:(Clock.create peer.p_engine ())
       ~net:peer.p_net ~liveness ~host:server_host ~store ~term:(span 10.) ());
  let f = file 0 in
  let at t action = ignore (Engine.schedule_at peer.p_engine (sec t) action) in
  let to_server src payload = send peer ~src ~dst:server_host payload in
  let acquire src =
    to_server src (Msg.Acquire_request { req = 0; file = f; mode = Msg.Write_lease })
  in
  let epoch () =
    latest peer (function
      | Msg.Acquire_reply { granted = Some (_, _, epoch); _ } -> Some epoch
      | _ -> None)
  in
  let flush req =
    to_server writer (Msg.Flush_request { req; file = f; epoch = epoch (); local_writes = 1 })
  in
  let promised () =
    latest peer (function
      | Msg.Flush_reply { accepted = Some (_, term); _ } -> Some (Time.Span.to_sec term)
      | _ -> None)
  in
  let terms = ref [] in
  let note () = terms := promised () :: !terms in
  (* granted at 1.0015 (server clock), so the lease ends at 11.0015 *)
  at 1. (fun () -> acquire writer);
  at 2. (fun () -> flush 1);
  at 2.5 note;
  (* the renewal at 2.0015 moved the end to 12.0015; the rival now waits *)
  at 3. (fun () -> acquire rival);
  at 4. (fun () -> flush 2);
  at 4.5 note;
  at 5. (fun () -> flush 2);
  at 5.5 note;
  Engine.run ~until:(sec 6.) peer.p_engine;
  match List.rev !terms with
  | [ renewed; waited_on; resent ] ->
    Alcotest.(check (float 1e-6)) "no waiter: a full renewed term" 10. renewed;
    Alcotest.(check (float 1e-6)) "waiter: only the rest of the lease" 8. waited_on;
    Alcotest.(check (float 1e-6)) "resent reply: the rest, a second later" 7. resent
  | _ -> Alcotest.fail "expected three flush replies"

let test_end_to_end_consistent () =
  let clients = 3 in
  let trace =
    (Experiments.V_trace.shared_heavy ~seed:61L ~clients ~duration:(span 1_500.) ())
      .Experiments.V_trace.trace
  in
  let outcome = Wlease.Wsim.run { Wlease.Wsim.default_setup with n_clients = clients } ~trace in
  let m = outcome.Wlease.Wsim.metrics in
  Alcotest.(check int) "no stale clean reads" 0 m.Leases.Metrics.oracle_violations;
  Alcotest.(check int) "all ops complete" 0 m.Leases.Metrics.dropped_ops;
  Alcotest.(check bool) "flushes happened" true (outcome.Wlease.Wsim.flushes_accepted > 0);
  Alcotest.(check int) "no writes lost without faults" 0 outcome.Wlease.Wsim.writes_lost;
  (* every committed write made it into the store *)
  Alcotest.(check int) "commits = writes" m.Leases.Metrics.writes_completed
    (Vstore.Store.commits outcome.Wlease.Wsim.store)

let test_end_to_end_under_faults () =
  let clients = 3 in
  let trace =
    (Experiments.V_trace.shared_heavy ~seed:67L ~clients ~duration:(span 600.) ())
      .Experiments.V_trace.trace
  in
  let setup =
    {
      Wlease.Wsim.default_setup with
      n_clients = clients;
      loss = 0.15;
      faults =
        [
          Leases.Sim.Crash_client { client = 0; at = sec 100.; duration = span 40. };
          Leases.Sim.Partition_clients { clients = [ 1 ]; at = sec 300.; duration = span 30. };
          Leases.Sim.Crash_server { at = sec 450.; duration = span 5. };
        ];
      drain = span 300.;
    }
  in
  let outcome = Wlease.Wsim.run setup ~trace in
  let m = outcome.Wlease.Wsim.metrics in
  Alcotest.(check int) "clean reads never stale under faults" 0
    m.Leases.Metrics.oracle_violations

let test_write_back_beats_write_through_on_writes () =
  (* the point of the extension: a client rewriting the same file (a log,
     a document being saved repeatedly) sees near-zero write latency once
     it holds the write lease, where write-through pays an RPC every
     time *)
  let ops =
    List.init 100 (fun i ->
        {
          Workload.Op.at = sec (1. +. float_of_int i);
          client = 0;
          kind = Workload.Op.Write;
          file = file 0;
          temporary = false;
        })
  in
  let trace = Workload.Trace.of_ops ops in
  let wb = Wlease.Wsim.run Wlease.Wsim.default_setup ~trace in
  let wt = Leases.Sim.run Leases.Sim.default_setup ~trace in
  let wb_write = Stats.Histogram.mean wb.Wlease.Wsim.metrics.Leases.Metrics.write_latency in
  let wt_write = Stats.Histogram.mean wt.Leases.Sim.metrics.Leases.Metrics.write_latency in
  Alcotest.(check bool) "mean write latency collapses" true (wb_write < wt_write /. 10.);
  (* and the data still lands: flushes carried all 100 writes *)
  Alcotest.(check int) "all writes durable" 100
    (Vstore.Version.to_int (Vstore.Store.current wb.Wlease.Wsim.store (file 0)))

let () =
  Alcotest.run "wlease"
    [
      ( "mechanics",
        [
          Alcotest.test_case "repeat writes free" `Quick test_repeat_writes_free;
          Alcotest.test_case "background flush" `Quick test_background_flush;
          Alcotest.test_case "recall flushes + releases" `Quick test_recall_flushes_and_releases;
          Alcotest.test_case "readers share" `Quick test_readers_share;
          Alcotest.test_case "writer recalls readers" `Quick test_writer_recalls_readers;
        ] );
      ( "failures",
        [
          Alcotest.test_case "crash loses dirty writes safely" `Quick
            test_crash_loses_dirty_writes_safely;
          Alcotest.test_case "stale flush rejected" `Quick test_stale_flush_rejected;
          Alcotest.test_case "grant waits out unreachable writer" `Quick
            test_grant_waits_out_unreachable_writer;
          Alcotest.test_case "late flush reply ignored" `Quick test_late_flush_reply_ignored;
          Alcotest.test_case "flush reply promises only the remaining term" `Quick
            test_flush_reply_promises_only_remaining_term;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "consistent" `Quick test_end_to_end_consistent;
          Alcotest.test_case "consistent under faults" `Quick test_end_to_end_under_faults;
          Alcotest.test_case "write latency collapses" `Quick
            test_write_back_beats_write_through_on_writes;
        ] );
    ]
