(* Campaign harness: seeded generation must be deterministic and
   prefix-stable, full campaign reports byte-identical, generated fault
   specs must round-trip through the shared parser, and the server's
   write-queue table must drain back to empty (the queued-entry leak). *)

open Simtime

let commands scheds = List.map Fault_campaign.Schedule.to_command scheds

let test_generation_deterministic () =
  let a = commands (Fault_campaign.Gen.schedules ~seed:42 ~n:6) in
  let b = commands (Fault_campaign.Gen.schedules ~seed:42 ~n:6) in
  Alcotest.(check (list string)) "same seed, same schedules" a b;
  let c = commands (Fault_campaign.Gen.schedules ~seed:43 ~n:6) in
  Alcotest.(check bool) "different seed differs" false (a = c)

let test_generation_prefix_stable () =
  let six = commands (Fault_campaign.Gen.schedules ~seed:42 ~n:6) in
  let three = commands (Fault_campaign.Gen.schedules ~seed:42 ~n:3) in
  Alcotest.(check (list string)) "schedule i independent of n" three
    (List.filteri (fun i _ -> i < 3) six)

let test_pinned_seed_schedule () =
  (* pins the whole derivation chain: splitmix splits, draw order, fault
     grammar and number formatting *)
  match Fault_campaign.Gen.schedules ~seed:1 ~n:1 with
  | [ s ] ->
    Alcotest.(check string) "seed 1, schedule 0"
      "leases-sim -p leases -t 10 -n 5 -d 47 -s -6894164319213084917 -w bursty --loss \
       0.1593918509 --fault 'crash-client=3,9.076349,23.339903' --fault \
       'client-step=2,7.921407,9.840989' --fault 'server-drift=33.956426,-0.529099612097' \
       --fault 'server-drift=41.337524,0'"
      (Fault_campaign.Schedule.to_command s)
  | _ -> Alcotest.fail "expected exactly one schedule"

let test_fault_specs_round_trip () =
  List.iter
    (fun s ->
      List.iter
        (fun f ->
          let spec = Leases.Sim.fault_to_spec f in
          match Leases.Sim.fault_of_spec spec with
          | Ok f' -> Alcotest.(check string) ("round-trip " ^ spec) spec (Leases.Sim.fault_to_spec f')
          | Error why -> Alcotest.fail (Printf.sprintf "spec %S does not parse: %s" spec why))
        s.Fault_campaign.Schedule.faults)
    (Fault_campaign.Gen.schedules ~seed:42 ~n:10)

let test_shard_indexed_clock_fault_specs () =
  let parses spec expect =
    match Leases.Sim.fault_of_spec spec with
    | Ok f -> Alcotest.(check string) ("parse " ^ spec) expect (Leases.Sim.fault_to_spec f)
    | Error why -> Alcotest.fail (Printf.sprintf "spec %S does not parse: %s" spec why)
  in
  (* two-argument legacy form is shard 0 and prints back without the index *)
  parses "server-drift=40,-0.5" "server-drift=40,-0.5";
  parses "server-step=12.5,2" "server-step=12.5,2";
  (* three-argument form carries the shard and round-trips with it *)
  parses "server-drift=2,40,-0.5" "server-drift=2,40,-0.5";
  parses "server-step=3,12.5,-2" "server-step=3,12.5,-2";
  (match Leases.Sim.fault_of_spec "server-drift=2,40,-0.5" with
  | Ok (Leases.Sim.Server_drift { shard; _ }) -> Alcotest.(check int) "shard index" 2 shard
  | _ -> Alcotest.fail "three-argument server-drift must carry its shard");
  (* garbage times are a parse error, not an escaping exception *)
  List.iter
    (fun spec ->
      match Leases.Sim.fault_of_spec spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "spec %S must be rejected" spec)
    [
      "server-drift=nan,0.5";
      "server-step=1e300,2";
      "crash-server=nan,5";
      (* indices are whole and non-negative: no truncation, no NaN, no
         negative host ids *)
      "crash-client=1.7,10,5";
      "crash-client=nan,10,5";
      "crash-shard=-1,10,5";
      (* plain decimals only: OCaml literal syntax is not reinterpreted
         (these read as client 1 and 16 s) *)
      "crash-client=1_,10,5";
      "crash-server=0x1p4,5";
      "client-drift=0,10,infinity";
    ]

let test_campaign_report_byte_identical () =
  let report () =
    Trace.Json.to_string
      (Fault_campaign.Harness.to_json
         (Fault_campaign.Harness.run ~shrink:false ~seed:5 ~schedules:2 ()))
  in
  let a = report () in
  Alcotest.(check string) "same seed, same bytes" a (report ())

let test_sharded_schedules_generated () =
  (* ~25% of schedules shard the namespace; each sharded schedule carries a
     shard-failover fault and reproduces via --shards *)
  let scheds = Fault_campaign.Gen.schedules ~seed:7 ~n:20 in
  let sharded = List.filter (fun s -> s.Fault_campaign.Schedule.n_shards > 1) scheds in
  Alcotest.(check bool) "some schedules are sharded" true (sharded <> []);
  List.iter
    (fun s ->
      let cmd = Fault_campaign.Schedule.to_command s in
      let has sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length cmd && (String.sub cmd i n = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) ("command reproduces sharding: " ^ cmd) true (has "--shards");
      Alcotest.(check bool) ("failover fault present: " ^ cmd) true (has "crash-shard="))
    sharded

let test_sharded_schedule_domain_independent () =
  (* a sharded schedule runs its parts on two domains; the outcome — every
     classification input, the telemetry and the worst write — must be the
     one the parts give on a single domain *)
  match
    List.find_opt
      (fun s -> s.Fault_campaign.Schedule.n_shards > 1)
      (Fault_campaign.Gen.schedules ~seed:1 ~n:25)
  with
  | None -> Alcotest.fail "seed 1 generates no sharded schedule"
  | Some s ->
    let json domains =
      Trace.Json.to_string (Fault_campaign.Runner.to_json (Fault_campaign.Runner.run ~domains s))
    in
    Alcotest.(check string) "same outcome JSON" (json 1) (json 2)

let test_unsafe_budget_small_vs_allowance () =
  Alcotest.(check bool) "unsafe budget under the 100 ms skew allowance" true
    (Fault_campaign.Gen.unsafe_skew_budget_s < 0.1)

(* The queued-write leak: a file's queue entry must disappear once its
   last queued write commits, so [Server.snapshot] reports zero queued
   files after every burst drains. *)

let run_write_burst ops =
  let engine = Engine.create () in
  let liveness = Host.Liveness.create () in
  let partition = Netsim.Partition.create () in
  let net =
    Netsim.Net.create engine ~liveness ~partition ~prop_delay:(Time.Span.of_ms 0.5)
      ~proc_delay:(Time.Span.of_ms 1.) ()
  in
  let n_clients = 3 in
  let server_host = Host.Host_id.of_int 0 in
  let client_hosts = List.init n_clients (fun i -> Host.Host_id.of_int (i + 1)) in
  let store = Vstore.Store.create () in
  let config = Leases.Config.default in
  let server =
    Leases.Server.create ~engine ~clock:(Clock.create engine ()) ~net ~liveness ~host:server_host
      ~clients:client_hosts ~store ~config ()
  in
  let clients =
    Array.of_list
      (List.map
         (fun host ->
           Leases.Client.create ~engine ~clock:(Clock.create engine ()) ~net ~liveness ~host
             ~server:server_host ~config ())
         client_hosts)
  in
  let completed = ref 0 in
  List.iter
    (fun (at_ms, client, file) ->
      ignore
        (Engine.schedule_at engine
           (Time.of_sec (float_of_int at_ms /. 1000.))
           (fun () ->
             Leases.Client.write clients.(client) (Vstore.File_id.of_int file) ~k:(fun _ ->
                 incr completed))))
    ops;
  Engine.run engine;
  (server, !completed)

let queued_drains_to_zero =
  QCheck.Test.make ~name:"queued table empty after write bursts drain" ~count:60
    QCheck.(
      list_of_size (Gen.int_range 1 25)
        (triple (int_range 1 5_000) (int_range 0 2) (int_range 0 3)))
    (fun ops ->
      let server, completed = run_write_burst ops in
      let snap = Leases.Server.snapshot server in
      completed = List.length ops
      && snap.Leases.Server.queued_files = 0
      && snap.Leases.Server.queued_writes = 0
      && snap.Leases.Server.pending_writes = 0)

let () =
  Alcotest.run "campaign"
    [
      ( "generation",
        [
          Alcotest.test_case "deterministic" `Quick test_generation_deterministic;
          Alcotest.test_case "prefix stable" `Quick test_generation_prefix_stable;
          Alcotest.test_case "pinned seed" `Quick test_pinned_seed_schedule;
          Alcotest.test_case "fault specs round-trip" `Quick test_fault_specs_round_trip;
          Alcotest.test_case "shard-indexed clock faults" `Quick test_shard_indexed_clock_fault_specs;
          Alcotest.test_case "sharded schedules generated" `Quick test_sharded_schedules_generated;
          Alcotest.test_case "sharded schedule: 1 domain = 2 domains" `Quick
            test_sharded_schedule_domain_independent;
          Alcotest.test_case "unsafe budget bounded" `Quick test_unsafe_budget_small_vs_allowance;
        ] );
      ( "harness",
        [ Alcotest.test_case "report byte-identical" `Slow test_campaign_report_byte_identical ] );
      ("server", [ QCheck_alcotest.to_alcotest queued_drains_to_zero ]);
    ]
