(* Benchmark harness.

   Two parts:

   1. Bechamel micro/meso benchmarks — one per reproduced table/figure (the
      cost of regenerating each result) plus micro-benchmarks of the hot
      substrate paths (event queue, PRNG, one simulated virtual minute of
      each consistency protocol).

   2. The experiment outputs themselves, regenerated in quick mode so a
      single `dune exec bench/main.exe` prints every row/series the paper
      reports.  `bin/figures.exe` (no flags) produces the full-length
      versions. *)

open Bechamel
open Toolkit

let span_sec = Simtime.Time.Span.of_sec

(* --- micro: substrate hot paths ------------------------------------- *)

let test_event_queue =
  Test.make ~name:"event-queue push+pop x1000"
    (Staged.stage (fun () ->
         let q = Simtime.Event_queue.create () in
         for i = 0 to 999 do
           ignore (Simtime.Event_queue.push q ~at:(Simtime.Time.of_us ((i * 7919) mod 100_000)) i)
         done;
         let rec drain () = match Simtime.Event_queue.pop q with Some _ -> drain () | None -> () in
         drain ()))

let test_event_queue_cancel_heavy =
  Test.make ~name:"event-queue cancel+push x1000"
    (Staged.stage (fun () ->
         ignore
           (Experiments.Corebench.event_queue_cancel_heavy ~timer:Unix.gettimeofday ~ops:1000)))

let test_lease_table =
  Test.make ~name:"lease-table churn x1000"
    (Staged.stage (fun () ->
         ignore (Experiments.Corebench.lease_table_churn ~timer:Unix.gettimeofday ~ops:1000)))

let test_lease_table_hot_file =
  Test.make ~name:"lease-table hot file x1000"
    (Staged.stage (fun () ->
         ignore (Experiments.Corebench.lease_table_hot_file ~timer:Unix.gettimeofday ~ops:1000)))

let test_prng =
  Test.make ~name:"splitmix64 x1000"
    (Staged.stage
       (let rng = Prng.Splitmix.create ~seed:99L in
        fun () ->
          for _ = 1 to 1000 do
            ignore (Prng.Splitmix.next_int64 rng)
          done))

(* --- meso: one simulated virtual minute per protocol ----------------- *)

let v_minute =
  lazy (Experiments.V_trace.poisson ~duration:(span_sec 60.) ()).Experiments.V_trace.trace

let lease_minute term =
  fun () ->
    ignore
      (Experiments.Runner.run_lease (Experiments.Runner.lease_setup ~term ())
         (Lazy.force v_minute))

let test_lease_sim =
  Test.make ~name:"sim: leases 10s, 60 virtual s"
    (Staged.stage (lease_minute (Analytic.Model.Finite 10.)))

let test_zero_sim =
  Test.make ~name:"sim: zero term, 60 virtual s"
    (Staged.stage (lease_minute (Analytic.Model.Finite 0.)))

let test_callback_sim =
  Test.make ~name:"sim: callbacks, 60 virtual s"
    (Staged.stage (fun () ->
         ignore
           (Baselines.Callback.run Baselines.Callback.default_setup ~trace:(Lazy.force v_minute))))

let test_ttl_sim =
  Test.make ~name:"sim: TTL hints, 60 virtual s"
    (Staged.stage (fun () ->
         ignore
           (Baselines.Ttl_hints.run Baselines.Ttl_hints.default_setup ~trace:(Lazy.force v_minute))))

(* --- one per table/figure: the cost of regenerating it --------------- *)

let quick = span_sec 300.

let test_fig1 =
  Test.make ~name:"experiment: Figure 1"
    (Staged.stage (fun () -> ignore (Experiments.Fig1.run ~duration:quick ())))

let test_fig2 =
  Test.make ~name:"experiment: Figure 2"
    (Staged.stage (fun () -> ignore (Experiments.Fig2.run ~duration:quick ())))

let test_fig3 =
  Test.make ~name:"experiment: Figure 3"
    (Staged.stage (fun () -> ignore (Experiments.Fig3.run ~duration:quick ())))

let test_table2 =
  Test.make ~name:"experiment: Table 2"
    (Staged.stage (fun () -> ignore (Experiments.Table2.run ~duration:quick ())))

let test_claims =
  Test.make ~name:"experiment: in-text claims"
    (Staged.stage (fun () -> ignore (Experiments.Claims.run ~duration:quick ())))

let test_faults =
  Test.make ~name:"experiment: fault drills"
    (Staged.stage (fun () -> ignore (Experiments.Faults.run ())))

let test_writeback =
  Test.make ~name:"experiment: write-back extension"
    (Staged.stage (fun () -> ignore (Experiments.Writeback.run ~duration:quick ())))

let test_future =
  Test.make ~name:"experiment: future systems"
    (Staged.stage (fun () -> ignore (Experiments.Future.run ~duration:quick ())))

let suite =
  Test.make_grouped ~name:"leases"
    [
      test_event_queue;
      test_event_queue_cancel_heavy;
      test_lease_table;
      test_lease_table_hot_file;
      test_prng;
      test_zero_sim;
      test_lease_sim;
      test_callback_sim;
      test_ttl_sim;
      test_fig1;
      test_fig2;
      test_fig3;
      test_table2;
      test_claims;
      test_faults;
      test_writeback;
      test_future;
    ]

let run_bechamel () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:(Some 100) () in
  let raw = Benchmark.all cfg instances suite in
  let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
  let results = Analyze.merge ols instances results in
  let clock = Hashtbl.find results (Measure.label Instance.monotonic_clock) in
  print_endline "benchmark                                     ns/run";
  print_endline "--------------------------------------------  ------------";
  Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) clock []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (name, ols) ->
         match Analyze.OLS.estimates ols with
         | Some (t :: _) -> Printf.printf "%-44s  %12.0f\n" name t
         | Some [] | None -> Printf.printf "%-44s  (no estimate)\n" name)

let run_throughput () =
  print_endline "clients  sim-s    wall-s   sim-s/wall-s";
  print_endline "-------  -------  -------  ------------";
  List.iter
    (fun n_clients ->
      let duration = Experiments.Corebench.sweep_duration_s ~base_s:200. n_clients in
      let r =
        Experiments.Corebench.lease_throughput ~timer:Unix.gettimeofday ~n_clients
          ~duration:(span_sec duration)
      in
      Printf.printf "%-7d  %7.0f  %7.2f  %12.0f\n" r.Experiments.Corebench.n_clients
        r.Experiments.Corebench.sim_seconds r.Experiments.Corebench.wall_seconds
        r.Experiments.Corebench.sim_sec_per_wall_sec)
    Experiments.Corebench.client_counts

let () =
  print_endline "=== Bechamel benchmarks ===";
  run_bechamel ();
  print_newline ();
  print_endline
    "=== Simulation-core throughput (bin/bench_core.exe records this as BENCH_core.json) ===";
  run_throughput ();
  print_newline ();
  print_endline "=== Paper tables and figures (quick mode; bin/figures.exe runs full-length) ===";
  let section title = Printf.printf "\n== %s ==\n\n" title in
  section "Table 2";
  print_endline (Experiments.Table2.run ~duration:(span_sec 2_000.) ()).Experiments.Table2.table;
  section "Figure 1";
  let f1 = Experiments.Fig1.run ~duration:(span_sec 1_000.) () in
  print_endline f1.Experiments.Fig1.table;
  print_endline f1.Experiments.Fig1.knee_note;
  section "Figure 2";
  let f2 = Experiments.Fig2.run ~duration:(span_sec 1_000.) () in
  print_endline f2.Experiments.Fig2.table;
  print_endline f2.Experiments.Fig2.spread_note;
  section "Figure 3";
  let f3 = Experiments.Fig3.run ~duration:(span_sec 1_000.) () in
  print_endline f3.Experiments.Fig3.table;
  print_endline f3.Experiments.Fig3.note;
  section "In-text claims";
  print_endline (Experiments.Claims.run ~duration:(span_sec 1_000.) ()).Experiments.Claims.table;
  section "Section 4 ablations";
  print_endline
    (Experiments.Ablations.run ~duration:(span_sec 500.) ()).Experiments.Ablations.table;
  section "Section 5 fault drills";
  List.iter
    (fun s ->
      Printf.printf "[%s] %s\n"
        (if s.Experiments.Faults.ok then "ok" else "FAIL")
        s.Experiments.Faults.name;
      List.iter (Printf.printf "    %s\n") s.Experiments.Faults.lines)
    (Experiments.Faults.run ()).Experiments.Faults.scenarios;
  section "Section 6 baselines";
  print_endline
    (Experiments.Baselines_cmp.run ~duration:(span_sec 500.) ()).Experiments.Baselines_cmp.table;
  section "Section 3.3 future systems";
  print_endline (Experiments.Future.run ~duration:(span_sec 500.) ()).Experiments.Future.table;
  section "Write-back extension";
  print_endline (Experiments.Writeback.run ~duration:(span_sec 400.) ()).Experiments.Writeback.table;
  section "Lease granularity";
  print_endline
    (Experiments.Granularity.run ~duration:(span_sec 400.) ()).Experiments.Granularity.table;
  section "Adaptive terms";
  print_endline (Experiments.Adaptive.run ~duration:(span_sec 400.) ()).Experiments.Adaptive.table
