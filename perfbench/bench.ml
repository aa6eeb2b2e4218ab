(* The repository benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Three workloads, each one seeded batch run through public entry points
   only (see README.md for why each exists):

   - read-scale   Leases.Sim.run, 10,000 clients, V-trace Poisson, 20 s of
                  trace (two 10 s terms), no faults;
   - write-share  the same write-sharing trace through leases, write-back
                  leases, callbacks and TTL hints, 300 clients, 1 % loss,
                  a crashed leaseholder every 30 s and a partitioned group
                  between crashes;
   - shard-split  Shard.Deploy.run_split on 2 domains, 8 shards, the
                  read-scale trace.

   [--trace 0] repeats the workload for [--seconds] and prints the
   end-to-end metrics (medians over the repetitions, host time in
   reference-seconds: see probe.ml).  [--trace 1] makes
   one traced pass (profiler, counting trace sink, layer handles,
   micro-drivers) and prints the per-layer metrics, the tracing overhead
   and a reconciliation table.  Both modes run every correctness check;
   the last stdout line is the JSON result. *)

open Simtime

let span = Time.Span.of_sec
let instant s = Time.add Time.zero (span s)
let wall = Unix.gettimeofday
let median = Micro.median

type workload = Read_scale | Write_share | Shard_split

let workloads = [ ("read-scale", Read_scale); ("write-share", Write_share); ("shard-split", Shard_split) ]

(* ---- sizing ---- *)

let big_clients = 10_000
let big_trace_s = 20.
let share_clients = 300
let share_trace_s = 600.
let drain_s = 15.
let shards = 8
let domains = 2
let probe_clients = 300
let prefix_cap = 300_000

(* ---- correctness ledger: every run's operations, and the ones that
   ended wrong ---- *)

let attempted = ref 0
let failed = ref 0
let problems = ref []
let problem msg = problems := msg :: !problems

(* A failed check counts every operation of the run it judged. *)
let check what ok ~ops =
  if not ok then begin
    problem what;
    failed := !failed + ops
  end

(* ---- clusters and protocol runs ---- *)

type cluster = { seed : int64; n_clients : int; loss : float; faults : Leases.Sim.fault list }

let fault_free seed n_clients = { seed; n_clients; loss = 0.; faults = [] }

(* Every 30 s one client crashes for 20 s: it still holds leases, so
   writes to its files wait out their terms.  Halfway between crashes a
   group of ten clients is cut off for 5 s — longer than the callback
   server's 3 s break timeout, short of a lease term.  Each fault hits
   different clients, and with one of each per term-scale window the
   fault-driven tail is a steady share of the operations whatever the
   seed. *)
let share_faults =
  List.concat
    (List.init (int_of_float (share_trace_s /. 30.) - 1) (fun k ->
         let t = 30. *. float_of_int (k + 1) in
         [
           Leases.Sim.Crash_client { client = k * 7 mod share_clients; at = instant t; duration = span 20. };
           Leases.Sim.Partition_clients
             {
               clients = List.init 10 (fun i -> ((k * 10) + i + 100) mod share_clients);
               at = instant (t +. 15.);
               duration = span 5.;
             };
         ]))

let share_cluster seed = { seed; n_clients = share_clients; loss = 0.01; faults = share_faults }

let cluster_of w seed = match w with Write_share -> share_cluster seed | _ -> fault_free seed big_clients

let generate w seed =
  match w with
  | Read_scale | Shard_split ->
    Experiments.V_trace.poisson ~seed ~clients:big_clients ~duration:(span big_trace_s) ()
  | Write_share ->
    Experiments.V_trace.shared_heavy ~seed ~clients:share_clients ~duration:(span share_trace_s) ()

let lease_setup c =
  {
    Leases.Sim.default_setup with
    Leases.Sim.seed = c.seed;
    n_clients = c.n_clients;
    loss = c.loss;
    faults = c.faults;
    drain = span drain_s;
  }

(* The split deployment keeps Deploy's default seed whatever the workload
   seed: that seed also places files on the shard ring, and one
   deployment is one ring — the workload seed varies the trace only. *)
let split_setup c =
  {
    Shard.Deploy.default_setup with
    Shard.Deploy.n_clients = c.n_clients;
    n_shards = shards;
    loss = c.loss;
    faults = c.faults;
    drain = span drain_s;
  }

type net_counts = { attempts : int; deliveries : int; drops : int }

type run = {
  protocol : string;
  metrics : Leases.Metrics.t;
  wall_s : float;  (** the run call, timed from outside *)
  ref_s : float;  (** [wall_s] in reference-seconds while calibrating, else [wall_s] *)
  net : net_counts option;  (** where the harness hands out its network *)
}

let timed name f =
  let t0 = wall () in
  let x = Spans.record name f in
  (x, wall () -. t0)

(* ---- host-speed calibration (see probe.ml) ---- *)

(* On only around the timed repetitions of the end-to-end mode.  Back-to-back
   run calls share a probe: the one after a call is the one before the
   next. *)
let calibrating = ref false
let last_probe = ref None
let probes = ref []

let probe () =
  let k = Spans.record "host: probe" Probe.measure in
  last_probe := Some k;
  probes := k :: !probes;
  k

let scale k0 k1 = Probe.ref_s /. ((k0 +. k1) /. 2.)

(* A run call timed from outside, with its reference-seconds. *)
let timed_run name f =
  if not !calibrating then
    let x, w = timed name f in
    (x, w, w)
  else begin
    let k0 = match !last_probe with Some k -> k | None -> probe () in
    let x, w = timed name f in
    (x, w, w *. scale k0 (probe ()))
  end

let net_counts net =
  let module N = Netsim.Net in
  {
    attempts = N.attempts net;
    deliveries = N.deliveries net;
    drops = N.dropped_loss net + N.dropped_partition net + N.dropped_down net;
  }

let run_leases ?(tracer = Trace.Sink.null) ?(profiler = Profile.Recorder.null) ?(hook = ignore) c trace =
  let net = ref None in
  let setup =
    {
      (lease_setup c) with
      tracer;
      profiler;
      on_instruments =
        (fun i ->
          net := Some i.Leases.Sim.i_net;
          hook i);
    }
  in
  let o, wall_s, ref_s = timed_run "leases: Sim.run" (fun () -> Leases.Sim.run setup ~trace) in
  { protocol = "leases"; metrics = o.metrics; wall_s; ref_s; net = Option.map net_counts !net }

let run_wlease c trace =
  let setup =
    {
      Wlease.Wsim.default_setup with
      Wlease.Wsim.seed = c.seed;
      n_clients = c.n_clients;
      loss = c.loss;
      faults = c.faults;
      drain = span drain_s;
    }
  in
  let o, wall_s, ref_s = timed_run "wlease: Wsim.run" (fun () -> Wlease.Wsim.run setup ~trace) in
  { protocol = "wlease"; metrics = o.metrics; wall_s; ref_s; net = None }

let run_callback c trace =
  let setup =
    {
      Baselines.Callback.default_setup with
      Baselines.Callback.seed = c.seed;
      n_clients = c.n_clients;
      loss = c.loss;
      faults = c.faults;
      drain = span drain_s;
      poll_period = span 120.;
    }
  in
  let o, wall_s, ref_s = timed_run "callback: Callback.run" (fun () -> Baselines.Callback.run setup ~trace) in
  { protocol = "callback"; metrics = o.metrics; wall_s; ref_s; net = None }

let run_ttl c trace =
  let setup =
    {
      Baselines.Ttl_hints.default_setup with
      Baselines.Ttl_hints.seed = c.seed;
      n_clients = c.n_clients;
      loss = c.loss;
      faults = c.faults;
      drain = span drain_s;
    }
  in
  let o, wall_s, ref_s = timed_run "ttl: Ttl_hints.run" (fun () -> Baselines.Ttl_hints.run setup ~trace) in
  { protocol = "ttl"; metrics = o.metrics; wall_s; ref_s; net = None }

let four_protocols c trace =
  let leases = run_leases c trace in
  let wlease = run_wlease c trace in
  let callback = run_callback c trace in
  let ttl = run_ttl c trace in
  [ leases; wlease; callback; ttl ]

let split_run ?(tracer = Trace.Sink.null) ?(profilers = [||]) ~domains c trace =
  let setup = { (split_setup c) with tracer; profilers } in
  let o, wall_s, ref_s =
    timed_run (Printf.sprintf "shard: run_split domains=%d" domains) (fun () ->
        Shard.Deploy.run_split ~domains setup ~trace)
  in
  ({ protocol = "split"; metrics = o.sp_metrics; wall_s; ref_s; net = None }, o)

(* One repetition of a workload: the runs whose wall time it measures. *)
let repetition w c trace =
  match w with
  | Read_scale -> [ run_leases c trace ]
  | Write_share -> four_protocols c trace
  | Shard_split -> [ fst (split_run ~domains c trace) ]

(* ---- checks ---- *)

let baseline p = p = "callback" || p = "ttl"

(* Book one run: leases and write-back leases must read nothing stale, a
   fault-free run must drop nothing, the network must conserve attempts,
   and under the write-share partition the baselines must show the stale
   reads they exist to show. *)
let judge ~fault_free ~partitioned r =
  let m = r.metrics in
  let ops = m.Leases.Metrics.ops_issued in
  attempted := !attempted + ops;
  let stale = if baseline r.protocol then 0 else m.oracle_violations in
  let dropped = if fault_free then m.dropped_ops else 0 in
  failed := !failed + stale + dropped;
  if stale > 0 then problem (Printf.sprintf "%s: %d stale reads" r.protocol stale);
  if dropped > 0 then problem (Printf.sprintf "%s: %d operations dropped in a fault-free run" r.protocol dropped);
  if partitioned && baseline r.protocol then
    check (r.protocol ^ ": stale reads under the partition") (m.oracle_violations > 0) ~ops;
  Option.iter
    (fun n ->
      check (r.protocol ^ ": net attempts = deliveries + drops") (n.attempts = n.deliveries + n.drops) ~ops)
    r.net

let judge_all w runs =
  List.iter (judge ~fault_free:(w <> Write_share) ~partitioned:(w = Write_share)) runs

let same_metrics what (a : run) (b : run) =
  check what
    (String.equal (Leases.Metrics.to_json a.metrics) (Leases.Metrics.to_json b.metrics))
    ~ops:b.metrics.ops_issued

let check_determinism = function
  | first :: second :: _ ->
    List.iter2
      (fun a b -> same_metrics (a.protocol ^ ": same seed gives identical Metrics.to_json") a b)
      first second
  | _ -> problem "fewer than two repetitions: determinism unchecked"

(* Counting sink: events by the kinds the checks and layer metrics need,
   plus the first [cap] events for the checker and critical-path
   analyses. *)
type tally = {
  mutable events : int;
  mutable sends : int;
  mutable delivers : int;
  mutable net_drops : int;
  mutable prefix : Trace.Event.t list;
  mutable kept : int;
  cap : int;
}

let tally ~cap = { events = 0; sends = 0; delivers = 0; net_drops = 0; prefix = []; kept = 0; cap }

let counting_sink t ~also =
  {
    Trace.Sink.enabled = true;
    flush = ignore;
    push =
      (fun (e : Trace.Event.t) ->
        t.events <- t.events + 1;
        (match e.ev with
        | Trace.Event.Net_send _ -> t.sends <- t.sends + 1
        | Net_deliver _ -> t.delivers <- t.delivers + 1
        | Net_drop _ -> t.net_drops <- t.net_drops + 1
        | _ -> ());
        if t.kept < t.cap then begin
          t.prefix <- e :: t.prefix;
          t.kept <- t.kept + 1
        end;
        also e);
  }

(* Net conservation read from the trace stream, for runs that hand out no
   network.  A crashed sender's drops carry no send event, so this holds
   as an equality only in fault-free runs. *)
let judge_trace_net (r : run) t =
  check (r.protocol ^ ": traced net sends = deliveries + drops") (t.sends = t.delivers + t.net_drops)
    ~ops:r.metrics.ops_issued

(* ---- set-up: trace generation plus cluster build ---- *)

exception Built

(* A single-server cluster is built when [on_instruments] fires; the run
   is abandoned there.  Deploy has no such hook, so a split cluster's
   build is a run_split over an op-free trace. *)
let build w c trace =
  match w with
  | Shard_split ->
    snd
      (timed "shard: run_split build (op-free trace)" (fun () ->
           ignore (Shard.Deploy.run_split ~domains (split_setup c) ~trace:(Workload.Trace.of_ops []))))
  | Read_scale | Write_share ->
    let t0 = wall () in
    let built = ref nan in
    let setup =
      {
        (lease_setup c) with
        on_instruments =
          (fun _ ->
            built := wall ();
            raise Built);
      }
    in
    (try Spans.record "leases: Sim.run build" (fun () -> ignore (Leases.Sim.run setup ~trace)) with
    | Built -> ());
    !built -. t0

type setup_times = { trace : Workload.Trace.t; fileset : Workload.Fileset.t; gen_s : float; build_s : float; setup_s : float }

(* Repeated until [min_reps] samples and [min_s] seconds, each from a
   collected heap, so the median does not ride on one GC schedule.  Only
   the latest trace is kept: the previous one is dropped before the next
   is generated, so no sample collects over its predecessors' traces and
   the runs that follow start with one trace in the heap. *)
let set_up w c ~min_reps ~min_s =
  let started = wall () in
  let latest = ref None in
  let rec loop acc =
    if List.length acc >= min_reps && wall () -. started >= min_s then acc
    else begin
      latest := None;
      Gc.full_major ();
      let v, gen_s = timed "workload: V_trace generate" (fun () -> generate w c.seed) in
      latest := Some v;
      let build_s = build w c v.Experiments.V_trace.trace in
      loop ((gen_s, build_s) :: acc)
    end
  in
  let samples = loop [] in
  let v = Option.get !latest in
  let pick f = median (List.map f samples) in
  {
    trace = v.trace;
    fileset = v.fileset;
    gen_s = pick fst;
    build_s = pick snd;
    setup_s = pick (fun (g, b) -> g +. b);
  }

(* ---- metric output ---- *)

let out : (string * (float * string)) list ref = ref []
let put name unit value = out := (name, (value, unit)) :: !out

let word_bytes = float_of_int (Sys.word_size / 8)
let mib words = words *. word_bytes /. 1048576.
let ratio a b = if b = 0. then 0. else a /. b
let per a b = ratio (float_of_int a) (float_of_int b)
let completed (m : Leases.Metrics.t) = m.reads_completed + m.writes_completed
let p99_ms h = 1000. *. Stats.Histogram.quantile h 0.99

let sim_metrics (m : Leases.Metrics.t) =
  put "sim.consistency_msgs_per_op" "msgs/op" (per m.consistency_msgs m.ops_issued);
  put "sim.read_delay_mean_ms" "ms" (1000. *. m.mean_read_delay);
  put "sim.write_latency_p99_ms" "ms" (p99_ms m.write_latency)

(* The heap's high-water mark (MiB) while [f] runs, from a collected heap:
   [heap_words] sampled at the end of every major cycle and once more
   when [f] returns.  [top_heap_words] is no substitute: it includes
   whatever ran before [f], and under two domains it is not even
   monotone. *)
let heap_peak f =
  Gc.full_major ();
  let heap () = (Gc.quick_stat ()).heap_words in
  let peak = ref (heap ()) in
  let alarm = Gc.create_alarm (fun () -> peak := max !peak (heap ())) in
  let x = f () in
  peak := max !peak (heap ());
  Gc.delete_alarm alarm;
  (x, mib (float_of_int !peak))

(* ---- --trace 0: end-to-end ---- *)

let end_to_end w ~seed ~seconds =
  let c = cluster_of w seed in
  let v = Spans.record "workload: V_trace generate" (fun () -> generate w c.seed) in
  let total f runs = List.fold_left (fun a r -> a +. f r) 0. runs in
  (* Repetitions, probes included, until [seconds] have passed; another
     starts while at least half of one still fits, so a run measures
     [seconds] on average rather than overshooting by half a repetition.
     Each starts from a collected heap and records its own peak heap. *)
  calibrating := true;
  let rec loop acc spent last =
    if List.length acc >= 2 && spent +. (last /. 2.) >= seconds then List.rev acc
    else begin
      let t0 = wall () in
      let runs, peak = heap_peak (fun () -> repetition w c v.trace) in
      let took = wall () -. t0 in
      loop ((runs, peak) :: acc) (spent +. took) took
    end
  in
  let reps, peaks = List.split (loop [] 0. 0.) in
  calibrating := false;
  let rep_probes = List.rev !probes in
  (* Set-up, sampled right after, is scaled by the mean of every probe in
     the run, one more on its far side included: two probes alone would
     add more noise than the drift they take out. *)
  let s = set_up w c ~min_reps:3 ~min_s:2. in
  ignore (probe ());
  let setup_scale =
    Probe.ref_s /. (List.fold_left ( +. ) 0. !probes /. float_of_int (List.length !probes))
  in
  List.iter (judge_all w) reps;
  check_determinism reps;
  if w = Shard_split then begin
    (* Untimed, so it also carries a counting sink for the conservation
       check that the split's missing network handle otherwise skips. *)
    let t = tally ~cap:0 in
    let one, _ = split_run ~tracer:(counting_sink t ~also:ignore) ~domains:1 c s.trace in
    judge_all w [ one ];
    judge_trace_net one t;
    same_metrics "run_split: domains 1 and 2 give identical merged metrics" one (List.hd (List.hd reps))
  end;
  (* Host-time rates per reference-second; the raw per-host-second ones
     are printed to stderr beside them. *)
  let rate ~per f = median (List.map (fun runs -> total f runs /. total per runs) reps) in
  let ops r = float_of_int (completed r.metrics) and sim r = r.metrics.sim_duration in
  let ref_s r = r.ref_s and wall_s r = r.wall_s in
  put "ops_per_s" "1/s" (rate ~per:ref_s ops);
  put "sim_s_per_wall_s" "s/s" (rate ~per:ref_s sim);
  put "setup_s" "s" (s.setup_s *. setup_scale);
  put "peak_heap_mb" "MiB" (median peaks);
  sim_metrics (List.hd (List.hd reps)).metrics;
  let show f = String.concat " " (List.map (fun x -> Printf.sprintf "%.3f" x) f) in
  Printf.eprintf "end-to-end: %d repetitions\n  wall s: %s\n  reference s: %s\n  probes s: %s\n" (List.length reps)
    (show (List.map (total wall_s) reps))
    (show (List.map (total ref_s) reps))
    (show rep_probes);
  Printf.eprintf "  uncalibrated: ops_per_s %.1f, sim_s_per_wall_s %.3f, setup_s %.4f\n%!" (rate ~per:wall_s ops)
    (rate ~per:wall_s sim) s.setup_s

(* ---- --trace 1: per-layer ---- *)

(* Live lease records at one instant, rebuilt from the grant / release /
   expire / commit stream — how the split deployment, which hands out no
   server handles, is read.  Server clocks are unfaulted there, so
   server-local expiries compare directly with engine time. *)
module Holders = struct
  type t = { files : (int, (int, float) Hashtbl.t) Hashtbl.t; at : float; mutable taken : (int * int) option }

  let create ~at = { files = Hashtbl.create 1024; at; taken = None }

  let live t now =
    Hashtbl.fold
      (fun _ holders (total, most) ->
        let n = Hashtbl.fold (fun _ exp n -> if exp > now then n + 1 else n) holders 0 in
        (total + n, max most n))
      t.files (0, 0)

  let feed t (e : Trace.Event.t) =
    if t.taken = None && e.at >= t.at then t.taken <- Some (live t e.at);
    let holders file =
      match Hashtbl.find_opt t.files file with
      | Some h -> h
      | None ->
        let h = Hashtbl.create 8 in
        Hashtbl.replace t.files file h;
        h
    in
    match e.ev with
    | Trace.Event.Lease_grant { file; holder; server_expiry; _ } ->
      Hashtbl.replace (holders file) holder (Option.value server_expiry ~default:infinity)
    | Lease_release { file; holder; _ } | Lease_expire { file; holder; _ } ->
      Option.iter (fun h -> Hashtbl.remove h holder) (Hashtbl.find_opt t.files file)
    | Commit { file; _ } -> Hashtbl.remove t.files file
    | _ -> ()
end

(* Profile rows summed over one or more recorders. *)
type profile = {
  rows : (Profile.Center.t * (int * float * float)) list;  (** hits, wall s, minor words *)
  p_events : int;
  p_wall : float;  (** sum of the recorders' measured intervals *)
  part_walls : float list;
  samples : Profile.Recorder.sample list;
}

let profile_of recorders =
  let rows =
    List.map
      (fun center ->
        let hits, w, words =
          List.fold_left
            (fun (h, w, m) r ->
              let row = List.find (fun (x : Profile.Recorder.row) -> x.r_center = center) (Profile.Recorder.rows r) in
              (h + row.r_hits, w +. row.r_wall_s, m +. row.r_minor_words))
            (0, 0., 0.) recorders
        in
        (center, (hits, w, words)))
      Profile.Center.all
  in
  let part_walls = List.map Profile.Recorder.measured_wall_s recorders in
  {
    rows;
    p_events = List.fold_left (fun a r -> a + Profile.Recorder.events_total r) 0 recorders;
    p_wall = List.fold_left ( +. ) 0. part_walls;
    part_walls;
    samples = List.concat_map Profile.Recorder.samples recorders;
  }

let row p c = List.assoc c p.rows
let ns_per_hit p c = let h, w, _ = row p c in ratio (w *. 1e9) (float_of_int h)
let wall_share p c = let _, w, _ = row p c in ratio w p.p_wall

(* Minor words only: [Gc.minor_words] is a cheap read, where the default
   [Gc.quick_stat] hook multiplies the recorder's per-event cost. *)
let recorder () = Profile.Recorder.create ~interval_s:1. ~timer:wall ~words:(fun () -> (Gc.minor_words (), 0.)) ()

(* Peak heap growth (MiB) while [f] runs. *)
let heap_growth f =
  Gc.full_major ();
  let base = (Gc.quick_stat ()).heap_words in
  let x, peak = heap_peak f in
  (x, peak -. mib (float_of_int base))

(* Reconciliation: each layer's observed count times its outside-measured
   cost, against the untraced wall.  Engine dispatch and net delivery are
   priced by micro-drivers; the remaining cost centers by their profiled
   self time, scaled down by the recorder's own per-event and per-mark
   cost (also measured outside). *)
let reconcile ~label p ~attempts ~engine_ns ~net_ns ~probe_ns ~untraced =
  let hits_total = List.fold_left (fun a (_, (h, _, _)) -> a + h) 0 p.rows in
  let overhead = 1e-9 *. probe_ns *. (float_of_int p.p_events +. (0.5 *. float_of_int hits_total)) in
  let keep = Float.max 0. (Float.min 1. (ratio (p.p_wall -. overhead) p.p_wall)) in
  let priced n ns = (n, 1e-9 *. ns *. float_of_int n) in
  let lines =
    ("engine/dispatch (micro)", priced p.p_events engine_ns)
    :: ("net/delivery (micro)", priced attempts net_ns)
    :: List.filter_map
         (fun (c, (h, w, _)) ->
           match c with
           | Profile.Center.Engine_dispatch | Net_delivery | Trace_emit | Telemetry_sample -> None
           | _ when w = 0. -> None
           | _ -> Some (Profile.Center.name c ^ " (profiled)", (h, w *. keep)))
         p.rows
  in
  let explained = List.fold_left (fun a (_, (_, s)) -> a +. s) 0. lines in
  Printf.eprintf "\nreconciliation (%s): untraced wall %.3f s, profiler cost %.1f ns/event\n" label untraced
    probe_ns;
  Printf.eprintf "  %-32s %12s %10s %10s %7s\n" "layer" "count" "ns/op" "seconds" "share";
  List.iter
    (fun (name, (n, s)) ->
      Printf.eprintf "  %-32s %12d %10.1f %10.4f %6.1f%%\n" name n
        (ratio (s *. 1e9) (float_of_int n))
        s
        (100. *. ratio s untraced))
    lines;
  let unexplained = ratio (untraced -. explained) untraced in
  Printf.eprintf "  %-32s %12s %10s %10.4f %6.1f%%\n%!" "unexplained remainder" "" "" (untraced -. explained)
    (100. *. unexplained);
  unexplained

let per_layer w ~seed =
  let c = cluster_of w seed in
  let k0 = probe () in
  let s = set_up w c ~min_reps:3 ~min_s:0. in
  let trace = s.trace in
  let n_ops = Workload.Trace.length trace in
  put "workload.gen_ns_per_op" "ns" (ratio (s.gen_s *. 1e9) (float_of_int n_ops));
  put "harness.build_s" "s" s.build_s;
  (* Untraced reference: two repetitions, GC counted over the first. *)
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let r1 = repetition w c trace in
  let g1 = Gc.quick_stat () in
  Gc.full_major ();
  let r2 = repetition w c trace in
  judge_all w (r1 @ r2);
  check_determinism [ r1; r2 ];
  let main = List.hd r1 in
  let m = main.metrics in
  let ops = m.ops_issued in
  let untraced = median [ main.wall_s; (List.hd r2).wall_s ] in
  (* The split's one-domain reference, also untraced: the profiled parts
     below run on one domain, so their reference is this run. *)
  let sequential =
    match w with
    | Shard_split ->
      let one, _ = split_run ~domains:1 c trace in
      judge_all w [ one ];
      same_metrics "run_split: domains 1 and 2 give identical merged metrics" one main;
      put "shard.parallel_efficiency" "ratio" (ratio one.wall_s (float_of_int domains *. untraced));
      one.wall_s
    | Read_scale | Write_share -> untraced
  in
  let ops_all = List.fold_left (fun a r -> a + r.metrics.ops_issued) 0 r1 in
  put "gc.minor_words_per_op" "words/op" (ratio (g1.minor_words -. g0.minor_words) (float_of_int ops_all));
  put "gc.major_collections" "count" (float_of_int (g1.major_collections - g0.major_collections));
  put "oracle.reads_checked" "count" (float_of_int m.oracle_reads);
  put "client.hit_ratio" "ratio" m.hit_ratio;
  put "client.retransmissions_per_miss" "ratio" (per m.retransmissions m.cache_misses);
  put "server.msgs_per_op" "msgs/op" (per m.server_total_msgs ops);
  put "server.write_wait_p99_ms" "ms" (p99_ms m.write_wait);
  (* Traced run: counting sink, plus lease-table occupancy at trace end. *)
  let tally = tally ~cap:prefix_cap in
  let trace_end = Time.Span.to_sec (Workload.Trace.duration trace) in
  let probe_s = ref 0. in
  let live_records = ref 0 and max_holders = ref 0 in
  let traced_wall, traced_ops, split_out =
    match w with
    | Shard_split ->
      let holders = Holders.create ~at:trace_end in
      let r, o = split_run ~tracer:(counting_sink tally ~also:(Holders.feed holders)) ~domains c trace in
      judge_all w [ r ];
      judge_trace_net r tally;
      let live, most = Option.value holders.taken ~default:(Holders.live holders infinity) in
      live_records := live;
      max_holders := most;
      (r.wall_s, r.metrics.ops_issued, Some o)
    | Read_scale | Write_share ->
      let hook (i : Leases.Sim.instruments) =
        ignore
          (Engine.schedule_at i.i_engine (instant trace_end) (fun () ->
               let t0 = wall () in
               Spans.record "server: live_leases at trace end" (fun () ->
                   live_records := (Leases.Server.snapshot i.i_server).lease_records_live;
                   List.iter
                     (fun f -> max_holders := max !max_holders (List.length (Leases.Server.live_leases i.i_server f)))
                     (Workload.Fileset.all s.fileset));
               probe_s := wall () -. t0))
      in
      let r = run_leases ~tracer:(counting_sink tally ~also:ignore) ~hook c trace in
      judge_all w [ r ];
      (r.wall_s -. !probe_s, r.metrics.ops_issued, None)
  in
  put "trace.events_per_op" "events/op" (per tally.events traced_ops);
  put "trace.overhead_ratio" "ratio" (ratio traced_wall untraced);
  put "lease_table.live_records" "count" (float_of_int !live_records);
  put "lease_table.max_holders" "count" (float_of_int !max_holders);
  let attempts, net_drops =
    match main.net with Some n -> (n.attempts, n.drops) | None -> (tally.sends, tally.net_drops)
  in
  put "net.attempts_per_op" "msgs/op" (per attempts ops);
  put "net.drop_share" "ratio" (per net_drops attempts);
  (* Profiled run.  Split parts run on one domain here, so a part's
     profile is not charged for the other domain's stop-the-world minor
     collections. *)
  let recorders, profiled_wall =
    match w with
    | Shard_split ->
      let rs = Array.init shards (fun _ -> recorder ()) in
      let r, _ = split_run ~profilers:rs ~domains:1 c trace in
      (Array.to_list rs, r.wall_s)
    | Read_scale | Write_share ->
      let rec_ = recorder () in
      let r = run_leases ~profiler:rec_ c trace in
      ([ rec_ ], r.wall_s)
  in
  let p = profile_of recorders in
  put "profile.overhead_ratio" "ratio" (ratio profiled_wall sequential);
  put "profile.other_share" "ratio" (wall_share p Profile.Center.Other);
  put "simtime.events" "count" (float_of_int p.p_events);
  let peak_depth = List.fold_left (fun a (x : Profile.Recorder.sample) -> max a x.s_queue_depth) 0 p.samples in
  put "simtime.peak_queue_depth" "count" (float_of_int peak_depth);
  let weighted = List.fold_left (fun a (x : Profile.Recorder.sample) -> a +. (x.s_cancel_ratio *. float_of_int x.s_events)) 0. p.samples in
  let sampled = List.fold_left (fun a (x : Profile.Recorder.sample) -> a + x.s_events) 0 p.samples in
  put "simtime.cancel_ratio" "ratio" (ratio weighted (float_of_int sampled));
  let grant_hits, _, grant_words = row p Profile.Center.Server_grant in
  put "server.grant_ns_per_hit" "ns" (ns_per_hit p Server_grant);
  put "server.grant_words_per_hit" "words" (ratio grant_words (float_of_int grant_hits));
  put "server.write_ns_per_hit" "ns" (ns_per_hit p Server_write);
  put "server.expiry_self_share" "ratio" (wall_share p Server_expiry);
  put "client.op_ns_per_hit" "ns" (ns_per_hit p Client_op);
  put "client.handle_ns_per_hit" "ns" (ns_per_hit p Client_handle);
  (* Micro-drivers at the sizes the run showed. *)
  let engine_ns = Spans.record "micro: engine dispatch" (fun () -> Micro.engine_ns_per_event ~depth:peak_depth ()) in
  let net_ns = Spans.record "micro: net delivery" Micro.net_ns_per_delivery in
  let probe_ns = Spans.record "micro: profiler probe" (fun () -> Micro.profiler_ns_per_event ~make:recorder) in
  put "simtime.ns_per_event" "ns" engine_ns;
  put "net.ns_per_delivery" "ns" net_ns;
  put "lease_table.ns_per_op_at_max_holders" "ns"
    (Spans.record "micro: lease table at max holders" (fun () -> Micro.lease_table_ns_per_op ~holders:!max_holders));
  put "lease_table.ns_per_op_at_10_holders" "ns"
    (Spans.record "micro: lease table at 10 holders" (fun () -> Micro.lease_table_ns_per_op ~holders:10));
  (* The trace-analysis layers, over the captured prefix. *)
  let events = List.rev tally.prefix in
  let n_events = List.length events in
  let servers, owner =
    match split_out with
    | Some o ->
      (Some (Shard.Deploy.server_hosts (split_setup c)),
       Some (fun file -> Shard.Shard_map.owner o.Shard.Deploy.sp_map (Vstore.File_id.of_int file)))
    | None -> (None, None)
  in
  let (report, check_s), checker_mb =
    heap_growth (fun () -> timed "trace: Checker.check" (fun () -> Trace.Checker.check ?servers ?owner events))
  in
  if not (Trace.Checker.ok report) then
    Printf.eprintf "trace checker: %d violations in the first %d events\n%!" (List.length report.violations) n_events;
  put "trace.checker_ns_per_event" "ns" (ratio (check_s *. 1e9) (float_of_int n_events));
  put "trace.checker_heap_mb" "MiB" checker_mb;
  let cp = Trace.Critical_path.create () in
  let (), cp_s = timed "trace: Critical_path.feed" (fun () -> List.iter (Trace.Critical_path.feed cp) events) in
  put "trace.critical_path_ns_per_event" "ns" (ratio (cp_s *. 1e9) (float_of_int n_events));
  (* Protocol timings: write-share times its own four runs; the others run
     the four protocols over their trace's first 300 clients. *)
  let by_protocol =
    match w with
    | Write_share -> List.map2 (fun a b -> (a.protocol, median [ a.wall_s; b.wall_s ], a.metrics)) r1 r2
    | Read_scale | Shard_split ->
      let sub = Workload.Trace.filter trace ~f:(fun op -> op.Workload.Op.client < probe_clients) in
      let runs = four_protocols (fault_free seed probe_clients) sub in
      List.iter (judge ~fault_free:true ~partitioned:false) runs;
      List.map (fun r -> (r.protocol, r.wall_s, r.metrics)) runs
  in
  List.iter (fun (p, s, _) -> put ("protocol." ^ p ^ "_s") "s" s) by_protocol;
  put "baselines.stale_reads" "count"
    (float_of_int
       (List.fold_left
          (fun a (p, _, (m : Leases.Metrics.t)) -> if baseline p then a + m.oracle_violations else a)
          0 by_protocol));
  (* The split layer. *)
  (match w with
  | Shard_split ->
    let walls = p.part_walls in
    put "shard.part_wall_imbalance" "ratio"
      (ratio (List.fold_left Float.max 0. walls) (p.p_wall /. float_of_int (List.length walls)));
    (* Client objects, read as allocation: words run_split allocates on an
       op-free trace, in units of one N-client single-server build. *)
    let allocated () =
      let g = Gc.quick_stat () in
      g.minor_words +. g.major_words -. g.promoted_words
    in
    let words f =
      let a = allocated () in
      f ();
      allocated () -. a
    in
    let empty = Workload.Trace.of_ops [] in
    let split_words =
      words (fun () -> ignore (Shard.Deploy.run_split ~domains:1 (split_setup c) ~trace:empty))
    in
    let sim_words =
      words (fun () ->
          try
            ignore
              (Leases.Sim.run { (lease_setup c) with on_instruments = (fun _ -> raise Built) } ~trace:empty)
          with Built -> ())
    in
    put "shard.client_objects" "count" (Float.round (float_of_int c.n_clients *. ratio split_words sim_words));
    put "reconcile.unexplained_share" "ratio"
      (reconcile ~label:"shard-split, one-domain run" p ~attempts ~engine_ns ~net_ns ~probe_ns ~untraced:sequential)
  | Read_scale | Write_share ->
    put "shard.parallel_efficiency" "ratio" 0.;
    put "shard.part_wall_imbalance" "ratio" 0.;
    put "shard.client_objects" "count" 0.;
    put "reconcile.unexplained_share" "ratio"
      (reconcile ~label:"leases run" p ~attempts ~engine_ns ~net_ns ~probe_ns ~untraced));
  (* How fast the host ran: the probe's mean over the traced pass's ends. *)
  put "host.probe_s" "s" ((k0 +. probe ()) /. 2.)

(* ---- main ---- *)

(* Relative to the repository root, where run.py starts the program. *)
let out_dir = "perfbench/_out"

let usage = "bench.exe --workload read-scale|write-share|shard-split --seed N --seconds S --trace 0|1"

let () =
  if Array.mem "--probe" Sys.argv then begin
    Probe.child ();
    exit 0
  end;
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and traced = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds (--trace 0)");
      ("--trace", Arg.Set_int traced, "0|1 end-to-end or traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
      prerr_endline usage;
      exit 2
  in
  if !traced <> 0 && !traced <> 1 then begin
    prerr_endline usage;
    exit 2
  end;
  let seed = Int64.of_int !seed in
  Spans.record ("workload " ^ !workload) (fun () ->
      if !traced = 1 then per_layer w ~seed else end_to_end w ~seed ~seconds:!seconds);
  (try
     if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
     let path = Filename.concat out_dir (Printf.sprintf "spans-%s-seed%Ld-trace%d.json" !workload seed !traced) in
     Spans.write path;
     Printf.eprintf "spans written to %s\n" path
   with Sys_error e -> Printf.eprintf "spans not written: %s\n" e);
  Printf.eprintf "\nspans (calls, wall s, self s):\n";
  List.iter (fun (name, n, w, self) -> Printf.eprintf "  %-44s %4d %9.3f %9.3f\n" name n w self) (Spans.summary ());
  let metrics = List.rev !out in
  List.iter
    (fun (name, (v, _)) -> if not (Float.is_finite v) then problem (name ^ " is not a finite number"))
    metrics;
  List.iter (fun p -> Printf.eprintf "CHECK FAILED: %s\n" p) (List.rev !problems);
  List.iter (fun (name, (v, unit)) -> Printf.printf "%s = %.12g %s\n" name v unit) metrics;
  let correct = !problems = [] in
  let attempted = max 1 !attempted in
  let failed = min attempted !failed in
  let failed = if correct then failed else max failed 1 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, (v, unit)) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
              (if Float.is_finite v then Printf.sprintf "%.12g" v else "null")
              unit)
          metrics));
  exit (if correct then 0 else 1)
