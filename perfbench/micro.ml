(* Outside micro-drivers: each drives one layer through its public
   functions and returns nanoseconds per operation.  The traced run uses
   them to price the layer counts it observed. *)

open Simtime

let now = Unix.gettimeofday

(* Call [batch] (which performs [n] operations) until [min_s] of wall time
   has passed; nanoseconds per operation. *)
let ns_per_op ?(min_s = 0.2) ~n batch =
  let started = now () in
  let ops = ref 0 in
  while !ops = 0 || now () -. started < min_s do
    batch ();
    ops := !ops + n
  done;
  (now () -. started) *. 1e9 /. float_of_int !ops

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Engine dispatch at a given live queue depth: [depth] far-future
   fillers keep the heap that deep while 64 self-rescheduling no-op chains
   run with jittered delays, so every step pops and pushes through a
   heap of the observed size. *)
let engine_ns_per_event ?(profiler = Profile.Recorder.null) ~depth () =
  let engine = Engine.create () in
  Engine.set_profiler engine profiler;
  let far = Time.of_sec 1e6 in
  for _ = 1 to depth do
    ignore (Engine.schedule_at engine far ignore)
  done;
  let x = ref 12345 in
  let rec tick () =
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    ignore (Engine.schedule_after engine (Time.Span.of_us (1 + (!x mod 1000))) tick)
  in
  for _ = 1 to 64 do
    tick ()
  done;
  ns_per_op ~n:10_000 (fun () ->
      for _ = 1 to 10_000 do
        ignore (Engine.step engine)
      done)

(* One unicast send and its delivery to a no-op handler, net of the engine
   dispatch underneath it: the same batch of bare engine events is timed
   alternately and subtracted. *)
let net_ns_per_delivery () =
  let engine = Engine.create () in
  let net =
    Netsim.Net.create engine ~prop_delay:(Time.Span.of_ms 0.5) ~proc_delay:(Time.Span.of_ms 1.) ()
  in
  let src = Host.Host_id.of_int 0 and dst = Host.Host_id.of_int 1 in
  let got = ref 0 in
  Netsim.Net.register net dst (fun _ -> incr got);
  let n = 1_000 in
  let sends () =
    for i = 1 to n do
      Netsim.Net.send net ~src ~dst i
    done;
    Engine.run engine
  in
  let bare () =
    let delay = Time.Span.of_ms 2. in
    for _ = 1 to n do
      ignore (Engine.schedule_after engine delay (fun () -> incr got))
    done;
    Engine.run engine
  in
  let rounds =
    List.init 5 (fun _ -> ns_per_op ~min_s:0.05 ~n sends -. ns_per_op ~min_s:0.05 ~n bare)
  in
  Float.max 0. (median rounds)

(* One grant-path visit to a single file whose [holders] records expire
   staggered: each op renews one holder (round robin) and asks for the
   live count.  Renewals come 10 % slower than the 10 s term, so every op
   finds the file's earliest record expired and pays the reap pass over
   the resident holders — the cost a widely shared file pays on the
   simulator's grant path. *)
let lease_table_ns_per_op ~holders =
  let holders = max 1 holders in
  let table = Leases.Lease_table.create () in
  let file = Vstore.File_id.of_int 0 in
  let term = Time.Span.of_sec 10. in
  let dt_us = max 1 (int_of_float (1.1 *. 10e6 /. float_of_int holders)) in
  let hosts = Array.init holders (fun i -> Host.Host_id.of_int (i + 1)) in
  let i = ref 0 in
  let op () =
    let now = Time.of_us (!i * dt_us) in
    Leases.Lease_table.record table file hosts.(!i mod holders) (Leases.Lease.At (Time.add now term));
    ignore (Leases.Lease_table.live_count table file ~now);
    incr i
  in
  for _ = 1 to holders do
    op ()
  done;
  ns_per_op ~min_s:0.25 ~n:100 (fun () ->
      for _ = 1 to 100 do
        op ()
      done)

(* Per-event cost of an enabled profile recorder at the engine's dispatch
   site: the same no-op chains with and without [make ()] attached. *)
let profiler_ns_per_event ~make =
  let rounds =
    List.init 3 (fun _ ->
        engine_ns_per_event ~profiler:(make ()) ~depth:64 () -. engine_ns_per_event ~depth:64 ())
  in
  Float.max 0. (median rounds)
