open Simtime
module Server = Leases.Server
module Client = Leases.Client
module Breakdown = Leases.Breakdown

type window = {
  w_index : int;
  t_start : float;
  t_end : float;
  counters : (string * int) list;
  deltas : (string * int) list;
  reads : int;
  hits : int;
  misses : int;
  commits : int;
  extension_msgs : int;
  approval_msgs : int;
  installed_msgs : int;
  write_transfer_msgs : int;
  read_delay_sum : float;
  read_delay_count : int;
  write_delay_sum : float;
  write_delay_count : int;
  lease_files : int;
  lease_records : int;
  lease_records_live : int;
  pending_writes : int;
  queued_writes : int;
  client_inflight : int;
  client_queued_ops : int;
  in_flight_msgs : int;
  server_up : bool;
  server_recovering : bool;
  skews : (string * float) list;
  by_entity : (string * (int * int) list) list;
  write_phase_sums : (string * float) list;
}

type scalars = {
  mutable p_hits : int;
  mutable p_misses : int;
  mutable p_commits : int;
  mutable p_ext : int;
  mutable p_app : int;
  mutable p_inst : int;
  mutable p_wt : int;
  mutable p_read_sum : float;
  mutable p_read_count : int;
  mutable p_write_sum : float;
  mutable p_write_count : int;
}

(* The merged counter namespace, resolved once per sampler rather than
   formatted and sorted again in every window: each counter's prefixed
   name and cell in sorted name order, and the [(name, value)] pair the
   previous window reported for it — reused as is while the value holds
   still, and the baseline its delta is taken against.  [registered]
   counts the registries' counters when it was built; registries only
   grow, so a changed count means resolving again. *)
type layout = {
  cells : Stats.Counter.t array;
  last : (string * int) array;
  registered : int;
}

type t = {
  interval_s : float;
  mutable inst : Leases.Sim.instruments option;
  mutable layout : layout option;
  mutable last_skews : (string * float) array;
      (** the previous window's per-host skew pairs, names built once *)
  mutable breakdown : Breakdown.t option;
  mutable phase_source : (unit -> (string * float) list) option;
  mutable rev_windows : window list;
  mutable closed : int;
  mutable last_t : float;
  mutable finalized : bool;
  prev_entity : (string, (int, int) Hashtbl.t) Hashtbl.t;
  prev_phases : (string, float) Hashtbl.t;
  prev : scalars;
}

let create ?(interval_s = 10.) () =
  if interval_s <= 0. || not (Float.is_finite interval_s) then
    invalid_arg "Telemetry.Sampler.create: interval must be positive and finite";
  {
    interval_s;
    inst = None;
    layout = None;
    last_skews = [||];
    breakdown = None;
    phase_source = None;
    rev_windows = [];
    closed = 0;
    last_t = 0.;
    finalized = false;
    prev_entity = Hashtbl.create 16;
    prev_phases = Hashtbl.create 8;
    prev =
      {
        p_hits = 0;
        p_misses = 0;
        p_commits = 0;
        p_ext = 0;
        p_app = 0;
        p_inst = 0;
        p_wt = 0;
        p_read_sum = 0.;
        p_read_count = 0;
        p_write_sum = 0.;
        p_write_count = 0;
      };
  }

let interval_s t = t.interval_s

let set_phase_source t source = t.phase_source <- Some source

(* The source reports cumulative per-phase sums; windows carry the
   increments, sparse like [deltas]. *)
let phase_deltas t =
  match t.phase_source with
  | None -> []
  | Some source ->
    List.filter_map
      (fun (name, value) ->
        let prev = Option.value (Hashtbl.find_opt t.prev_phases name) ~default:0. in
        Hashtbl.replace t.prev_phases name value;
        if value <> prev then Some (name, value -. prev) else None)
      (source ())

let registered (inst : Leases.Sim.instruments) =
  Array.fold_left
    (fun acc c -> acc + Stats.Counter.Registry.length (Client.counters c))
    (Stats.Counter.Registry.length (Server.counters inst.i_server))
    inst.i_clients

(* Server registry under "server/", each client's under "client/<i>/",
   globally sorted so exports are byte-stable.  A counter new to the
   namespace starts from a previous value of 0. *)
let build_layout ~previous (inst : Leases.Sim.instruments) =
  let prefixed prefix registry =
    List.map (fun cell -> (prefix ^ Stats.Counter.name cell, cell)) (Stats.Counter.Registry.cells registry)
  in
  let entries =
    prefixed "server/" (Server.counters inst.i_server)
    :: Array.to_list
         (Array.mapi (fun i c -> prefixed (Printf.sprintf "client/%d/" i) (Client.counters c)) inst.i_clients)
    |> List.concat
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> Array.of_list
  in
  let before = Hashtbl.create 64 in
  Option.iter (fun l -> Array.iter (fun (name, v) -> Hashtbl.replace before name v) l.last) previous;
  {
    cells = Array.map snd entries;
    last =
      Array.map
        (fun (name, _) -> (name, Option.value (Hashtbl.find_opt before name) ~default:0))
        entries;
    registered = registered inst;
  }

(* The cumulative merged counter dump and the counters that moved since
   the previous window, with their increments; both sorted by name. *)
let sample_counters t (inst : Leases.Sim.instruments) =
  let layout =
    match t.layout with
    | Some l when l.registered = registered inst -> l
    | previous ->
      let l = build_layout ~previous inst in
      t.layout <- Some l;
      l
  in
  let counters = ref [] and deltas = ref [] in
  for i = Array.length layout.cells - 1 downto 0 do
    let ((name, before) as last) = layout.last.(i) in
    let value = Stats.Counter.value layout.cells.(i) in
    if value = before then counters := last :: !counters
    else begin
      let pair = (name, value) in
      layout.last.(i) <- pair;
      counters := pair :: !counters;
      deltas := (name, value - before) :: !deltas
    end
  done;
  (!counters, !deltas)

let entity_deltas t breakdown =
  List.filter_map
    (fun (label, axis) ->
      let prev =
        match Hashtbl.find_opt t.prev_entity label with
        | Some table -> table
        | None ->
          let table = Hashtbl.create 32 in
          Hashtbl.add t.prev_entity label table;
          table
      in
      let moved =
        List.filter_map
          (fun (key, value) ->
            let before = Option.value (Hashtbl.find_opt prev key) ~default:0 in
            Hashtbl.replace prev key value;
            if value <> before then Some (key, value - before) else None)
          (Breakdown.dump axis)
      in
      if moved = [] then None else Some (label, moved))
    (Breakdown.axes breakdown)

let in_flight_msgs (inst : Leases.Sim.instruments) =
  let net = inst.i_net in
  Netsim.Net.attempts net - Netsim.Net.deliveries net - Netsim.Net.dropped_loss net
  - Netsim.Net.dropped_partition net - Netsim.Net.dropped_down net

(* Skews are integer-microsecond spans converted to seconds, so an
   unchanged reading is the same float and its pair is reused. *)
let skews t (inst : Leases.Sim.instruments) =
  let engine_now = Engine.now inst.i_engine in
  let skew clock = Time.Span.to_sec (Time.diff (Clock.now clock) engine_now) in
  let n = Array.length inst.i_client_clocks in
  if Array.length t.last_skews <> n + 1 then
    t.last_skews <-
      Array.init (n + 1) (fun i -> ((if i = 0 then "server" else Printf.sprintf "client/%d" (i - 1)), nan));
  let pairs = ref [] in
  for i = n downto 0 do
    let ((name, before) as last) = t.last_skews.(i) in
    let value = skew (if i = 0 then inst.i_server_clock else inst.i_client_clocks.(i - 1)) in
    if Float.equal value before then pairs := last :: !pairs
    else begin
      let pair = (name, value) in
      t.last_skews.(i) <- pair;
      pairs := pair :: !pairs
    end
  done;
  !pairs

let take_sample t (inst : Leases.Sim.instruments) =
  let t_end = Time.to_sec (Engine.now inst.i_engine) in
  let counters, deltas = sample_counters t inst in
  let sum f = Array.fold_left (fun acc c -> acc + f c) 0 inst.i_clients in
  let hits = sum Client.hits and misses = sum Client.misses in
  let ext = Server.messages_handled inst.i_server Leases.Messages.Extension in
  let app = Server.messages_handled inst.i_server Leases.Messages.Approval in
  let ins = Server.messages_handled inst.i_server Leases.Messages.Installed in
  let wt = Server.messages_handled inst.i_server Leases.Messages.Write_transfer in
  let commits = Server.commits inst.i_server in
  let read_sum = Stats.Histogram.sum inst.i_read_latency in
  let read_count = Stats.Histogram.count inst.i_read_latency in
  let write_sum = Stats.Histogram.sum inst.i_write_latency in
  let write_count = Stats.Histogram.count inst.i_write_latency in
  let snap = Server.snapshot inst.i_server in
  let p = t.prev in
  let window =
    {
      w_index = t.closed;
      t_start = t.last_t;
      t_end;
      counters;
      deltas;
      reads = hits + misses - p.p_hits - p.p_misses;
      hits = hits - p.p_hits;
      misses = misses - p.p_misses;
      commits = commits - p.p_commits;
      extension_msgs = ext - p.p_ext;
      approval_msgs = app - p.p_app;
      installed_msgs = ins - p.p_inst;
      write_transfer_msgs = wt - p.p_wt;
      read_delay_sum = read_sum -. p.p_read_sum;
      read_delay_count = read_count - p.p_read_count;
      write_delay_sum = write_sum -. p.p_write_sum;
      write_delay_count = write_count - p.p_write_count;
      lease_files = snap.Server.lease_files;
      lease_records = snap.Server.lease_records;
      lease_records_live = snap.Server.lease_records_live;
      pending_writes = snap.Server.pending_writes;
      queued_writes = snap.Server.queued_writes;
      client_inflight = sum Client.inflight_rpcs;
      client_queued_ops = sum Client.queued_ops;
      in_flight_msgs = in_flight_msgs inst;
      server_up = snap.Server.up;
      server_recovering = snap.Server.recovering;
      skews = skews t inst;
      by_entity =
        (match t.breakdown with Some b -> entity_deltas t b | None -> []);
      write_phase_sums = phase_deltas t;
    }
  in
  p.p_hits <- hits;
  p.p_misses <- misses;
  p.p_commits <- commits;
  p.p_ext <- ext;
  p.p_app <- app;
  p.p_inst <- ins;
  p.p_wt <- wt;
  p.p_read_sum <- read_sum;
  p.p_read_count <- read_count;
  p.p_write_sum <- write_sum;
  p.p_write_count <- write_count;
  t.rev_windows <- window :: t.rev_windows;
  t.closed <- t.closed + 1;
  t.last_t <- t_end

let attach t (inst : Leases.Sim.instruments) =
  if t.inst <> None then invalid_arg "Telemetry.Sampler.attach: sampler already attached";
  t.inst <- Some inst;
  let breakdown = Breakdown.create () in
  t.breakdown <- Some breakdown;
  Server.set_breakdown inst.i_server (Some breakdown);
  let engine = inst.i_engine in
  let rec arm k =
    let boundary = Time.of_sec (float_of_int k *. t.interval_s) in
    if Time.(boundary > Engine.now engine) then
      ignore
        (Engine.schedule_at engine boundary (fun () ->
             (let p = Engine.profiler engine in
              if Profile.Recorder.enabled p then
                Profile.Recorder.mark p Profile.Center.Telemetry_sample);
             take_sample t inst;
             arm (k + 1)))
    else arm (k + 1)
  in
  arm 1

let finalize t =
  match t.inst with
  | None -> ()
  | Some inst ->
    if not t.finalized then begin
      t.finalized <- true;
      let now = Time.to_sec (Engine.now inst.i_engine) in
      if now > t.last_t then take_sample t inst
    end

let windows t = List.rev t.rev_windows

let max_abs_skew w =
  List.fold_left (fun acc (_, s) -> Float.max acc (Float.abs s)) 0. w.skews

let consistency_msgs w = w.extension_msgs + w.approval_msgs + w.installed_msgs

let duration_s w = w.t_end -. w.t_start

let consistency_rate w =
  let d = duration_s w in
  if d <= 0. then 0. else float_of_int (consistency_msgs w) /. d

let series t =
  let mk label f =
    let s = Stats.Series.create ~label in
    List.iter (fun w -> Stats.Series.add s ~x:w.t_end ~y:(f w)) (windows t);
    s
  in
  [
    mk "consistency msgs/s" consistency_rate;
    mk "live lease records" (fun w -> float_of_int w.lease_records_live);
    mk "pending+queued writes" (fun w -> float_of_int (w.pending_writes + w.queued_writes));
    mk "in-flight msgs" (fun w -> float_of_int w.in_flight_msgs);
    mk "max |clock skew| (s)" max_abs_skew;
  ]
