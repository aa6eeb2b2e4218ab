open Simtime
module Host_id = Host.Host_id
module File_id = Vstore.File_id
module Rpc_table = Leases.Rpc_table

type policy =
  | Callbacks of { break_timeout : Time.Span.t; poll_period : Time.Span.t }
  | Ttl of Time.Span.t

type setup = {
  seed : int64;
  n_clients : int;
  m_prop : Time.Span.t;
  m_proc : Time.Span.t;
  loss : float;
  faults : Leases.Sim.fault list;
  drain : Time.Span.t;
  policy : policy;
  tracer : Trace.Sink.t;
}

type payload =
  | Fetch_request of { req : int; file : File_id.t }
  | Fetch_reply of { req : int; file : File_id.t; version : Vstore.Version.t }
  | Reval_request of { req : int; entries : (File_id.t * Vstore.Version.t) list }
  | Reval_reply of { req : int; stale : (File_id.t * Vstore.Version.t) list }
  | Break_request of { wid : int; file : File_id.t }
  | Break_reply of { wid : int; file : File_id.t }
  | Write_request of { req : int; file : File_id.t }
  | Write_reply of { req : int; file : File_id.t; version : Vstore.Version.t }

let payload_name = function
  | Fetch_request _ -> "fetch-req"
  | Fetch_reply _ -> "fetch-rep"
  | Reval_request _ -> "reval-req"
  | Reval_reply _ -> "reval-rep"
  | Break_request _ -> "break-req"
  | Break_reply _ -> "break-rep"
  | Write_request _ -> "write-req"
  | Write_reply _ -> "write-rep"

let now_sec engine = Time.to_sec (Engine.now engine)

(* How often an unanswered break or client request is sent again. *)
let retry = Time.Span.of_sec 1.

(* ------------------------------------------------------------------ *)
(* Server                                                              *)

type pending = {
  wid : int;
  p_file : File_id.t;
  writer : Host_id.t;
  writer_req : int;
  mutable waiting : Host_id.Set.t;
  arrived : Time.t;
  mutable give_up_timer : Engine.handle option;
  mutable retry_timer : Engine.handle option;
}

type server = {
  s_engine : Engine.t;
  s_net : payload Netsim.Net.t;
  s_host : Host_id.t;
  s_store : Vstore.Store.t;
  s_break_timeout : Time.Span.t option;
      (** [None] for TTL hints: no promises, so no holders and no breaks *)
  s_counters : Stats.Counter.Registry.t;
  s_write_wait : Stats.Histogram.t;
  s_tracer : Trace.Sink.t;
  mutable holders : Host_id.Set.t File_id.Map.t;
  s_pending : (File_id.t, pending) Hashtbl.t;
  s_queued : (File_id.t, (Host_id.t * int) Queue.t) Hashtbl.t;
  s_applied : (Host_id.t * int, Vstore.Version.t) Hashtbl.t;
  mutable s_next_wid : int;
  mutable s_up : bool;
}

let s_count srv name = Stats.Counter.incr (Stats.Counter.Registry.counter srv.s_counters name)

let s_count_msg srv payload =
  s_count srv
    (match payload with
    | Fetch_request _ | Fetch_reply _ | Reval_request _ | Reval_reply _ -> "msgs/extension"
    | Break_request _ | Break_reply _ -> "msgs/approval"
    | Write_request _ | Write_reply _ -> "msgs/write-transfer")

let s_send srv ~dst payload =
  s_count_msg srv payload;
  Netsim.Net.send srv.s_net ~src:srv.s_host ~dst payload

let holders_of srv file =
  Option.value (File_id.Map.find_opt file srv.holders) ~default:Host_id.Set.empty

(* A callback promise is an infinite-term lease: no expiry on either
   clock.  The trace records it as such, which is what lets the invariant
   checker demonstrate the protocol's weakness — when the server gives up
   on an unreachable holder and commits anyway, the holder's "lease" is
   still live in the stream and the commit-vs-lease invariant trips.  A
   TTL server promises nothing, so it records no holder. *)
let add_holder srv file host =
  if Option.is_some srv.s_break_timeout then begin
    let before = holders_of srv file in
    if Trace.Sink.enabled srv.s_tracer then
      Trace.Sink.emit srv.s_tracer (now_sec srv.s_engine)
        (Trace.Event.Lease_grant
           {
             file = File_id.to_int file;
             holder = Host_id.to_int host;
             term_s = None;
             server_expiry = None;
             server_now = now_sec srv.s_engine;
             renewal = Host_id.Set.mem host before;
           });
    srv.holders <- File_id.Map.add file (Host_id.Set.add host before) srv.holders
  end

let drop_holder srv file host =
  srv.holders <- File_id.Map.add file (Host_id.Set.remove host (holders_of srv file)) srv.holders

(* A pending write's two timers die with it (commit or server crash), so
   neither needs to check, when it fires, that its write is still on. *)
let cancel_timers p =
  Option.iter Engine.cancel p.give_up_timer;
  Option.iter Engine.cancel p.retry_timer

let rec s_start_write srv ~writer ~req file =
  let breakees = Host_id.Set.remove writer (holders_of srv file) in
  match srv.s_break_timeout with
  | Some break_timeout when not (Host_id.Set.is_empty breakees) ->
    let p =
      {
        wid = srv.s_next_wid;
        p_file = file;
        writer;
        writer_req = req;
        waiting = breakees;
        arrived = Engine.now srv.s_engine;
        give_up_timer = None;
        retry_timer = None;
      }
    in
    srv.s_next_wid <- srv.s_next_wid + 1;
    Hashtbl.replace srv.s_pending file p;
    if Trace.Sink.enabled srv.s_tracer then
      Trace.Sink.emit srv.s_tracer (now_sec srv.s_engine)
        (Trace.Event.Wait_begin
           {
             write = p.wid;
             op = req;
             file = File_id.to_int file;
             writer = Host_id.to_int writer;
             waiting = List.map Host_id.to_int (Host_id.Set.elements breakees);
             deadline = None;
             server_now = now_sec srv.s_engine;
           });
    (* Transport-level patience only: when it runs out the write proceeds
       and the unreachable holders keep their stale copies.  No release
       events are traced for the abandoned holders: their promises are
       still outstanding, and the checker should see exactly that. *)
    p.give_up_timer <-
      Some
        (Engine.schedule_after srv.s_engine break_timeout (fun () ->
             if Trace.Sink.enabled srv.s_tracer then
               Trace.Sink.emit srv.s_tracer (now_sec srv.s_engine)
                 (Trace.Event.Wait_expire { write = p.wid; file = File_id.to_int file });
             Host_id.Set.iter (fun host -> drop_holder srv file host) p.waiting;
             p.waiting <- Host_id.Set.empty;
             s_finish srv p));
    s_send_breaks srv p
  | Some _ | None -> s_commit srv ~writer ~req ~wid:None file ~arrived:(Engine.now srv.s_engine)

and s_send_breaks srv p =
  let remaining = Host_id.Set.elements p.waiting in
  if remaining <> [] then begin
    s_count srv "callbacks-sent";
    if Trace.Sink.enabled srv.s_tracer then begin
      let dsts = List.map Host_id.to_int remaining in
      Trace.Sink.emit srv.s_tracer (now_sec srv.s_engine)
        (Trace.Event.Approval_request { write = p.wid; file = File_id.to_int p.p_file; dsts })
    end;
    let break_ = Break_request { wid = p.wid; file = p.p_file } in
    s_count_msg srv break_;
    Netsim.Net.multicast srv.s_net ~src:srv.s_host ~dsts:remaining break_;
    p.retry_timer <-
      Some (Engine.schedule_after srv.s_engine retry (fun () -> s_send_breaks srv p))
  end

and s_finish srv p =
  if Host_id.Set.is_empty p.waiting then begin
    cancel_timers p;
    Hashtbl.remove srv.s_pending p.p_file;
    s_commit srv ~writer:p.writer ~req:p.writer_req ~wid:(Some p.wid) p.p_file ~arrived:p.arrived
  end

(* Under TTL hints every write lands here at once: no holders, no wait,
   and outstanding hints are simply left stale until their TTLs run out. *)
and s_commit srv ~writer ~req ~wid file ~arrived =
  let version = Vstore.Store.commit srv.s_store file ~at:(Engine.now srv.s_engine) in
  Hashtbl.replace srv.s_applied (writer, req) version;
  let waited = Time.Span.to_sec (Time.diff (Engine.now srv.s_engine) arrived) in
  Stats.Histogram.add srv.s_write_wait waited;
  s_count srv "commits";
  if Trace.Sink.enabled srv.s_tracer then
    Trace.Sink.emit srv.s_tracer (now_sec srv.s_engine)
      (Trace.Event.Commit
         {
           write = wid;
           op = req;
           file = File_id.to_int file;
           writer = Host_id.to_int writer;
           version = Vstore.Version.to_int version;
           server_now = now_sec srv.s_engine;
           waited_s = waited;
         });
  (* The writer becomes the file's one holder, with a fresh callback
     promise; everyone who acked a break is gone already. *)
  srv.holders <- File_id.Map.remove file srv.holders;
  add_holder srv file writer;
  s_send srv ~dst:writer (Write_reply { req; file; version });
  match Hashtbl.find_opt srv.s_queued file with
  | Some q when not (Queue.is_empty q) ->
    let writer, req = Queue.pop q in
    s_start_write srv ~writer ~req file
  | Some _ | None -> ()

let s_handle_write srv ~writer ~req file =
  match Hashtbl.find_opt srv.s_applied (writer, req) with
  | Some version -> s_send srv ~dst:writer (Write_reply { req; file; version })
  | None -> (
    (* The queue drains as writes commit, so it is empty unless a write is
       pending; a retransmitted request already pending or queued is
       dropped. *)
    match Hashtbl.find_opt srv.s_pending file with
    | None -> s_start_write srv ~writer ~req file
    | Some p ->
      let q =
        match Hashtbl.find_opt srv.s_queued file with
        | Some q -> q
        | None ->
          let q = Queue.create () in
          Hashtbl.replace srv.s_queued file q;
          q
      in
      let same (w, r) = Host_id.equal w writer && r = req in
      if not (same (p.writer, p.writer_req) || Queue.fold (fun acc x -> acc || same x) false q)
      then Queue.push (writer, req) q)

let s_handle srv (envelope : payload Netsim.Net.envelope) =
  if srv.s_up then begin
    s_count_msg srv envelope.payload;
    match envelope.payload with
    | Fetch_request { req; file } ->
      add_holder srv file envelope.src;
      s_send srv ~dst:envelope.src
        (Fetch_reply { req; file; version = Vstore.Store.current srv.s_store file })
    | Reval_request { req; entries } ->
      let stale =
        List.filter_map
          (fun (file, version) ->
            add_holder srv file envelope.src;
            let current = Vstore.Store.current srv.s_store file in
            if Vstore.Version.equal current version then None else Some (file, current))
          entries
      in
      s_send srv ~dst:envelope.src (Reval_reply { req; stale })
    | Write_request { req; file } -> s_handle_write srv ~writer:envelope.src ~req file
    | Break_reply { wid; file } -> (
      match Hashtbl.find_opt srv.s_pending file with
      | Some p when p.wid = wid && Host_id.Set.mem envelope.src p.waiting ->
        p.waiting <- Host_id.Set.remove envelope.src p.waiting;
        drop_holder srv file envelope.src;
        if Trace.Sink.enabled srv.s_tracer then begin
          let emit = Trace.Sink.emit srv.s_tracer (now_sec srv.s_engine) in
          let file = File_id.to_int file and holder = Host_id.to_int envelope.src in
          emit (Trace.Event.Approval_reply { write = wid; file; holder });
          emit (Trace.Event.Lease_release { file; holder; cause = Trace.Event.Approved })
        end;
        s_finish srv p
      | Some _ | None -> ())
    | Fetch_reply _ | Reval_reply _ | Break_request _ | Write_reply _ -> ()
  end

let s_crash srv =
  srv.s_up <- false;
  srv.holders <- File_id.Map.empty;
  Hashtbl.iter (fun _ p -> cancel_timers p) srv.s_pending;
  Hashtbl.reset srv.s_pending;
  Hashtbl.reset srv.s_queued;
  Hashtbl.reset srv.s_applied

(* ------------------------------------------------------------------ *)
(* Client                                                              *)

(* A callback copy is good until broken, so only a hint reads [expires]. *)
type entry = { version : Vstore.Version.t; expires : Time.t }

(* A read or write hands the version in its reply to its op; a poll's
   reply refreshes the cache and completes nothing. *)
type rpc_kind =
  | C_op of { file : File_id.t; k : latency_s:float -> Vstore.Version.t -> unit }
  | C_poll

type client = {
  c_engine : Engine.t;
  c_host : Host_id.t;
  c_send : payload -> unit;  (** to the server *)
  c_ttl : Time.Span.t option;  (** [None] for callbacks *)
  c_counters : Stats.Counter.Registry.t;
  c_cache : (File_id.t, entry) Hashtbl.t;
  c_rpcs : (rpc_kind, payload) Rpc_table.t;
  mutable c_up : bool;
  c_tracer : Trace.Sink.t;
}

let c_count c name = Stats.Counter.incr (Stats.Counter.Registry.counter c.c_counters name)

let c_emit c ev = Trace.Sink.emit c.c_tracer (now_sec c.c_engine) ev

(* A callback is traced as a client lease with no expiry, live until an
   explicit invalidation (or crash); a hint as one with the TTL horizon
   but no matching server-side grant, so the checker blames only
   genuinely stale hits, not the server's (nonexistent) promise. *)
let c_fill c file version =
  let now = Engine.now c.c_engine in
  let expires = match c.c_ttl with None -> now | Some ttl -> Time.add now ttl in
  Hashtbl.replace c.c_cache file { version; expires };
  if Trace.Sink.enabled c.c_tracer then
    c_emit c
      (Trace.Event.Client_lease
         {
           host = Host_id.to_int c.c_host;
           file = File_id.to_int file;
           version = Vstore.Version.to_int version;
           expiry = Option.map (fun _ -> Time.to_sec expires) c.c_ttl;
           local_now = now_sec c.c_engine;
         })

let c_invalidate c file =
  if Trace.Sink.enabled c.c_tracer && Hashtbl.mem c.c_cache file then
    c_emit c
      (Trace.Event.Cache_invalidate
         { host = Host_id.to_int c.c_host; file = File_id.to_int file });
  Hashtbl.remove c.c_cache file

let c_call c kind message =
  let req = Rpc_table.fresh c.c_rpcs in
  Rpc_table.start c.c_rpcs ~req kind (message req)

let c_complete c rpc k version =
  Rpc_table.finish c.c_rpcs rpc;
  let started = rpc.Rpc_table.started in
  k ~latency_s:(Time.Span.to_sec (Time.diff (Engine.now c.c_engine) started)) version

let client_read c file ~k =
  if c.c_up then begin
    let now = Engine.now c.c_engine in
    match Hashtbl.find_opt c.c_cache file with
    | Some { version; expires } when Option.is_none c.c_ttl || Time.(now < expires) ->
      c_count c "hits";
      if Trace.Sink.enabled c.c_tracer then
        c_emit c
          (Trace.Event.Cache_hit
             {
               host = Host_id.to_int c.c_host;
               file = File_id.to_int file;
               version = Vstore.Version.to_int version;
               local_now = Time.to_sec now;
             });
      k ~latency_s:0. version
    | Some _ | None ->
      c_count c "misses";
      if Trace.Sink.enabled c.c_tracer then
        c_emit c
          (Trace.Event.Cache_miss { host = Host_id.to_int c.c_host; file = File_id.to_int file });
      c_call c (C_op { file; k }) (fun req -> Fetch_request { req; file })
  end

let client_write c file ~k =
  if c.c_up then begin
    c_invalidate c file;
    c_call c (C_op { file; k }) (fun req -> Write_request { req; file })
  end

let rec c_poll_loop c poll_period =
  ignore
    (Engine.schedule_after c.c_engine poll_period (fun () ->
         if c.c_up then begin
           let entries = Hashtbl.fold (fun file e acc -> (file, e.version) :: acc) c.c_cache [] in
           if entries <> [] then begin
             c_count c "polls";
             c_call c C_poll (fun req -> Reval_request { req; entries })
           end
         end;
         c_poll_loop c poll_period))

let c_handle c (envelope : payload Netsim.Net.envelope) =
  if c.c_up then begin
    match envelope.payload with
    | Fetch_reply { req; file; version } -> (
      c_fill c file version;
      match Rpc_table.find c.c_rpcs req with
      | Some ({ kind = C_op { file = rfile; k }; _ } as rpc) when File_id.equal file rfile ->
        c_complete c rpc k version
      | Some _ | None -> ())
    | Write_reply { req; file; version } -> (
      match Rpc_table.find c.c_rpcs req with
      | Some ({ kind = C_op { file = wfile; k }; _ } as rpc) when File_id.equal file wfile ->
        (* A callback writer is the file's one holder now, so it caches
           its result.  Hints are write-through and a writer gets no
           promise, so a TTL writer caches nothing. *)
        if Option.is_none c.c_ttl then c_fill c file version;
        c_complete c rpc k version
      | Some _ | None -> ())
    | Reval_reply { req; stale } -> (
      List.iter (fun (file, version) -> c_fill c file version) stale;
      match Rpc_table.find c.c_rpcs req with
      | Some ({ kind = C_poll; _ } as rpc) -> Rpc_table.finish c.c_rpcs rpc
      | Some _ | None -> ())
    | Break_request { wid; file } ->
      c_count c "breaks-answered";
      c_invalidate c file;
      c.c_send (Break_reply { wid; file })
    | Fetch_request _ | Reval_request _ | Write_request _ | Break_reply _ -> ()
  end

let c_crash c =
  c.c_up <- false;
  Hashtbl.reset c.c_cache;
  Rpc_table.reset c.c_rpcs

(* ------------------------------------------------------------------ *)
(* Harness                                                             *)

let validate setup =
  let who = match setup.policy with Callbacks _ -> "Callback.run" | Ttl _ -> "Ttl_hints.run" in
  let bad what = invalid_arg (who ^ ": " ^ what) in
  if setup.n_clients < 1 then bad "need at least one client";
  (match setup.policy with
  | Callbacks { break_timeout; poll_period } ->
    if not Time.Span.(poll_period > zero) then bad "poll_period must be positive";
    if Time.Span.is_negative break_timeout then bad "break_timeout must not be negative"
  | Ttl ttl -> if Time.Span.is_negative ttl then bad "ttl must not be negative");
  who

let run setup ~trace =
  let who = validate setup in
  let w =
    Leases.Harness.world ~who ~tracer:setup.tracer
      ~classify:(fun p -> (Trace.Event.M_other (payload_name p), -1))
      ~rng:(Prng.Splitmix.create ~seed:setup.seed) ~loss:setup.loss ~m_prop:setup.m_prop
      ~m_proc:setup.m_proc ()
  in
  let engine = w.engine and net = w.net and liveness = w.liveness in
  (* The clients keep engine time, so the layout carries no clocks and
     clock faults are ignored; crashes and partitions apply. *)
  let layout = Leases.Harness.single_server ~n_clients:setup.n_clients in
  let server_host = Leases.Harness.server_host 0 in
  let break_timeout, poll_period, ttl =
    match setup.policy with
    | Callbacks { break_timeout; poll_period } -> (Some break_timeout, Some poll_period, None)
    | Ttl ttl -> (None, None, Some ttl)
  in
  let server =
    {
      s_engine = engine;
      s_net = net;
      s_host = server_host;
      s_store = w.store;
      s_break_timeout = break_timeout;
      s_counters = Stats.Counter.Registry.create ();
      s_write_wait = Stats.Histogram.create ();
      s_tracer = setup.tracer;
      holders = File_id.Map.empty;
      s_pending = Hashtbl.create 32;
      s_queued = Hashtbl.create 32;
      s_applied = Hashtbl.create 256;
      s_next_wid = 0;
      s_up = true;
    }
  in
  Netsim.Net.register net server_host (s_handle server);
  Host.Liveness.register liveness server_host
    ~on_crash:(fun () -> s_crash server)
    ~on_recover:(fun () -> server.s_up <- true)
    ();
  let clients =
    Array.init setup.n_clients (fun i ->
        let host = Leases.Harness.client_host layout i in
        let send payload = Netsim.Net.send net ~src:host ~dst:server_host payload in
        let c =
          {
            c_engine = engine;
            c_host = host;
            c_send = send;
            c_ttl = ttl;
            c_counters = Stats.Counter.Registry.create ();
            c_cache = Hashtbl.create 128;
            c_rpcs = Rpc_table.create engine ~retry ~send;
            c_up = true;
            c_tracer = setup.tracer;
          }
        in
        Netsim.Net.register net host (c_handle c);
        Host.Liveness.register liveness host
          ~on_crash:(fun () -> c_crash c)
          ~on_recover:(fun () -> c.c_up <- true)
          ();
        Option.iter (c_poll_loop c) poll_period;
        c)
  in
  Leases.Harness.schedule_faults w layout setup.faults;
  Leases.Harness.drive w ~n_clients:setup.n_clients (Workload.Trace.ops trace)
    ~read:(fun op ->
      let start = Engine.now engine in
      client_read clients.(op.client) op.file ~k:(fun ~latency_s version ->
          Leases.Harness.read_done w latency_s;
          Oracle.Register_oracle.check_read w.oracle ~file:op.file ~version ~start
            ~finish:(Engine.now engine)))
    ~write:(fun op ->
      client_write clients.(op.client) op.file ~k:(fun ~latency_s _version ->
          Leases.Harness.write_done w latency_s));
  Leases.Harness.run w ~until:(Leases.Harness.horizon trace ~drain:setup.drain);

  let find registry name = Stats.Counter.Registry.find registry name in
  let sum f = Array.fold_left (fun acc c -> acc + f c) 0 clients in
  let count name = sum (fun c -> find c.c_counters name) in
  let ext = find server.s_counters "msgs/extension" in
  let app = find server.s_counters "msgs/approval" in
  let wtr = find server.s_counters "msgs/write-transfer" in
  let base = Leases.Harness.metrics w in
  let metrics =
    Leases.Harness.derive ~rtt_s:(Leases.Harness.rtt_s w)
      {
        base with
        cache_hits = count "hits";
        cache_misses = count "misses";
        msgs_extension = ext;
        msgs_approval = app;
        msgs_write_transfer = wtr;
        consistency_msgs = ext + app;
        server_total_msgs = ext + app + wtr;
        callbacks_sent = find server.s_counters "callbacks-sent";
        commits = find server.s_counters "commits";
        (* A TTL server never holds a write back, so it has no wait
           distribution to report. *)
        write_wait =
          (if Option.is_some break_timeout then server.s_write_wait else base.write_wait);
        retransmissions = sum (fun c -> Rpc_table.retransmissions c.c_rpcs);
        renewals_sent = count "polls";
        approvals_answered = count "breaks-answered";
      }
  in
  { Leases.Sim.metrics; oracle = w.oracle; store = w.store }
