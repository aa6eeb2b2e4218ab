open Simtime
module Host_id = Host.Host_id
module File_id = Vstore.File_id

type pending = {
  write_id : int;
  p_file : File_id.t;
  writer : Host_id.t;
  writer_req : Messages.req_id;
  mutable waiting : Host_id.Set.t;
  mutable lease_deadline : Lease.expiry;  (** server-local; covers waited leases + recovery *)
  arrived : Time.t;  (** engine time, for the wait histogram *)
  mutable expiry_timer : Clock.timer option;
  mutable retry_timer : Engine.handle option;
}

type queued_write = { q_writer : Host_id.t; q_req : Messages.req_id }

type t = {
  engine : Engine.t;
  clock : Clock.t;
  net : Messages.payload Netsim.Net.t;
  host : Host_id.t;
  clients : Host_id.t list;
  store : Vstore.Store.t;
  wal : Vstore.Wal.t;
  config : Config.t;
  counters : Stats.Counter.Registry.t;
  (* Hot counters resolved once at creation: the registry stays the source
     of truth for dumps, but per-message sites must not pay a string
     concatenation plus a string-hash lookup per bump. *)
  c_msgs_extension : Stats.Counter.t;
  c_msgs_approval : Stats.Counter.t;
  c_msgs_installed : Stats.Counter.t;
  c_msgs_write_transfer : Stats.Counter.t;
  c_callbacks_sent : Stats.Counter.t;
  c_commits : Stats.Counter.t;
  write_wait : Stats.Histogram.t;
  tracker : Term_policy.Tracker.t option;
  tracer : Trace.Sink.t;
  on_commit : Vstore.File_id.t -> Vstore.Version.t -> unit;
  (* --- volatile state, reset by the crash hook --- *)
  leases : Lease_table.t;
  pending : (File_id.t, pending) Hashtbl.t;
  pending_by_id : (int, pending) Hashtbl.t;
  queued : (File_id.t, queued_write Queue.t) Hashtbl.t;
  applied : (Host_id.t * Messages.req_id, Vstore.Version.t) Hashtbl.t;
  mutable next_write_id : int;
  mutable recovery_end : Time.t;  (** server-local; writes wait at least until here *)
  mutable recovered_at : Time.t;  (** server-local instant of last recovery *)
  installed_set : File_id.Set.t;
  mutable installed_suspended : File_id.Set.t;
  mutable installed_cover : Time.t File_id.Map.t;
  (** server-local expiry of the latest installed coverage per file *)
  mutable refresh_timer : Engine.handle option;
  mutable sweep_timer : Clock.timer option;
  mutable up : bool;
  mutable obs : Breakdown.t option;
      (** per-entity hot-counter breakdowns; attached only while telemetry
          samples, so every bump site below is guarded like a trace emit *)
}

let msg_counter t category =
  match (category : Messages.category) with
  | Messages.Extension -> t.c_msgs_extension
  | Messages.Approval -> t.c_msgs_approval
  | Messages.Installed -> t.c_msgs_installed
  | Messages.Write_transfer -> t.c_msgs_write_transfer

let count_msg t payload = Stats.Counter.incr (msg_counter t (Messages.category payload))

let send t ~dst payload =
  count_msg t payload;
  Netsim.Net.send t.net ~src:t.host ~dst payload

let multicast t ~dsts payload =
  count_msg t payload;
  Netsim.Net.multicast t.net ~src:t.host ~dsts payload

let local_now t = Clock.now t.clock

(* Tracing helpers.  Every [emit] call site is guarded on [tracing t] so
   the disabled path never allocates the event payload. *)
let tracing t = Trace.Sink.enabled t.tracer
let emit t ev = Trace.Sink.emit t.tracer (Time.to_sec (Engine.now t.engine)) ev

(* Cost-center probe, guarded like [emit]: one load and one branch when the
   engine carries no profiler. *)
let profile_mark t center =
  let p = Engine.profiler t.engine in
  if Profile.Recorder.enabled p then Profile.Recorder.mark p center
let local_sec t = Time.to_sec (local_now t)
let expiry_sec = function Lease.At at -> Some (Time.to_sec at) | Lease.Never -> None

let term_sec = function
  | Lease.Finite span -> Some (Time.Span.to_sec span)
  | Lease.Infinite -> None

let is_installed t file = File_id.Set.mem file t.installed_set

let live_leases t file = Lease_table.live_holders t.leases file ~now:(local_now t)

let has_pending_write t file =
  Hashtbl.mem t.pending file
  || (match Hashtbl.find_opt t.queued file with Some q -> not (Queue.is_empty q) | None -> false)

let recovering t = Time.(local_now t < t.recovery_end)

(* The server-local instant before which a write to [file] may not commit
   because of crash recovery. *)
let recovery_deadline t file =
  match Vstore.Wal.mode t.wal with
  | Vstore.Wal.Max_term_only -> t.recovery_end
  | Vstore.Wal.Detailed ->
    Time.add t.recovered_at (Vstore.Wal.recovery_wait_for t.wal file ~recovered_at:t.recovered_at)

(* Latest server-local expiry of installed coverage over [file]: the last
   multicast refresh or individual grant that covered it. *)
let installed_coverage_end t file =
  match File_id.Map.find_opt file t.installed_cover with
  | Some until -> until
  | None -> Time.zero

let note_installed_cover t file ~until =
  let known = installed_coverage_end t file in
  if Time.(until > known) then t.installed_cover <- File_id.Map.add file until t.installed_cover

(* ------------------------------------------------------------------ *)
(* Periodic lease-table sweep                                          *)

(* Reap idle files' expired records on a fixed server-clock cadence, so the
   table's footprint tracks live leases even for files nothing touches
   again.  The timer is a [Clock] local timer on purpose: reaping compares
   server-local expiries against the server's own clock, so driving it from
   the same clock keeps a sweep's verdict identical to the verdict the next
   grant-path reap check would reach — drift or steps merely move both
   together.  The reap itself is idempotent and semantically invisible, so
   sweep cadence cannot perturb protocol behaviour (tested).

   The timer is lazy — armed when a finite-expiry record lands in an idle
   table, re-armed after a sweep only while something resident can still
   expire — and its engine events are marked daemon, so background reaping
   neither keeps a run-to-quiescence simulation alive nor extends its end
   time past the last piece of real work. *)
let rec run_sweep t =
  match t.config.Config.lease_sweep_interval with
  | None -> ()
  | Some interval ->
    let fire () =
      profile_mark t Profile.Center.Server_expiry;
      if t.up then begin
        ignore (Lease_table.sweep t.leases ~now:(local_now t));
        match Lease_table.next_finite_expiry t.leases with
        | Some _ -> run_sweep t
        | None -> t.sweep_timer <- None
      end
    in
    t.sweep_timer <-
      Some (Clock.schedule_at_local t.clock ~daemon:true (Time.add (local_now t) interval) fire)

(* ------------------------------------------------------------------ *)
(* Granting                                                            *)

let record_lease t file holder expiry =
  Lease_table.record t.leases file holder expiry;
  match expiry, t.sweep_timer with
  | Lease.At _, None -> run_sweep t
  | (Lease.At _ | Lease.Never), _ -> ()

(* Each branch below builds its reply line exactly once — the hot path
   allocates one [grant_line] (plus the lease option when one is granted),
   never a template record that a second allocation then copies. *)
let grant_for t ~holder ~renewal file : Messages.grant_line =
  let version = Vstore.Store.current t.store file in
  if has_pending_write t file then { Messages.g_file = file; g_version = version; g_lease = None }
  else if is_installed t file then begin
    match t.config.installed with
    | Some { term; _ } when not (File_id.Set.mem file t.installed_suspended) ->
      (* Individual grant over an installed file: same term as the refresh,
         no per-client record — only the coverage horizon moves. *)
      let now = local_now t in
      let until = Time.add now term in
      note_installed_cover t file ~until;
      if tracing t then
        emit t
          (Trace.Event.Installed_cover
             { file = File_id.to_int file; until = Time.to_sec until });
      Vstore.Wal.record_grant t.wal file ~term ~expiry:until;
      { Messages.g_file = file; g_version = version; g_lease = Some { Lease.term = Lease.Finite term } }
    | Some _ | None -> { Messages.g_file = file; g_version = version; g_lease = None }
  end
  else begin
    let now = local_now t in
    (* O(1) after the table's reap check: post-reap resident = live. *)
    let holders = Lease_table.live_count t.leases file ~now in
    let term =
      Term_policy.term_for t.config.term_policy ~tracker:t.tracker ~file ~now
        ~holders:(holders + 1)
    in
    let term =
      (* compensate a distant client for the transit its grant loses *)
      match term, t.config.Config.term_compensation with
      | Lease.Finite span, Some compensation when not (Lease.term_is_zero term) ->
        Lease.Finite (Time.Span.add span (Time.Span.clamp_non_negative (compensation holder)))
      | (Lease.Finite _ | Lease.Infinite), _ -> term
    in
    if Lease.term_is_zero term then { Messages.g_file = file; g_version = version; g_lease = None }
    else begin
      let grant = { Lease.term } in
      let expiry = Lease.server_expiry grant ~granted_at:now in
      record_lease t file holder expiry;
      if tracing t then
        emit t
          (Trace.Event.Lease_grant
             {
               file = File_id.to_int file;
               holder = Host_id.to_int holder;
               term_s = term_sec term;
               server_expiry = expiry_sec expiry;
               server_now = Time.to_sec now;
               renewal;
             });
      (match term with
      | Lease.Finite span -> (
        match expiry with
        | Lease.At at -> Vstore.Wal.record_grant t.wal file ~term:span ~expiry:at
        | Lease.Never -> ())
      | Lease.Infinite -> ());
      { Messages.g_file = file; g_version = version; g_lease = Some grant }
    end
  end

(* ------------------------------------------------------------------ *)
(* Write processing                                                    *)

let rec start_write t ~writer ~req file =
  let now = local_now t in
  (match t.tracker with
  | Some tracker -> Term_policy.Tracker.note_write tracker file ~now
  | None -> ());
  let recovery = recovery_deadline t file in
  let lease_deadline, waiting, holders =
    if is_installed t file then begin
      (* Drop the file from future refreshes and wait out the coverage. *)
      t.installed_suspended <- File_id.Set.add file t.installed_suspended;
      let coverage = installed_coverage_end t file in
      (Lease.At (Time.max coverage recovery), Host_id.Set.empty, Host_id.Set.empty)
    end
    else begin
      (* The writer's own lease is invalidated by the implicit approval
         carried on its write request. *)
      Lease_table.remove_holder t.leases file writer;
      if tracing t then
        emit t
          (Trace.Event.Lease_release
             {
               file = File_id.to_int file;
               holder = Host_id.to_int writer;
               cause = Trace.Event.Writer_self;
             });
      let deadline, holders =
        Lease_table.write_snapshot t.leases file ~now ~init:(Lease.At recovery)
      in
      let waiting = if t.config.callback_on_write then holders else Host_id.Set.empty in
      (deadline, waiting, holders)
    end
  in
  let ready_by_time = Lease.expired lease_deadline ~now in
  if ready_by_time && Host_id.Set.is_empty waiting then
    commit_write t ~writer ~req ~write_id:None file ~arrived:(Engine.now t.engine)
  else begin
    let p =
      {
        write_id = t.next_write_id;
        p_file = file;
        writer;
        writer_req = req;
        waiting;
        lease_deadline;
        arrived = Engine.now t.engine;
        expiry_timer = None;
        retry_timer = None;
      }
    in
    t.next_write_id <- t.next_write_id + 1;
    Hashtbl.replace t.pending file p;
    Hashtbl.replace t.pending_by_id p.write_id p;
    (match t.obs with
    | Some o ->
      Breakdown.bump o.Breakdown.write_waits_by_file (File_id.to_int file);
      Breakdown.bump o.Breakdown.write_waits_by_client (Host_id.to_int writer)
    | None -> ());
    if tracing t then
      emit t
        (Trace.Event.Wait_begin
           {
             write = p.write_id;
             op = req;
             file = File_id.to_int file;
             writer = Host_id.to_int writer;
             waiting = List.map Host_id.to_int (Host_id.Set.elements holders);
             deadline = expiry_sec lease_deadline;
             server_now = Time.to_sec now;
           });
    arm_expiry_timer t p;
    if not (Host_id.Set.is_empty waiting) then send_approval_requests t p
  end

and arm_expiry_timer t p =
  (match p.expiry_timer with Some h -> Clock.cancel_timer h | None -> ());
  match p.lease_deadline with
  | Lease.Never -> p.expiry_timer <- None
  | Lease.At deadline ->
    let fire () =
      profile_mark t Profile.Center.Server_expiry;
      if t.up && (match Hashtbl.find_opt t.pending p.p_file with Some q -> q == p | None -> false)
      then begin
        (* Every covering lease has expired on the server clock: outstanding
           approvals are moot. *)
        if tracing t then
          emit t (Trace.Event.Wait_expire { write = p.write_id; file = File_id.to_int p.p_file });
        p.waiting <- Host_id.Set.empty;
        finish_pending t p
      end
    in
    p.expiry_timer <- Some (Clock.schedule_at_local t.clock deadline fire)

and send_approval_requests t p =
  let remaining = Host_id.Set.elements p.waiting in
  if remaining <> [] then begin
    Stats.Counter.incr t.c_callbacks_sent;
    if tracing t then
      emit t
        (Trace.Event.Approval_request
           {
             write = p.write_id;
             file = File_id.to_int p.p_file;
             dsts = List.map Host_id.to_int remaining;
           });
    let request = Messages.Approval_request { write = p.write_id; file = p.p_file } in
    if t.config.Config.approval_multicast then multicast t ~dsts:remaining request
    else List.iter (fun dst -> send t ~dst request) remaining;
    let retry () =
      profile_mark t Profile.Center.Server_write;
      if t.up
         && (match Hashtbl.find_opt t.pending p.p_file with Some q -> q == p | None -> false)
         && not (Host_id.Set.is_empty p.waiting)
      then send_approval_requests t p
    in
    (match p.retry_timer with Some h -> Engine.cancel h | None -> ());
    p.retry_timer <- Some (Engine.schedule_after t.engine t.config.retry_interval retry)
  end

and finish_pending t p =
  if Host_id.Set.is_empty p.waiting then begin
    let now = local_now t in
    let recovery = recovery_deadline t p.p_file in
    if Time.(now < recovery) then begin
      (* All approvals in, but the post-crash quiet period is still
         running: keep waiting on the recovery deadline alone. *)
      p.lease_deadline <- Lease.At recovery;
      arm_expiry_timer t p
    end
    else begin
      (match p.expiry_timer with Some h -> Clock.cancel_timer h | None -> ());
      (match p.retry_timer with Some h -> Engine.cancel h | None -> ());
      Hashtbl.remove t.pending p.p_file;
      Hashtbl.remove t.pending_by_id p.write_id;
      commit_write t ~writer:p.writer ~req:p.writer_req ~write_id:(Some p.write_id) p.p_file
        ~arrived:p.arrived
    end
  end

and commit_write t ~writer ~req ~write_id file ~arrived =
  let version = Vstore.Store.commit t.store file ~at:(Engine.now t.engine) in
  t.on_commit file version;
  Hashtbl.replace t.applied (writer, req) version;
  let waited = Time.Span.to_sec (Time.diff (Engine.now t.engine) arrived) in
  Stats.Histogram.add t.write_wait waited;
  Stats.Counter.incr t.c_commits;
  if tracing t then
    emit t
      (Trace.Event.Commit
         {
           write = write_id;
           op = req;
           file = File_id.to_int file;
           writer = Host_id.to_int writer;
           version = Vstore.Version.to_int version;
           server_now = local_sec t;
           waited_s = waited;
         });
  (* Any remaining lease records on the file are stale (approved holders
     were removed as they replied; the rest expired). *)
  Lease_table.drop_file t.leases file;
  if is_installed t file then begin
    t.installed_suspended <- File_id.Set.remove file t.installed_suspended;
    t.installed_cover <- File_id.Map.remove file t.installed_cover
  end;
  send t ~dst:writer (Messages.Write_reply { req; file; version });
  (* Serve the next queued write, if any; a drained-empty queue is removed
     so [t.queued] stays bounded by the files with writes outstanding. *)
  match Hashtbl.find_opt t.queued file with
  | Some q when not (Queue.is_empty q) ->
    let { q_writer; q_req } = Queue.pop q in
    if Queue.is_empty q then Hashtbl.remove t.queued file;
    start_write t ~writer:q_writer ~req:q_req file
  | Some _ -> Hashtbl.remove t.queued file
  | None -> ()

let handle_write t ~writer ~req file =
  match Hashtbl.find_opt t.applied (writer, req) with
  | Some version ->
    (* Duplicate of an already-committed write: re-reply, do not re-apply. *)
    send t ~dst:writer (Messages.Write_reply { req; file; version })
  | None ->
    let in_progress =
      match Hashtbl.find_opt t.pending file with
      | Some p -> Host_id.equal p.writer writer && p.writer_req = req
      | None -> false
    in
    let queued_already =
      match Hashtbl.find_opt t.queued file with
      | Some q -> Queue.fold (fun acc w -> acc || (Host_id.equal w.q_writer writer && w.q_req = req)) false q
      | None -> false
    in
    if in_progress || queued_already then ()
    else if has_pending_write t file then begin
      let q =
        match Hashtbl.find_opt t.queued file with
        | Some q -> q
        | None ->
          let q = Queue.create () in
          Hashtbl.replace t.queued file q;
          q
      in
      Queue.push { q_writer = writer; q_req = req } q
    end
    else start_write t ~writer ~req file

let handle_approval t ~holder ~write_id file =
  match Hashtbl.find_opt t.pending_by_id write_id with
  | Some p when File_id.equal p.p_file file ->
    if Host_id.Set.mem holder p.waiting then begin
      p.waiting <- Host_id.Set.remove holder p.waiting;
      (match t.obs with
      | Some o ->
        Breakdown.bump o.Breakdown.approvals_by_file (File_id.to_int file);
        Breakdown.bump o.Breakdown.approvals_by_client (Host_id.to_int holder)
      | None -> ());
      (* The approval invalidates the holder's copy, so its lease record
         goes too. *)
      Lease_table.remove_holder t.leases file holder;
      if tracing t then begin
        emit t
          (Trace.Event.Approval_reply
             { write = write_id; file = File_id.to_int file; holder = Host_id.to_int holder });
        emit t
          (Trace.Event.Lease_release
             {
               file = File_id.to_int file;
               holder = Host_id.to_int holder;
               cause = Trace.Event.Approved;
             })
      end;
      finish_pending t p
    end
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* Reads and extensions                                                *)

let note_read t file =
  match t.tracker with
  | Some tracker -> Term_policy.Tracker.note_read tracker file ~now:(local_now t)
  | None -> ()

let handle_read t ~src ~req file =
  note_read t file;
  (match t.obs with
  | Some o ->
    Breakdown.bump o.Breakdown.reads_by_file (File_id.to_int file);
    Breakdown.bump o.Breakdown.reads_by_client (Host_id.to_int src)
  | None -> ());
  send t ~dst:src
    (Messages.Read_reply { req; granted = grant_for t ~holder:src ~renewal:false file })

let handle_extend t ~src ~req files =
  (match t.obs with
  | Some o ->
    Breakdown.bump o.Breakdown.extensions_by_client (Host_id.to_int src);
    List.iter
      (fun file -> Breakdown.bump o.Breakdown.extensions_by_file (File_id.to_int file))
      files
  | None -> ());
  let granted =
    List.map
      (fun file ->
        note_read t file;
        grant_for t ~holder:src ~renewal:true file)
      files
  in
  send t ~dst:src (Messages.Extend_reply { req; granted })

(* ------------------------------------------------------------------ *)
(* Installed-file refresh                                              *)

let rec run_refresh t =
  match t.config.installed with
  | None -> ()
  | Some { files; period; term } ->
    profile_mark t Profile.Center.Server_expiry;
    if t.up then begin
      let covered =
        List.filter
          (fun file ->
            (not (File_id.Set.mem file t.installed_suspended)) && not (has_pending_write t file))
          files
      in
      if covered <> [] then begin
        let now = local_now t in
        let until = Time.add now term in
        let with_versions =
          List.map
            (fun file ->
              note_installed_cover t file ~until;
              if tracing t then
                emit t
                  (Trace.Event.Installed_cover
                     { file = File_id.to_int file; until = Time.to_sec until });
              Vstore.Wal.record_grant t.wal file ~term ~expiry:until;
              (file, Vstore.Store.current t.store file))
            covered
        in
        multicast t ~dsts:t.clients (Messages.Installed_refresh { covered = with_versions; term })
      end;
      t.refresh_timer <- Some (Engine.schedule_after t.engine period (fun () -> run_refresh t))
    end

(* ------------------------------------------------------------------ *)
(* Message dispatch and lifecycle                                      *)

let handle_message t (envelope : Messages.payload Netsim.Net.envelope) =
  if t.up then begin
    profile_mark t
      (match envelope.payload with
      | Messages.Write_request _ | Messages.Approval_reply _ -> Profile.Center.Server_write
      | _ -> Profile.Center.Server_grant);
    count_msg t envelope.payload;
    match envelope.payload with
    | Messages.Read_request { req; file } -> handle_read t ~src:envelope.src ~req file
    | Messages.Extend_request { req; files } -> handle_extend t ~src:envelope.src ~req files
    | Messages.Write_request { req; file } -> handle_write t ~writer:envelope.src ~req file
    | Messages.Approval_reply { write; file } ->
      handle_approval t ~holder:envelope.src ~write_id:write file
    | Messages.Read_reply _ | Messages.Extend_reply _ | Messages.Write_reply _
    | Messages.Approval_request _ | Messages.Installed_refresh _ ->
      (* Client-bound traffic misdelivered to the server: drop. *)
      ()
  end

let on_crash t =
  t.up <- false;
  Lease_table.clear t.leases;
  Hashtbl.iter
    (fun _ p ->
      (match p.expiry_timer with Some h -> Clock.cancel_timer h | None -> ());
      match p.retry_timer with Some h -> Engine.cancel h | None -> ())
    t.pending;
  Hashtbl.reset t.pending;
  Hashtbl.reset t.pending_by_id;
  Hashtbl.reset t.queued;
  Hashtbl.reset t.applied;
  t.installed_suspended <- File_id.Set.empty;
  t.installed_cover <- File_id.Map.empty;
  (match t.refresh_timer with Some h -> Engine.cancel h | None -> ());
  t.refresh_timer <- None;
  (match t.sweep_timer with Some h -> Clock.cancel_timer h | None -> ());
  t.sweep_timer <- None

let on_recover t =
  t.up <- true;
  let now = local_now t in
  t.recovered_at <- now;
  t.recovery_end <- Time.add now (Vstore.Wal.max_term t.wal);
  (* the lease table is empty after a crash; the sweep re-arms lazily on
     the first finite grant *)
  run_refresh t

let create ~engine ~clock ~net ~liveness ~host ~clients ~store ~config
    ?(on_commit = fun _ _ -> ()) ?(tracer = Trace.Sink.null) () =
  Config.validate config;
  let tracker =
    match config.Config.term_policy with
    | Term_policy.Adaptive a -> Some (Term_policy.Tracker.create a)
    | Term_policy.Zero | Term_policy.Fixed _ | Term_policy.Infinite -> None
  in
  let installed_set =
    match config.Config.installed with
    | Some { files; _ } -> File_id.Set.of_list files
    | None -> File_id.Set.empty
  in
  let counters = Stats.Counter.Registry.create () in
  let t =
    {
      engine;
      clock;
      net;
      host;
      clients;
      store;
      wal = Vstore.Wal.create config.Config.wal_mode;
      config;
      counters;
      c_msgs_extension = Stats.Counter.Registry.counter counters "msgs/extension";
      c_msgs_approval = Stats.Counter.Registry.counter counters "msgs/approval";
      c_msgs_installed = Stats.Counter.Registry.counter counters "msgs/installed";
      c_msgs_write_transfer = Stats.Counter.Registry.counter counters "msgs/write-transfer";
      c_callbacks_sent = Stats.Counter.Registry.counter counters "callbacks-sent";
      c_commits = Stats.Counter.Registry.counter counters "commits";
      write_wait = Stats.Histogram.create ();
      tracker;
      tracer;
      on_commit;
      leases = Lease_table.create ();
      pending = Hashtbl.create 32;
      pending_by_id = Hashtbl.create 32;
      queued = Hashtbl.create 32;
      applied = Hashtbl.create 256;
      (* Write ids are globally unique across shards: the server's host
         index occupies the high bits (see [Trace.Op_id]; host 0 — the
         single-server layout — keeps ids 0,1,2,... unchanged), so approval
         correlation ids in traces never collide between servers. *)
      next_write_id = Trace.Op_id.origin ~host:(Host.Host_id.to_int host) ~shard:0;
      recovery_end = Time.zero;
      recovered_at = Time.zero;
      installed_set;
      installed_suspended = File_id.Set.empty;
      installed_cover = File_id.Map.empty;
      refresh_timer = None;
      sweep_timer = None;
      up = true;
      obs = None;
    }
  in
  (* Reaps emit [lease-expire] so the trace checker can forget the record
     exactly when the server does — without this, a backwards server-clock
     step would leave the checker holding leases the server reaped, and
     legitimate commits would read as commit-vs-lease violations. *)
  Lease_table.set_on_reap t.leases (fun file holder expiry ->
      if tracing t then
        emit t
          (Trace.Event.Lease_expire
             {
               file = File_id.to_int file;
               holder = Host_id.to_int holder;
               expired_at = expiry_sec expiry;
             }));
  Netsim.Net.register net host (handle_message t);
  Host.Liveness.register liveness host ~on_crash:(fun () -> on_crash t)
    ~on_recover:(fun () -> on_recover t) ();
  run_refresh t;
  t

let host t = t.host
let store t = t.store
let wal t = t.wal
let clock t = t.clock

type snapshot = {
  lease_files : int;
  lease_records : int;
  lease_records_live : int;
  pending_writes : int;
  queued_writes : int;
  queued_files : int;
  recovering : bool;
  up : bool;
}

let snapshot t =
  let occ = Lease_table.occupancy t.leases ~now:(local_now t) in
  {
    lease_files = occ.Lease_table.files;
    lease_records = occ.Lease_table.records;
    lease_records_live = occ.Lease_table.live_records;
    pending_writes = Hashtbl.length t.pending;
    queued_writes = Hashtbl.fold (fun _ q acc -> acc + Queue.length q) t.queued 0;
    queued_files = Hashtbl.length t.queued;
    recovering = recovering t;
    up = t.up;
  }

let set_breakdown t obs = t.obs <- obs
let breakdown t = t.obs

let messages_handled t category = Stats.Counter.Registry.find t.counters ("msgs/" ^ Messages.category_name category)

let messages_handled_total t =
  List.fold_left
    (fun acc c -> acc + messages_handled t c)
    0
    [ Messages.Extension; Messages.Approval; Messages.Installed; Messages.Write_transfer ]

let consistency_messages t =
  messages_handled t Messages.Extension + messages_handled t Messages.Approval
  + messages_handled t Messages.Installed

let callbacks_sent t = Stats.Counter.Registry.find t.counters "callbacks-sent"
let commits t = Stats.Counter.Registry.find t.counters "commits"
let write_wait t = t.write_wait
let counters t = t.counters
