(** The server's volatile per-file lease-holder table.

    An int-keyed mutable layout: a growable array indexed by file id, each
    slot holding its resident records plus the earliest finite expiry among
    them.  A file with one holder stores it inline; a shared file keeps a
    holder-id -> server-local-expiry hash table and, beside it, a binary
    min-heap of (expiry, holder) entries.  Records whose expiry the server
    clock has passed are {e reaped} — removed for good — lazily on the next
    access to the file and in bulk by the server's periodic {!sweep}.

    Costs, for a file with [n] resident holders:
    - a reap pass costs O(1) when nothing has expired, and otherwise
      O((expired + re-keyed) · log n): it pops only heap entries whose key
      the clock has passed.  An entry is re-keyed when it surfaces after its
      holder renewed to a later expiry — at most once per renewal;
    - [record] is an amortized O(1) table update; a new holder or an
      {e earlier} expiry (a backwards server clock step) adds an
      O(log n) heap push.  [remove_holder] and [drop_file] are amortized
      O(1).  Removed holders' entries are dropped when they surface, and
      the heap is rebuilt from the table once it holds more than
      [2n + 16] entries, so it never outgrows its holders by more;
    - [live_count] — the grant path's only aggregate — is the reap check
      plus a table length; the other aggregates fold over the [n] live
      records once the reap is done.

    Reaping is semantically invisible to every query (an expired record
    was already excluded from all of them); its one observable effect is
    that a server clock stepped {e backwards} cannot resurrect a record
    reaped before the step.  That direction of forgetting is the unsafe
    fast-server-clock polarity the protocol already covers with the
    client-side skew allowance, and the trace checker consumes the
    [lease-expire] events emitted through {!set_on_reap} so reaps are
    never mistaken for releases.

    All aggregates are deterministic: order-independent folds, or results
    sorted by holder id.  The records one reap pass removes reach the
    {!set_on_reap} hook ordered by (expiry, holder id), whatever the hash
    layout.

    The table is volatile server state — [clear] restores the just-crashed
    empty state (leases survive only in the WAL, as recovery deadlines). *)

type t

val create : unit -> t

val set_on_reap : t -> (Vstore.File_id.t -> Host.Host_id.t -> Lease.expiry -> unit) -> unit
(** Install the per-reaped-record hook (default: ignore).  Called inside
    the reap pass, once per removed record; it must not re-enter the
    table.  The server uses it to emit [lease-expire] trace events. *)

val record : t -> Vstore.File_id.t -> Host.Host_id.t -> Lease.expiry -> unit
(** Upsert one holder's lease on a file. *)

val remove_holder : t -> Vstore.File_id.t -> Host.Host_id.t -> unit
(** Drop one holder's record (approval received, or implicit writer
    self-approval).  No-op if absent. *)

val drop_file : t -> Vstore.File_id.t -> unit
(** Forget every record on the file (commit: remaining records are stale). *)

val fold_live :
  t ->
  Vstore.File_id.t ->
  now:Simtime.Time.t ->
  init:'a ->
  f:(Host.Host_id.t -> Lease.expiry -> 'a -> 'a) ->
  'a
(** Fold over holders whose lease is unexpired at [now] (server clock),
    reaping expired records first.  Visit order is unspecified; [f] must
    be order-independent. *)

val live_count : t -> Vstore.File_id.t -> now:Simtime.Time.t -> int
(** O(1) after the reap check: the post-reap table length. *)

val live_holders : t -> Vstore.File_id.t -> now:Simtime.Time.t -> Host.Host_id.t list
(** Sorted by holder id. *)

val live_holder_set : t -> Vstore.File_id.t -> now:Simtime.Time.t -> Host.Host_id.Set.t

val live_deadline :
  t -> Vstore.File_id.t -> now:Simtime.Time.t -> init:Lease.expiry -> Lease.expiry
(** Latest live expiry on the file, at least [init]. *)

val write_snapshot :
  t ->
  Vstore.File_id.t ->
  now:Simtime.Time.t ->
  init:Lease.expiry ->
  Lease.expiry * Host.Host_id.Set.t
(** [live_deadline] and [live_holder_set] in one reap-and-fold pass — the
    write path's single visit. *)

val sweep : t -> now:Simtime.Time.t -> int
(** Reap every slot whose earliest expiry has passed; returns the number
    of records reaped.  O(files) comparisons plus the amortized reap work.
    Driven periodically from the server clock so idle files do not hold
    their expired records until the next access. *)

type occupancy = { files : int; records : int; live_records : int }

val occupancy : t -> now:Simtime.Time.t -> occupancy
(** Whole-table occupancy after a {!sweep} at [now]: files with at least
    one live record and the live record count ([records] =
    [live_records] — both fields are kept so existing consumers see the
    same shape).  O(files), not O(lifetime records). *)

val next_finite_expiry : t -> Simtime.Time.t option
(** Lower bound on the earliest finite expiry among resident records;
    [None] when nothing resident can ever expire.  The server uses it to
    decide whether the periodic sweep still has work coming — a sweep
    timer that re-armed unconditionally would keep the simulation's event
    queue alive forever. *)

val resident_records : t -> int
(** O(1): records currently resident (live plus not-yet-reaped). *)

val resident_files : t -> int
(** O(1): files with at least one resident record. *)

val reaped_total : t -> int
(** Lifetime count of reaped records; never reset. *)

val clear : t -> unit
(** Crash reset: empty the table in place. *)
