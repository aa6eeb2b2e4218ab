module Host_id = Host.Host_id
module File_id = Vstore.File_id
open Simtime

(* Sentinel "no finite expiry resident": far enough that no simulated clock
   reaches it (Time is microseconds in an int63). *)
let horizon = Time.of_us max_int

(* Resident records of one file.  Most files only ever see a single holder
   (private and temporary files dominate real traces), so the single-record
   case is stored inline — four words, no hash table — and a slot is only
   promoted to a [Many] table when a second distinct holder shows up.  A
   promoted slot never demotes: shared files stay shared. *)
type holders =
  | No_holder
  | One of { mutable holder : int; mutable h_expiry : Lease.expiry }
  | Many of many

(* A shared file: the holder table is the source of truth for membership
   and every aggregate; beside it, a binary min-heap of (expiry µs, holder)
   entries, stored interleaved in one int array and ordered by the pair,
   tells the reap which holders to look at.  Invariant: every finite-expiry
   holder in [tbl] has an entry whose key is at most its current expiry.
   So a renewal to a later expiry touches only [tbl] (the old, earlier
   entry still covers it and is re-keyed when it surfaces), and only a new
   holder or an earlier expiry pushes.  Entries of removed or [Never]
   holders are orphans, dropped when they surface; [compact] rebuilds the
   heap from [tbl] before orphans and duplicates outnumber the holders.
   [Simtime.Event_queue] can't serve here: it allocates a handle per push
   (8 minor words) and would need a cancel plus a push on every renewal,
   where a later-expiry renewal here does no heap work and allocates
   nothing (40 holders renewed 1M times on a 2-core host); and it breaks
   ties by insertion, not by holder. *)
and many = {
  tbl : (int, Lease.expiry) Hashtbl.t;
  mutable heap : int array;  (** [heap.(2i)] = expiry µs, [heap.(2i+1)] = holder *)
  mutable queued : int;  (** entries in [heap] *)
}

(* Per-file slot.  [holders] contains only records that have not been
   reaped yet; [min_next] is a lower bound on the earliest finite expiry
   among them (monotone under [record], recomputed exactly by a reap).
   When the server clock passes [min_next] the slot is reaped on the next
   access, so every aggregate below runs over records that are live *now* —
   the cost of a grant tracks live sharing, not the file's lifetime holder
   history. *)
type slot = {
  mutable holders : holders;
  mutable min_next : Time.t;
}

type t = {
  mutable slots : slot option array;  (** indexed by [File_id.to_int] *)
  mutable files : int;  (** slots with at least one resident record *)
  mutable records : int;  (** resident records across all slots *)
  mutable reaped_total : int;  (** lifetime reaped records, never reset *)
  mutable on_reap : File_id.t -> Host_id.t -> Lease.expiry -> unit;
      (** called once per reaped record, inside the reap pass: must not
          re-enter the table.  Installed by the server to emit
          [lease-expire] trace events; default [ignore]. *)
}

let create () =
  { slots = [||]; files = 0; records = 0; reaped_total = 0; on_reap = (fun _ _ _ -> ()) }

let set_on_reap t f = t.on_reap <- f

let holders_len = function
  | No_holder -> 0
  | One _ -> 1
  | Many m -> Hashtbl.length m.tbl

(* --- the expiry heap ------------------------------------------------- *)

let entry_lt (k1 : int) (h1 : int) (k2 : int) (h2 : int) = k1 < k2 || (k1 = k2 && h1 < h2)

(* Place entry [(k, h)] at index [i] or below, moving smaller children up. *)
let sift_down m i k h =
  let heap = m.heap and n = m.queued in
  let i = ref i and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    if l >= n then sifting := false
    else begin
      let c =
        if l + 1 < n && entry_lt heap.(2 * (l + 1)) heap.((2 * (l + 1)) + 1) heap.(2 * l) heap.((2 * l) + 1)
        then l + 1
        else l
      in
      let kc = heap.(2 * c) and hc = heap.((2 * c) + 1) in
      if entry_lt kc hc k h then begin
        heap.(2 * !i) <- kc;
        heap.((2 * !i) + 1) <- hc;
        i := c
      end
      else sifting := false
    end
  done;
  heap.(2 * !i) <- k;
  heap.((2 * !i) + 1) <- h

let push m k h =
  if 2 * (m.queued + 1) > Array.length m.heap then begin
    let heap' = Array.make (Stdlib.max 8 (2 * Array.length m.heap)) 0 in
    Array.blit m.heap 0 heap' 0 (2 * m.queued);
    m.heap <- heap'
  end;
  let heap = m.heap in
  let i = ref m.queued and sifting = ref true in
  m.queued <- m.queued + 1;
  while !sifting && !i > 0 do
    let p = (!i - 1) / 2 in
    if entry_lt k h heap.(2 * p) heap.((2 * p) + 1) then begin
      heap.(2 * !i) <- heap.(2 * p);
      heap.((2 * !i) + 1) <- heap.((2 * p) + 1);
      i := p
    end
    else sifting := false
  done;
  heap.(2 * !i) <- k;
  heap.((2 * !i) + 1) <- h

let push_expiry m expiry h =
  match expiry with Lease.At at -> push m (Time.to_us at) h | Lease.Never -> ()

let drop_top m =
  m.queued <- m.queued - 1;
  let n = m.queued in
  if n > 0 then sift_down m 0 m.heap.(2 * n) m.heap.((2 * n) + 1)

(* Rebuild the heap from the table — one exact entry per finite-expiry
   holder — once orphans and duplicates outnumber the holders.  O(holders),
   paid for by the more than [holders + 16] pushes or removals since the
   last rebuild. *)
let compact m =
  if m.queued > (2 * Hashtbl.length m.tbl) + 16 then begin
    m.queued <- 0;
    Hashtbl.iter
      (fun h expiry ->
        match expiry with
        | Lease.At at ->
          m.heap.(2 * m.queued) <- Time.to_us at;
          m.heap.((2 * m.queued) + 1) <- h;
          m.queued <- m.queued + 1
        | Lease.Never -> ())
      m.tbl;
    for i = (m.queued / 2) - 1 downto 0 do
      sift_down m i m.heap.(2 * i) m.heap.((2 * i) + 1)
    done
  end

let ensure t idx =
  let cap = Array.length t.slots in
  if idx >= cap then begin
    let cap' = Stdlib.max 16 (Stdlib.max (idx + 1) (2 * cap)) in
    let slots' = Array.make cap' None in
    Array.blit t.slots 0 slots' 0 cap;
    t.slots <- slots'
  end

let slot_opt t file =
  let idx = File_id.to_int file in
  if idx < Array.length t.slots then t.slots.(idx) else None

(* Remove every record expired at [now] and recompute [min_next] exactly.
   A single-holder slot is one comparison.  A shared slot pops heap entries
   until the top is an exact, unexpired entry: an expired holder is reaped,
   an orphan dropped, and an entry older than its holder's renewal re-keyed
   to the current expiry.  So the pass costs O((expired + re-keyed) · log
   holders), each renewal is re-keyed at most once, and the records reaped
   come out in (expiry, holder) order whatever the hash layout.  A pass
   that reaps nothing still moves [min_next] to the true minimum, so the
   slot stays clean until the clock passes it. *)
let reap_slot t file slot ~now =
  if Time.(slot.min_next <= now) then begin
    match slot.holders with
    | No_holder -> slot.min_next <- horizon
    | One r ->
      if Lease.expired r.h_expiry ~now then begin
        t.records <- t.records - 1;
        t.reaped_total <- t.reaped_total + 1;
        t.files <- t.files - 1;
        let holder = r.holder and expiry = r.h_expiry in
        slot.holders <- No_holder;
        slot.min_next <- horizon;
        t.on_reap file (Host_id.of_int holder) expiry
      end
      else
        slot.min_next <- (match r.h_expiry with Lease.At at -> at | Lease.Never -> horizon)
    | Many m ->
      let had = Hashtbl.length m.tbl in
      let now_us = Time.to_us now in
      let settled = ref false in
      while (not !settled) && m.queued > 0 do
        let k = m.heap.(0) and h = m.heap.(1) in
        match Hashtbl.find m.tbl h with
        | exception Not_found -> drop_top m
        | Lease.Never -> drop_top m
        | Lease.At at as expiry ->
          let e = Time.to_us at in
          if e <> k then sift_down m 0 e h
          else if e <= now_us then begin
            drop_top m;
            Hashtbl.remove m.tbl h;
            t.records <- t.records - 1;
            t.reaped_total <- t.reaped_total + 1;
            t.on_reap file (Host_id.of_int h) expiry
          end
          else settled := true
      done;
      slot.min_next <- (if m.queued > 0 then Time.of_us m.heap.(0) else horizon);
      if had > 0 && Hashtbl.length m.tbl = 0 then t.files <- t.files - 1;
      compact m
  end

(* The slot with every expired record removed, or [None] when the file has
   no live records at [now]. *)
let live_slot t file ~now =
  match slot_opt t file with
  | None -> None
  | Some slot ->
    reap_slot t file slot ~now;
    if holders_len slot.holders = 0 then None else Some slot

let record t file holder expiry =
  let idx = File_id.to_int file in
  ensure t idx;
  let slot =
    match t.slots.(idx) with
    | Some slot -> slot
    | None ->
      let slot = { holders = No_holder; min_next = horizon } in
      t.slots.(idx) <- Some slot;
      slot
  in
  let h = Host_id.to_int holder in
  (match slot.holders with
  | No_holder ->
    t.files <- t.files + 1;
    t.records <- t.records + 1;
    slot.holders <- One { holder = h; h_expiry = expiry }
  | One r when r.holder = h -> r.h_expiry <- expiry
  | One r ->
    let m = { tbl = Hashtbl.create 8; heap = [||]; queued = 0 } in
    Hashtbl.replace m.tbl r.holder r.h_expiry;
    Hashtbl.replace m.tbl h expiry;
    push_expiry m r.h_expiry r.holder;
    push_expiry m expiry h;
    t.records <- t.records + 1;
    slot.holders <- Many m
  | Many m ->
    let needs_entry =
      match Hashtbl.find m.tbl h with
      | exception Not_found ->
        if Hashtbl.length m.tbl = 0 then t.files <- t.files + 1;
        t.records <- t.records + 1;
        true
      | Lease.Never -> true
      | Lease.At o -> ( match expiry with Lease.At n -> Time.(n < o) | Lease.Never -> false)
    in
    Hashtbl.replace m.tbl h expiry;
    (* a later expiry is still covered by the holder's existing entry; only
       a new holder or an earlier expiry needs an entry of its own *)
    if needs_entry then begin
      push_expiry m expiry h;
      compact m
    end);
  match expiry with
  | Lease.At at -> if Time.(at < slot.min_next) then slot.min_next <- at
  | Lease.Never -> ()

let remove_holder t file holder =
  match slot_opt t file with
  | Some slot -> (
    let h = Host_id.to_int holder in
    match slot.holders with
    | No_holder -> ()
    | One r when r.holder = h ->
      slot.holders <- No_holder;
      t.records <- t.records - 1;
      t.files <- t.files - 1;
      slot.min_next <- horizon
    | One _ -> ()
    | Many m ->
      if Hashtbl.mem m.tbl h then begin
        (* the holder's heap entries become orphans *)
        Hashtbl.remove m.tbl h;
        t.records <- t.records - 1;
        if Hashtbl.length m.tbl = 0 then begin
          t.files <- t.files - 1;
          m.queued <- 0;
          slot.min_next <- horizon
        end
        else compact m
      end)
  | None -> ()

let drop_file t file =
  match slot_opt t file with
  | Some slot ->
    let n = holders_len slot.holders in
    if n > 0 then begin
      t.records <- t.records - n;
      t.files <- t.files - 1
    end;
    (* Keep a promoted slot's table allocated: commits drop files that are
       about to be re-read, so the holder table is hot again immediately. *)
    (match slot.holders with
    | No_holder | One _ -> slot.holders <- No_holder
    | Many m ->
      Hashtbl.reset m.tbl;
      m.queued <- 0);
    slot.min_next <- horizon
  | None -> ()

(* Iteration order over a Hashtbl is unspecified, so every aggregate below
   is either order-independent (count, max, set union) or explicitly sorted
   — simulation determinism must not depend on hash layout. *)

let fold_live t file ~now ~init ~f =
  match live_slot t file ~now with
  | None -> init
  | Some slot -> (
    match slot.holders with
    | No_holder -> init
    | One r -> f (Host_id.of_int r.holder) r.h_expiry init
    | Many m ->
      Hashtbl.fold (fun holder expiry acc -> f (Host_id.of_int holder) expiry acc) m.tbl init)

(* After the reap every resident record is live, so the count is the slot
   length — the grant path's O(1). *)
let live_count t file ~now =
  match live_slot t file ~now with None -> 0 | Some slot -> holders_len slot.holders

let live_holders t file ~now =
  fold_live t file ~now ~init:[] ~f:(fun holder _ acc -> holder :: acc)
  |> List.sort Host_id.compare

let live_holder_set t file ~now =
  fold_live t file ~now ~init:Host_id.Set.empty ~f:(fun holder _ acc -> Host_id.Set.add holder acc)

let live_deadline t file ~now ~init =
  fold_live t file ~now ~init ~f:(fun _ expiry acc -> Lease.expiry_max expiry acc)

(* One pass for the write path: the latest live expiry and the live holder
   set together, instead of two reap-check-and-fold rounds. *)
let write_snapshot t file ~now ~init =
  fold_live t file ~now ~init:(init, Host_id.Set.empty)
    ~f:(fun holder expiry (deadline, holders) ->
      (Lease.expiry_max expiry deadline, Host_id.Set.add holder holders))

let sweep t ~now =
  let before = t.reaped_total in
  Array.iteri
    (fun idx slot ->
      match slot with
      | Some slot ->
        if holders_len slot.holders > 0 then reap_slot t (File_id.of_int idx) slot ~now
      | None -> ())
    t.slots;
  t.reaped_total - before

type occupancy = { files : int; records : int; live_records : int }

(* A sweep leaves only live records resident, so the counters answer the
   occupancy question in O(files) comparisons (most slots are already
   clean) instead of the old fold over every record ever granted. *)
let occupancy (t : t) ~now =
  ignore (sweep t ~now);
  { files = t.files; records = t.records; live_records = t.records }

(* Earliest finite expiry lower bound across all slots — [None] when every
   resident record is infinite (or the table is empty), i.e. nothing will
   ever become reapable.  O(slot array). *)
let next_finite_expiry t =
  let best = ref horizon in
  Array.iter
    (function
      | Some slot -> if Time.(slot.min_next < !best) then best := slot.min_next
      | None -> ())
    t.slots;
  if Time.(!best < horizon) then Some !best else None

let resident_records (t : t) = t.records
let resident_files (t : t) = t.files
let reaped_total (t : t) = t.reaped_total

let clear (t : t) =
  t.slots <- [||];
  t.files <- 0;
  t.records <- 0
