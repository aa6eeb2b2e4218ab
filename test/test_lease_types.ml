(* Unit tests for the lease vocabulary: terms, grants, expiries and the
   term policies (including the adaptive tracker). *)

open Simtime

let sec = Time.of_sec
let span = Time.Span.of_sec

let test_terms () =
  Alcotest.(check bool) "zero is zero" true (Leases.Lease.term_is_zero Leases.Lease.term_zero);
  Alcotest.(check bool) "finite non-zero" false
    (Leases.Lease.term_is_zero (Leases.Lease.term_of_sec 1.));
  Alcotest.(check bool) "infinite not zero" false (Leases.Lease.term_is_zero Leases.Lease.Infinite);
  Alcotest.(check int) "ordering" (-1)
    (Leases.Lease.compare_term (Leases.Lease.term_of_sec 5.) Leases.Lease.Infinite);
  Alcotest.(check int) "infinite = infinite" 0
    (Leases.Lease.compare_term Leases.Lease.Infinite Leases.Lease.Infinite);
  Alcotest.check_raises "negative term" (Invalid_argument "Lease.term_of_sec: negative term")
    (fun () -> ignore (Leases.Lease.term_of_sec (-1.)))

let test_server_expiry () =
  let grant = { Leases.Lease.term = Leases.Lease.term_of_sec 10. } in
  (match Leases.Lease.server_expiry grant ~granted_at:(sec 5.) with
  | Leases.Lease.At t -> Alcotest.(check (float 1e-9)) "granted_at + term" 15. (Time.to_sec t)
  | Leases.Lease.Never -> Alcotest.fail "finite grant");
  match Leases.Lease.server_expiry { Leases.Lease.term = Leases.Lease.Infinite } ~granted_at:(sec 5.) with
  | Leases.Lease.Never -> ()
  | Leases.Lease.At _ -> Alcotest.fail "infinite grant"

let test_client_expiry_shortening () =
  let grant = { Leases.Lease.term = Leases.Lease.term_of_sec 10. } in
  let expiry =
    Leases.Lease.client_expiry grant ~received_at:(sec 100.) ~transit_allowance:(span 0.0025)
      ~skew_allowance:(span 0.1)
  in
  (match expiry with
  | Leases.Lease.At t ->
    Alcotest.(check (float 1e-9)) "t_c = term - transit - eps" (100. +. 10. -. 0.0025 -. 0.1)
      (Time.to_sec t)
  | Leases.Lease.Never -> Alcotest.fail "finite");
  (* a term shorter than the allowances is already expired on arrival:
     the paper's "non-zero t_s, zero t_c" *)
  let tiny = { Leases.Lease.term = Leases.Lease.term_of_sec 0.05 } in
  match
    Leases.Lease.client_expiry tiny ~received_at:(sec 100.) ~transit_allowance:(span 0.0025)
      ~skew_allowance:(span 0.1)
  with
  | Leases.Lease.At t ->
    Alcotest.(check (float 1e-9)) "clamped to receive instant" 100. (Time.to_sec t);
    Alcotest.(check bool) "immediately expired" true
      (Leases.Lease.expired (Leases.Lease.At t) ~now:(sec 100.))
  | Leases.Lease.Never -> Alcotest.fail "finite"

let test_client_never_outlives_server () =
  (* the safety inequality behind leases: for any finite grant, the client
     deadline precedes the server deadline by transit + skew *)
  List.iter
    (fun term_s ->
      let grant = { Leases.Lease.term = Leases.Lease.term_of_sec term_s } in
      let server = Leases.Lease.server_expiry grant ~granted_at:(sec 50.) in
      let client =
        (* the grant is received transit later than it was made *)
        Leases.Lease.client_expiry grant ~received_at:(sec 50.0025)
          ~transit_allowance:(span 0.0025) ~skew_allowance:(span 0.1)
      in
      match server, client with
      | Leases.Lease.At s, Leases.Lease.At c ->
        (* either the client deadline precedes the server's, or the clamp
           made the lease dead on arrival (client deadline = receive
           instant), which opens no trust window *)
        if Time.(s < c) && Time.(sec 50.0025 < c) then
          Alcotest.failf "client outlives server at term %g" term_s
      | _ -> Alcotest.fail "finite grants expected")
    [ 0.; 0.01; 0.5; 1.; 10.; 100. ]

let test_expired_and_max () =
  Alcotest.(check bool) "never not expired" false
    (Leases.Lease.expired Leases.Lease.Never ~now:(sec 1e9));
  Alcotest.(check bool) "deadline inclusive" true
    (Leases.Lease.expired (Leases.Lease.At (sec 5.)) ~now:(sec 5.));
  Alcotest.(check bool) "before deadline" false
    (Leases.Lease.expired (Leases.Lease.At (sec 5.)) ~now:(sec 4.999));
  (match Leases.Lease.expiry_max (Leases.Lease.At (sec 3.)) (Leases.Lease.At (sec 7.)) with
  | Leases.Lease.At t -> Alcotest.(check (float 1e-9)) "max" 7. (Time.to_sec t)
  | Leases.Lease.Never -> Alcotest.fail "finite max");
  match Leases.Lease.expiry_max (Leases.Lease.At (sec 3.)) Leases.Lease.Never with
  | Leases.Lease.Never -> ()
  | Leases.Lease.At _ -> Alcotest.fail "never dominates"

(* --- Term policies ----------------------------------------------------- *)

let resolve ?tracker policy holders =
  Leases.Term_policy.term_for policy ~tracker ~file:(Vstore.File_id.of_int 0) ~now:(sec 100.)
    ~holders

let test_static_policies () =
  (match resolve Leases.Term_policy.Zero 1 with
  | term -> Alcotest.(check bool) "zero" true (Leases.Lease.term_is_zero term));
  (match resolve (Leases.Term_policy.Fixed (span 10.)) 1 with
  | Leases.Lease.Finite s -> Alcotest.(check (float 1e-9)) "fixed" 10. (Time.Span.to_sec s)
  | Leases.Lease.Infinite -> Alcotest.fail "fixed");
  (match resolve Leases.Term_policy.Infinite 1 with
  | Leases.Lease.Infinite -> ()
  | Leases.Lease.Finite _ -> Alcotest.fail "infinite");
  Alcotest.check_raises "adaptive needs tracker"
    (Invalid_argument "Term_policy.term_for: adaptive policy needs a tracker") (fun () ->
      ignore (resolve (Leases.Term_policy.Adaptive Leases.Term_policy.default_adaptive) 1))

let test_tracker_rates () =
  let tracker = Leases.Term_policy.Tracker.create Leases.Term_policy.default_adaptive in
  let file = Vstore.File_id.of_int 1 in
  (* 100 reads over 100 s at 1/s: EWMA should settle near 1/s *)
  for i = 0 to 99 do
    Leases.Term_policy.Tracker.note_read tracker file ~now:(sec (float_of_int i))
  done;
  let rate = Leases.Term_policy.Tracker.read_rate tracker file ~now:(sec 100.) in
  Alcotest.(check bool) "EWMA read rate near 1/s" true (rate > 0.5 && rate < 1.5);
  Alcotest.(check (float 1e-9)) "no writes" 0.
    (Leases.Term_policy.Tracker.write_rate tracker file ~now:(sec 100.));
  (* rates decay toward zero when the file goes idle *)
  let later = Leases.Term_policy.Tracker.read_rate tracker file ~now:(sec 400.) in
  Alcotest.(check bool) "decays" true (later < rate /. 10.)

let test_adaptive_choices () =
  let adaptive =
    { Leases.Term_policy.default_adaptive with Leases.Term_policy.max_term = span 60. }
  in
  let tracker = Leases.Term_policy.Tracker.create adaptive in
  let read_only = Vstore.File_id.of_int 2 in
  for i = 0 to 49 do
    Leases.Term_policy.Tracker.note_read tracker read_only ~now:(sec (float_of_int i))
  done;
  (match Leases.Term_policy.Tracker.term_for tracker read_only ~now:(sec 50.) ~holders:1 with
  | Leases.Lease.Finite s ->
    Alcotest.(check (float 1e-9)) "read-only gets the max term" 60. (Time.Span.to_sec s)
  | Leases.Lease.Infinite -> Alcotest.fail "finite expected");
  (* write-shared file with alpha <= 1 gets a zero term *)
  let contended = Vstore.File_id.of_int 3 in
  for i = 0 to 49 do
    Leases.Term_policy.Tracker.note_write tracker contended ~now:(sec (float_of_int i));
    if i mod 10 = 0 then
      Leases.Term_policy.Tracker.note_read tracker contended ~now:(sec (float_of_int i))
  done;
  (match Leases.Term_policy.Tracker.term_for tracker contended ~now:(sec 50.) ~holders:30 with
  | term -> Alcotest.(check bool) "contended gets zero" true (Leases.Lease.term_is_zero term));
  (* never-seen file: minimal term (no evidence caching helps) *)
  match Leases.Term_policy.Tracker.term_for tracker (Vstore.File_id.of_int 9) ~now:(sec 50.) ~holders:1 with
  | Leases.Lease.Finite s ->
    Alcotest.(check (float 1e-9)) "unknown file gets min term" 0. (Time.Span.to_sec s)
  | Leases.Lease.Infinite -> Alcotest.fail "finite expected"

(* --- Config ------------------------------------------------------------ *)

let test_config_validation () =
  Leases.Config.validate Leases.Config.default;
  Alcotest.check_raises "retry must be positive"
    (Invalid_argument "Config: retry interval must be positive") (fun () ->
      Leases.Config.validate { Leases.Config.default with Leases.Config.retry_interval = span 0. });
  Alcotest.check_raises "installed term must exceed period"
    (Invalid_argument "Config: installed term must exceed the refresh period") (fun () ->
      Leases.Config.validate
        {
          Leases.Config.default with
          Leases.Config.installed =
            Some { Leases.Config.files = [ Vstore.File_id.of_int 0 ]; period = span 10.; term = span 5. };
        })

let test_config_with_term () =
  let zero = Leases.Config.with_term Leases.Config.default Leases.Lease.term_zero in
  (match zero.Leases.Config.term_policy with
  | Leases.Term_policy.Zero -> ()
  | _ -> Alcotest.fail "zero policy");
  let inf = Leases.Config.with_term Leases.Config.default Leases.Lease.Infinite in
  (match inf.Leases.Config.term_policy with
  | Leases.Term_policy.Infinite -> ()
  | _ -> Alcotest.fail "infinite policy");
  match (Leases.Config.with_term Leases.Config.default (Leases.Lease.term_of_sec 7.)).Leases.Config.term_policy with
  | Leases.Term_policy.Fixed s -> Alcotest.(check (float 1e-9)) "fixed 7" 7. (Time.Span.to_sec s)
  | _ -> Alcotest.fail "fixed policy"

(* One reap pass on a widely shared file hands its expired records to the
   reap hook — the server's [lease-expire] trace events — in (expiry,
   holder id) order, whatever order the holders were recorded, renewed,
   removed and re-recorded in. *)
let test_reap_order () =
  let open Leases in
  let t = Lease_table.create () in
  let file = Vstore.File_id.of_int 3 in
  let reaped = ref [] in
  Lease_table.set_on_reap t (fun f h e ->
      if not (Vstore.File_id.equal f file) then Alcotest.fail "reap on another file";
      reaped := (Host.Host_id.to_int h, e) :: !reaped);
  let at s = Lease.At (sec s) in
  let record h e = Lease_table.record t file (Host.Host_id.of_int h) e in
  List.iter
    (fun (h, s) -> record h (at s))
    [ (9, 5.); (2, 7.); (14, 5.); (5, 3.); (11, 7.); (1, 9.); (8, 3.); (20, 30.) ];
  record 7 Lease.Never;
  record 1 (at 4.) (* renewed to an earlier expiry *);
  record 5 (at 6.) (* renewed to a later expiry *);
  Lease_table.remove_holder t file (Host.Host_id.of_int 2);
  record 2 (at 2.) (* re-recorded after its removal *);
  record 20 (at 8.);
  Alcotest.(check int) "nothing reaped before the clock moves" 9
    (Lease_table.live_count t file ~now:(sec 1.));
  Alcotest.(check int) "only the Never holder survives" 1
    (Lease_table.live_count t file ~now:(sec 8.));
  let expiry = Alcotest.testable Lease.pp_expiry ( = ) in
  Alcotest.(check (list (pair int expiry)))
    "one pass, in (expiry, holder) order"
    [ (2, at 2.); (8, at 3.); (1, at 4.); (9, at 5.); (14, at 5.); (5, at 6.); (11, at 7.); (20, at 8.) ]
    (List.rev !reaped)

let () =
  Alcotest.run "lease-types"
    [
      ( "lease",
        [
          Alcotest.test_case "terms" `Quick test_terms;
          Alcotest.test_case "server expiry" `Quick test_server_expiry;
          Alcotest.test_case "client expiry shortening" `Quick test_client_expiry_shortening;
          Alcotest.test_case "client never outlives server" `Quick test_client_never_outlives_server;
          Alcotest.test_case "expired + max" `Quick test_expired_and_max;
        ] );
      ("lease-table", [ Alcotest.test_case "reap order on a hot file" `Quick test_reap_order ]);
      ( "term-policy",
        [
          Alcotest.test_case "static policies" `Quick test_static_policies;
          Alcotest.test_case "tracker rates" `Quick test_tracker_rates;
          Alcotest.test_case "adaptive choices" `Quick test_adaptive_choices;
        ] );
      ( "config",
        [
          Alcotest.test_case "validation" `Quick test_config_validation;
          Alcotest.test_case "with_term" `Quick test_config_with_term;
        ] );
    ]
