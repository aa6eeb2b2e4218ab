(* Unit tests for the workload substrate: filesets, mixes, generators,
   trace summaries and the trace text format. *)

open Simtime

let span = Time.Span.of_sec

let fresh_allocator () =
  let next = ref 0 in
  fun () ->
    let id = Vstore.File_id.of_int !next in
    incr next;
    id

let small_fileset ?(clients = 2) () =
  Workload.Fileset.create ~fresh_id:(fresh_allocator ()) ~clients ~installed:4 ~shared:3
    ~private_per_client:5 ~temporary_per_client:2

let test_fileset_classes () =
  let fs = small_fileset () in
  Alcotest.(check int) "clients" 2 (Workload.Fileset.clients fs);
  Alcotest.(check int) "installed" 4 (Array.length (Workload.Fileset.installed fs));
  Alcotest.(check int) "shared" 3 (Array.length (Workload.Fileset.shared fs));
  Alcotest.(check int) "private of 0" 5 (Array.length (Workload.Fileset.private_of fs 0));
  Alcotest.(check int) "temp of 1" 2 (Array.length (Workload.Fileset.temporary_of fs 1));
  Alcotest.(check int) "total" (4 + 3 + (2 * 5) + (2 * 2)) (Workload.Fileset.size fs);
  let inst = (Workload.Fileset.installed fs).(0) in
  (match Workload.Fileset.class_of fs inst with
  | Workload.Fileset.Installed -> ()
  | _ -> Alcotest.fail "installed class");
  let priv = (Workload.Fileset.private_of fs 1).(0) in
  (match Workload.Fileset.class_of fs priv with
  | Workload.Fileset.Private 1 -> ()
  | _ -> Alcotest.fail "private owner");
  Alcotest.check_raises "unknown file" Not_found (fun () ->
      ignore (Workload.Fileset.class_of fs (Vstore.File_id.of_int 999)));
  Alcotest.check_raises "client out of range"
    (Invalid_argument "Fileset: client index out of range") (fun () ->
      ignore (Workload.Fileset.private_of fs 2))

let test_fileset_ids_disjoint () =
  let fs = small_fileset () in
  let all = Workload.Fileset.all fs in
  let deduped = List.sort_uniq Vstore.File_id.compare all in
  Alcotest.(check int) "no id collisions" (List.length all) (List.length deduped)

let test_mix_validation () =
  Workload.Mix.validate Workload.Mix.v_default;
  let bad = { Workload.Mix.v_default with Workload.Mix.p_installed_read = 0.9; p_shared_read = 0.3 } in
  Alcotest.check_raises "read fractions > 1" (Invalid_argument "Mix: read fractions exceed 1")
    (fun () -> Workload.Mix.validate bad)

let test_mix_class_targeting () =
  let fs = small_fileset () in
  let rng = Prng.Splitmix.create ~seed:5L in
  let mix = Workload.Mix.v_default in
  (* writes never target installed files *)
  for _ = 1 to 2_000 do
    let f = Workload.Mix.pick_write mix rng fs ~client:0 in
    match Workload.Fileset.class_of fs f with
    | Workload.Fileset.Installed -> Alcotest.fail "write to installed file"
    | Workload.Fileset.Temporary _ -> Alcotest.fail "write to temporary file via mix"
    | Workload.Fileset.Shared | Workload.Fileset.Private _ -> ()
  done;
  (* reads to private files stay with the owner *)
  for _ = 1 to 2_000 do
    let f = Workload.Mix.pick_read mix rng fs ~client:1 in
    match Workload.Fileset.class_of fs f with
    | Workload.Fileset.Private owner -> Alcotest.(check int) "owner" 1 owner
    | Workload.Fileset.Installed | Workload.Fileset.Shared -> ()
    | Workload.Fileset.Temporary _ -> Alcotest.fail "read of temporary via mix"
  done

let test_mix_installed_share () =
  let fs = small_fileset () in
  let rng = Prng.Splitmix.create ~seed:6L in
  let n = 20_000 in
  let installed = ref 0 in
  for _ = 1 to n do
    match Workload.Fileset.class_of fs (Workload.Mix.pick_read Workload.Mix.v_default rng fs ~client:0) with
    | Workload.Fileset.Installed -> incr installed
    | _ -> ()
  done;
  Alcotest.(check (float 0.02)) "installed read share ~0.48" 0.48
    (float_of_int !installed /. float_of_int n)

let test_poisson_rates () =
  let fs = small_fileset () in
  let rng = Prng.Splitmix.create ~seed:7L in
  let trace =
    Workload.Poisson_gen.generate ~rng ~fileset:fs ~mix:Workload.Mix.v_default ~read_rate:0.864
      ~write_rate:0.04 ~duration:(span 20_000.) ()
  in
  let s = Workload.Trace.summarize trace in
  Alcotest.(check (float 0.05)) "read rate" 0.864 s.Workload.Trace.read_rate_per_client;
  Alcotest.(check (float 0.01)) "write rate" 0.04 s.Workload.Trace.write_rate_per_client;
  Alcotest.(check int) "both clients appear" 2 s.Workload.Trace.clients

let test_poisson_sorted_and_bounded () =
  let fs = small_fileset () in
  let rng = Prng.Splitmix.create ~seed:8L in
  let duration = span 500. in
  let trace =
    Workload.Poisson_gen.generate ~rng ~fileset:fs ~mix:Workload.Mix.v_default ~read_rate:1.
      ~write_rate:0.1 ~temp_write_rate:0.5 ~duration ()
  in
  let rec check_sorted = function
    | a :: (b :: _ as rest) ->
      if Time.(b.Workload.Op.at < a.Workload.Op.at) then Alcotest.fail "unsorted trace";
      check_sorted rest
    | [ _ ] | [] -> ()
  in
  let ops = Workload.Trace.ops trace in
  check_sorted ops;
  List.iter
    (fun (op : Workload.Op.t) ->
      if Time.(op.at > Time.add Time.zero duration) then Alcotest.fail "op beyond horizon")
    ops;
  (* temporary stream present and flagged *)
  let temps = List.filter (fun (o : Workload.Op.t) -> o.temporary) ops in
  Alcotest.(check bool) "temporary ops exist" true (temps <> []);
  List.iter
    (fun (o : Workload.Op.t) ->
      match Workload.Fileset.class_of fs o.file with
      | Workload.Fileset.Temporary owner -> Alcotest.(check int) "temp owner" o.client owner
      | _ -> Alcotest.fail "temporary op on non-temporary file")
    temps

let test_poisson_determinism () =
  let gen seed =
    let fs = small_fileset () in
    let rng = Prng.Splitmix.create ~seed in
    Workload.Poisson_gen.generate ~rng ~fileset:fs ~mix:Workload.Mix.v_default ~read_rate:1.
      ~write_rate:0.1 ~duration:(span 100.) ()
  in
  let a = gen 42L and b = gen 42L and c = gen 43L in
  Alcotest.(check string) "same seed, same trace" (Workload.Trace_io.print a)
    (Workload.Trace_io.print b);
  Alcotest.(check bool) "different seed differs" true
    (Workload.Trace_io.print a <> Workload.Trace_io.print c)

let test_bursty_rates_and_shape () =
  let fs = small_fileset ~clients:1 () in
  let rng = Prng.Splitmix.create ~seed:9L in
  let trace =
    Workload.Bursty_gen.generate ~rng ~fileset:fs ~mix:Workload.Mix.v_default ~read_rate:0.864
      ~write_rate:0.04 ~duration:(span 50_000.) ()
  in
  let s = Workload.Trace.summarize trace in
  Alcotest.(check (float 0.15)) "long-run read rate" 0.864 s.Workload.Trace.read_rate_per_client;
  (* burstiness: the variance of inter-arrival gaps far exceeds Poisson's *)
  let gaps =
    let rec walk acc = function
      | a :: (b :: _ as rest) ->
        walk (Time.Span.to_sec (Time.diff b.Workload.Op.at a.Workload.Op.at) :: acc) rest
      | [ _ ] | [] -> acc
    in
    walk [] (Workload.Trace.ops trace)
  in
  let w = Stats.Welford.create () in
  List.iter (Stats.Welford.add w) gaps;
  let mean = Stats.Welford.mean w in
  let cv2 = Stats.Welford.variance w /. (mean *. mean) in
  Alcotest.(check bool) "coefficient of variation far above 1 (bursty)" true (cv2 > 2.)

let test_bursty_unattainable_rate () =
  let fs = small_fileset ~clients:1 () in
  let rng = Prng.Splitmix.create ~seed:10L in
  Alcotest.check_raises "gap too long for the rate"
    (Invalid_argument "Bursty_gen.generate: requested rate unattainable with this burst shape")
    (fun () ->
      ignore
        (Workload.Bursty_gen.generate ~rng ~fileset:fs ~mix:Workload.Mix.v_default ~read_rate:100.
           ~write_rate:0. ~duration:(span 10.) ()))

let test_trace_merge_filter () =
  let op at client =
    { Workload.Op.at = Time.of_sec at; client; kind = Workload.Op.Read;
      file = Vstore.File_id.of_int 0; temporary = false }
  in
  let a = Workload.Trace.of_ops [ op 3. 0; op 1. 0 ] in
  let b = Workload.Trace.of_ops [ op 2. 1 ] in
  let merged = Workload.Trace.merge [ a; b ] in
  Alcotest.(check (list int)) "merged order by time"
    [ 0; 1; 0 ]
    (List.map (fun (o : Workload.Op.t) -> o.client) (Workload.Trace.ops merged));
  let only1 = Workload.Trace.filter merged ~f:(fun o -> o.Workload.Op.client = 1) in
  Alcotest.(check int) "filter" 1 (Workload.Trace.length only1);
  Alcotest.(check (float 1e-9)) "duration" 3. (Time.Span.to_sec (Workload.Trace.duration merged));
  Alcotest.(check (float 1e-9)) "empty duration" 0.
    (Time.Span.to_sec (Workload.Trace.duration (Workload.Trace.of_ops [])))

let test_trace_io_roundtrip () =
  let fs = small_fileset () in
  let rng = Prng.Splitmix.create ~seed:11L in
  let trace =
    Workload.Poisson_gen.generate ~rng ~fileset:fs ~mix:Workload.Mix.v_default ~read_rate:2.
      ~write_rate:0.5 ~temp_write_rate:0.3 ~duration:(span 60.) ()
  in
  let text = Workload.Trace_io.print trace in
  let back = Workload.Trace_io.parse_exn text in
  Alcotest.(check string) "print . parse = id" text (Workload.Trace_io.print back)

let test_trace_io_parsing () =
  let ok = Workload.Trace_io.parse "# comment\n\n100 0 R 5\n200 1 W 6 T\n" in
  (match ok with
  | Ok trace ->
    Alcotest.(check int) "two ops" 2 (Workload.Trace.length trace);
    let second = List.nth (Workload.Trace.ops trace) 1 in
    Alcotest.(check bool) "temp flag" true second.Workload.Op.temporary
  | Error why -> Alcotest.failf "unexpected parse error: %s" why);
  (match Workload.Trace_io.parse "100 0 R 5\nbogus line\n" with
  | Error why ->
    Alcotest.(check bool) "error names line 2" true
      (String.length why >= 6 && String.sub why 0 6 = "line 2")
  | Ok _ -> Alcotest.fail "expected parse failure");
  (match Workload.Trace_io.parse "100 0 X 5\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad kind accepted");
  (match Workload.Trace_io.parse "-1 0 R 5\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative time accepted");
  (* plain decimal digits only: OCaml literal syntax is not reinterpreted *)
  List.iter
    (fun line ->
      match Workload.Trace_io.parse line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "literal syntax accepted: %S" line)
    [ "1_000 0 R 5\n"; "0x10 0 R 5\n"; "100 0b1 R 5\n"; "100 0 W +5\n"; "100 0o7 R 5\n" ]

let () =
  Alcotest.run "workload"
    [
      ( "fileset",
        [
          Alcotest.test_case "classes" `Quick test_fileset_classes;
          Alcotest.test_case "ids disjoint" `Quick test_fileset_ids_disjoint;
        ] );
      ( "mix",
        [
          Alcotest.test_case "validation" `Quick test_mix_validation;
          Alcotest.test_case "class targeting" `Quick test_mix_class_targeting;
          Alcotest.test_case "installed share" `Quick test_mix_installed_share;
        ] );
      ( "generators",
        [
          Alcotest.test_case "poisson rates" `Quick test_poisson_rates;
          Alcotest.test_case "sorted + bounded" `Quick test_poisson_sorted_and_bounded;
          Alcotest.test_case "determinism" `Quick test_poisson_determinism;
          Alcotest.test_case "bursty rates + shape" `Quick test_bursty_rates_and_shape;
          Alcotest.test_case "bursty rejects impossible rate" `Quick test_bursty_unattainable_rate;
        ] );
      ( "trace",
        [
          Alcotest.test_case "merge + filter" `Quick test_trace_merge_filter;
          Alcotest.test_case "io roundtrip" `Quick test_trace_io_roundtrip;
          Alcotest.test_case "io parsing" `Quick test_trace_io_parsing;
        ] );
    ]
