open Simtime

type fault =
  | Crash_client of { client : int; at : Time.t; duration : Time.Span.t }
  | Crash_server of { at : Time.t; duration : Time.Span.t }
  | Crash_shard of { shard : int; at : Time.t; duration : Time.Span.t }
  | Partition_clients of { clients : int list; at : Time.t; duration : Time.Span.t }
  | Client_drift of { client : int; at : Time.t; drift : float }
  | Server_drift of { shard : int; at : Time.t; drift : float }
  | Client_step of { client : int; at : Time.t; step : Time.Span.t }
  | Server_step of { shard : int; at : Time.t; step : Time.Span.t }

(* --- fault command-line specs -------------------------------------- *)
(* The textual form used by [leases-sim --fault] and printed by the
   campaign harness's shrunk reproducers; [fault_of_spec] and
   [fault_to_spec] round-trip (times carry microsecond precision). *)

let spec_num v =
  (* Shortest decimal that survives the parse; times are on the
     microsecond grid so 12 significant digits always suffice. *)
  Printf.sprintf "%.12g" v

let fault_to_spec = function
  | Crash_client { client; at; duration } ->
    Printf.sprintf "crash-client=%d,%s,%s" client
      (spec_num (Time.to_sec at))
      (spec_num (Time.Span.to_sec duration))
  | Crash_server { at; duration } ->
    Printf.sprintf "crash-server=%s,%s" (spec_num (Time.to_sec at))
      (spec_num (Time.Span.to_sec duration))
  | Crash_shard { shard; at; duration } ->
    Printf.sprintf "crash-shard=%d,%s,%s" shard
      (spec_num (Time.to_sec at))
      (spec_num (Time.Span.to_sec duration))
  | Partition_clients { clients; at; duration } ->
    Printf.sprintf "partition=%s,%s,%s"
      (String.concat "+" (List.map string_of_int clients))
      (spec_num (Time.to_sec at))
      (spec_num (Time.Span.to_sec duration))
  | Client_drift { client; at; drift } ->
    Printf.sprintf "client-drift=%d,%s,%s" client (spec_num (Time.to_sec at)) (spec_num drift)
  | Server_drift { shard = 0; at; drift } ->
    (* shard 0 keeps the pre-sharding two-argument form so shrunk
       reproducers from old campaigns stay replayable byte-for-byte *)
    Printf.sprintf "server-drift=%s,%s" (spec_num (Time.to_sec at)) (spec_num drift)
  | Server_drift { shard; at; drift } ->
    Printf.sprintf "server-drift=%d,%s,%s" shard (spec_num (Time.to_sec at)) (spec_num drift)
  | Client_step { client; at; step } ->
    Printf.sprintf "client-step=%d,%s,%s" client
      (spec_num (Time.to_sec at))
      (spec_num (Time.Span.to_sec step))
  | Server_step { shard = 0; at; step } ->
    Printf.sprintf "server-step=%s,%s" (spec_num (Time.to_sec at))
      (spec_num (Time.Span.to_sec step))
  | Server_step { shard; at; step } ->
    Printf.sprintf "server-step=%d,%s,%s" shard
      (spec_num (Time.to_sec at))
      (spec_num (Time.Span.to_sec step))

let pp_fault ppf fault = Format.pp_print_string ppf (fault_to_spec fault)

(* Plain decimal notation: an optional sign, digits with an optional
   fraction, an optional exponent.  [float_of_string] alone also reads
   OCaml literal syntax — [1_], [0x1p4], [nan], [infinity] — which a spec
   must reject rather than silently reinterpret. *)
let is_decimal s =
  let n = String.length s in
  let i = ref 0 in
  let sign () = if !i < n && (s.[!i] = '-' || s.[!i] = '+') then incr i in
  let digits () =
    let start = !i in
    while !i < n && s.[!i] >= '0' && s.[!i] <= '9' do
      incr i
    done;
    !i > start
  in
  sign ();
  let whole = digits () in
  let fraction = !i < n && s.[!i] = '.' && (incr i; digits ()) in
  let exponent_ok =
    (not (!i < n && (s.[!i] = 'e' || s.[!i] = 'E')))
    || (incr i; sign (); digits ())
  in
  (whole || fraction) && exponent_ok && !i = n

let fault_of_spec spec =
  let fail () =
    Error
      (Printf.sprintf
         "bad fault spec %S: expected crash-client=CLIENT,AT,DUR | crash-server=AT,DUR | \
          crash-shard=SHARD,AT,DUR | partition=C1+C2+...,AT,DUR | client-drift=CLIENT,AT,RATE | \
          server-drift=[SHARD,]AT,RATE | client-step=CLIENT,AT,SEC | server-step=[SHARD,]AT,SEC \
          (indices non-negative integers; times finite, in virtual seconds)"
         spec)
  in
  let exception Bad in
  let num s =
    let s = String.trim s in
    if is_decimal s then float_of_string s else raise Bad
  in
  (* An index must be a whole, non-negative number small enough to
     convert exactly; [1.7], [nan] and [-1] are malformed, not truncated. *)
  let int_ s =
    let v = num s in
    if Float.is_integer v && v >= 0. && v < 0x1p53 then int_of_float v else raise Bad
  in
  match String.index_opt spec '=' with
  | None -> fail ()
  | Some eq -> (
    let kind = String.sub spec 0 eq in
    let args =
      String.split_on_char ',' (String.sub spec (eq + 1) (String.length spec - eq - 1))
    in
    let sec v = Time.of_sec v in
    let span v = Time.Span.of_sec v in
    try
      match (kind, args) with
      | "crash-client", [ c; at; dur ] ->
        Ok (Crash_client { client = int_ c; at = sec (num at); duration = span (num dur) })
      | "crash-server", [ at; dur ] ->
        Ok (Crash_server { at = sec (num at); duration = span (num dur) })
      | "crash-shard", [ s; at; dur ] ->
        Ok (Crash_shard { shard = int_ s; at = sec (num at); duration = span (num dur) })
      | "partition", [ cs; at; dur ] ->
        Ok
          (Partition_clients
             { clients = List.map int_ (String.split_on_char '+' cs);
               at = sec (num at);
               duration = span (num dur) })
      | "client-drift", [ c; at; d ] ->
        Ok (Client_drift { client = int_ c; at = sec (num at); drift = num d })
      | "server-drift", [ at; d ] ->
        Ok (Server_drift { shard = 0; at = sec (num at); drift = num d })
      | "server-drift", [ s; at; d ] ->
        Ok (Server_drift { shard = int_ s; at = sec (num at); drift = num d })
      | "client-step", [ c; at; s ] ->
        Ok (Client_step { client = int_ c; at = sec (num at); step = span (num s) })
      | "server-step", [ at; s ] ->
        Ok (Server_step { shard = 0; at = sec (num at); step = span (num s) })
      | "server-step", [ s; at; v ] ->
        Ok (Server_step { shard = int_ s; at = sec (num at); step = span (num v) })
      | _ -> fail ()
    with
    | Bad -> fail ()
    (* [Time.of_sec] now rejects non-finite and overflowing values; a spec
       carrying one is malformed, not a crash. *)
    | Invalid_argument _ -> fail ())
