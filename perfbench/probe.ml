(* Host-speed probe.

   On a shared host the speed of this kind of work drifts by ±20 % over
   seconds to minutes, and the drift is memory-side: a pure integer loop
   stays within 2 % while hash-table and allocation loops move with the
   simulator.  The probe is a fixed kernel of that kind of work — hash-table
   updates and medium-lived allocation that the major GC must promote and
   sweep — written here, so no change to the program can make it faster or
   slower.  The end-to-end mode times it just before and just after every
   timed run call and scales the call's wall time by [ref_s] over their mean.

   The kernel runs in a child process ([bench.exe --probe]), so the
   program's live heap, which a change may grow or shrink, is not in the
   probe's GC work.  The child times two passes, the first of which also
   faults its fresh heap in. *)

(* The probe's median time on the 2-core host the benchmark was sized on,
   so that a reference-second is about one of that host's seconds at its
   usual speed. *)
let ref_s = 0.63

type node = { id : int; weight : float; mutable next : node option }

let kernel () =
  let lcg x = ((x * 1103515245) + 12345) land 0x3fffffff in
  let table = Hashtbl.create 16 in
  let x = ref 3 in
  for i = 1 to 100_000 do
    x := lcg !x;
    let k = !x mod 50_000 in
    match Hashtbl.find_opt table k with
    | Some l -> Hashtbl.replace table k (i :: (if List.length l > 4 then [] else l))
    | None -> Hashtbl.replace table k [ i ]
  done;
  let ring = Array.make 100_000 None in
  for i = 1 to 400_000 do
    x := lcg !x;
    let j = !x mod Array.length ring in
    let prev = ring.(j) in
    ring.(j) <- Some { id = i; weight = float_of_int i; next = prev };
    Option.iter (fun p -> p.next <- None) prev
  done;
  Hashtbl.length table + Array.length ring

(* The child's side: print the seconds two passes took. *)
let child () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (kernel ()));
  ignore (Sys.opaque_identity (kernel ()));
  Printf.printf "%.9f\n%!" (Unix.gettimeofday () -. t0)

(* The parent's side: run one child to its end and read its time. *)
let measure () =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe [| exe; "--probe" |] in
  let line = try Some (input_line ic) with End_of_file -> None in
  match (Unix.close_process_in ic, Option.bind line float_of_string_opt) with
  | Unix.WEXITED 0, Some s when s > 0. -> s
  | _ -> failwith "host-speed probe failed"
