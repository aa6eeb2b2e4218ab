(* Wall-clock spans recorded by the benchmark around each call it makes
   into a layer.  Spans nest through an explicit stack, stay in memory, and
   are written out once at the end of a run. *)

type span = { id : int; parent : int; name : string; t0 : float; t1 : float }

let origin = Unix.gettimeofday ()
let now () = Unix.gettimeofday () -. origin
let finished : span list ref = ref []
let stack = ref [ 0 ]
let next_id = ref 1

let record name f =
  let id = !next_id in
  incr next_id;
  let parent = List.hd !stack in
  stack := id :: !stack;
  let t0 = now () in
  Fun.protect f ~finally:(fun () ->
      stack := List.tl !stack;
      finished := { id; parent; name; t0; t1 = now () } :: !finished)

let all () = List.sort (fun a b -> compare a.id b.id) !finished

(* Per-name totals: calls, wall seconds, and self seconds (wall minus the
   part covered by child spans). *)
let summary () =
  let spans = all () in
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let prev = Option.value (Hashtbl.find_opt child_time s.parent) ~default:0. in
      Hashtbl.replace child_time s.parent (prev +. (s.t1 -. s.t0)))
    spans;
  let rows = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let wall = s.t1 -. s.t0 in
      let self = wall -. Option.value (Hashtbl.find_opt child_time s.id) ~default:0. in
      let n, w, sf = Option.value (Hashtbl.find_opt rows s.name) ~default:(0, 0., 0.) in
      Hashtbl.replace rows s.name (n + 1, w +. wall, sf +. self))
    spans;
  Hashtbl.fold (fun name (n, w, sf) acc -> (name, n, w, sf) :: acc) rows []
  |> List.sort (fun (_, _, a, _) (_, _, b, _) -> Float.compare b a)

let write path =
  let oc = open_out path in
  output_string oc "{\"schema\":\"perfbench-spans/1\",\"spans\":[";
  List.iteri
    (fun i s ->
      Printf.fprintf oc "%s\n{\"id\":%d,\"parent\":%d,\"name\":%S,\"start_s\":%.6f,\"end_s\":%.6f}"
        (if i = 0 then "" else ",")
        s.id s.parent s.name s.t0 s.t1)
    (all ());
  output_string oc "\n]}\n";
  close_out oc
