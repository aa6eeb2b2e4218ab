open Simtime

type ('k, 'm) rpc = {
  req : int;
  started : Time.t;
  kind : 'k;
  message : 'm;
  mutable timer : Engine.handle option;
}

type ('k, 'm) t = {
  engine : Engine.t;
  retry : Time.Span.t;
  send : 'm -> unit;
  rpcs : (int, ('k, 'm) rpc) Hashtbl.t;
  mutable next_req : int;
  mutable retransmissions : int;
}

let create engine ~retry ~send =
  { engine; retry; send; rpcs = Hashtbl.create 32; next_req = 0; retransmissions = 0 }

let fresh t =
  let req = t.next_req in
  t.next_req <- t.next_req + 1;
  req

(* [finish] and [reset] cancel the timer, so a firing timer always
   belongs to an outstanding RPC. *)
let rec arm_retry t rpc =
  rpc.timer <-
    Some
      (Engine.schedule_after t.engine t.retry (fun () ->
           t.retransmissions <- t.retransmissions + 1;
           t.send rpc.message;
           arm_retry t rpc))

let start t ~req kind message =
  let rpc = { req; started = Engine.now t.engine; kind; message; timer = None } in
  Hashtbl.replace t.rpcs req rpc;
  t.send message;
  arm_retry t rpc

let find t req = Hashtbl.find_opt t.rpcs req

let finish t rpc =
  Option.iter Engine.cancel rpc.timer;
  Hashtbl.remove t.rpcs rpc.req

let reset t =
  Hashtbl.iter (fun _ rpc -> Option.iter Engine.cancel rpc.timer) t.rpcs;
  Hashtbl.reset t.rpcs

let retransmissions t = t.retransmissions
