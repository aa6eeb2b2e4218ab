(** Outstanding client RPCs, each retransmitted at a fixed interval until
    it is answered: the plumbing the write-back client and the Section 6
    baselines share.  The lease client keeps its own list with backoff.

    A request id is fresh for the table's lifetime, crashes included, so a
    late reply to a request lost in a crash never matches a new one. *)

type ('k, 'm) rpc = private {
  req : int;
  started : Simtime.Time.t;  (** engine time of the first send *)
  kind : 'k;  (** what the caller does with the reply *)
  message : 'm;  (** resent verbatim on every retry *)
  mutable timer : Simtime.Engine.handle option;
}

type ('k, 'm) t

val create : Simtime.Engine.t -> retry:Simtime.Time.Span.t -> send:('m -> unit) -> ('k, 'm) t
(** [send] puts one copy of a message on the wire. *)

val fresh : ('k, 'm) t -> int
(** The next request id. *)

val start : ('k, 'm) t -> req:int -> 'k -> 'm -> unit
(** Record the RPC, send [message] and arm its retry timer. *)

val find : ('k, 'm) t -> int -> ('k, 'm) rpc option

val finish : ('k, 'm) t -> ('k, 'm) rpc -> unit
(** Forget an answered RPC and cancel its retries. *)

val reset : ('k, 'm) t -> unit
(** A crash: forget every outstanding RPC and cancel its retries.  Ids
    keep counting up. *)

val retransmissions : ('k, 'm) t -> int
(** Copies resent by retry timers so far. *)
