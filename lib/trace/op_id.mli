(** The layout of request and write ids, which double as the correlation
    ids of a trace.

    An id is [host lsl 32 lor shard lsl 26 lor seq]: the issuing host in
    the high bits, then the shard of the simulation that issued it, then
    a per-issuer sequence.  A client machine lives in every part of a
    split deployment, so the shard field keeps its ids from different
    parts distinct in the merged trace.  Shard 0 gives [host lsl 32], the
    single-server layout. *)

val max_shards : int
(** 64: shard indices must fit their 6 bits. *)

val origin : host:int -> shard:int -> int
(** The first id an issuer on [host] in shard [shard]'s simulation hands
    out.  Raises [Invalid_argument] unless [0 <= shard < max_shards]. *)

val name : int -> string
(** ["c<host>#<seq>"] for shard 0, ["c<host>/s<shard>#<seq>"] otherwise. *)
