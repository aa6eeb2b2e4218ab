let host_shift = 32
let shard_shift = 26
let max_shards = 1 lsl (host_shift - shard_shift)

let origin ~host ~shard =
  if shard < 0 || shard >= max_shards then
    invalid_arg (Printf.sprintf "Op_id.origin: shard %d outside [0, %d)" shard max_shards);
  (host lsl host_shift) lor (shard lsl shard_shift)

let name id =
  let host = id lsr host_shift in
  let shard = (id lsr shard_shift) land (max_shards - 1) in
  let seq = id land ((1 lsl shard_shift) - 1) in
  if shard = 0 then Printf.sprintf "c%d#%d" host seq else Printf.sprintf "c%d/s%d#%d" host shard seq
