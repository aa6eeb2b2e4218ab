(** Per-shard telemetry windows and §3.1 residuals for sharded deployments.

    Each part of a split deployment is a single-server simulation, so it
    samples itself with the ordinary {!Telemetry.Sampler}.  {!gather}
    keys the parts' windows by shard, and {!report} runs them through the
    unmodified {!Telemetry.Residual.evaluate_window}: a per-shard measured
    -vs-predicted consistency load with no shard-specific model, the
    model's per-client read rate measured from that shard's reads. *)

type t

val gather : Telemetry.Sampler.t array -> t
(** Finalized samplers, one per shard in shard order, all on one interval:
    part [s]'s windows become shard [s]'s.  Every part runs to the same
    horizon, so window indices line up across shards. *)

type shard_report = {
  sr_shard : int;
  sr_windows : Telemetry.Sampler.window list;
  sr_evals : Telemetry.Residual.eval list;
  sr_summary : Telemetry.Residual.summary;
}

val report : t -> params:Telemetry.Residual.params -> shard_report array
(** One report per shard.  [params.n_clients] should be the {e total}
    client count: every client reads every shard, so the per-shard,
    per-client rate the model wants is shard reads over all clients. *)
