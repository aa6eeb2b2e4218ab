module Sampler = Telemetry.Sampler
module Residual = Telemetry.Residual

type t = Sampler.window list array

let gather parts = Array.map Sampler.windows parts

type shard_report = {
  sr_shard : int;
  sr_windows : Sampler.window list;
  sr_evals : Residual.eval list;
  sr_summary : Residual.summary;
}

let report t ~params =
  Array.mapi
    (fun s ws ->
      let evals = List.map (Residual.evaluate_window params) ws in
      { sr_shard = s; sr_windows = ws; sr_evals = evals; sr_summary = Residual.summarize params evals })
    t
