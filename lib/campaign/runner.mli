(** Execute one schedule with both safety monitors armed and classify the
    outcome. *)

type classification =
  | Clean  (** every issued operation completed; no safety finding *)
  | Degraded  (** liveness only: some operations never completed *)
  | Safety  (** oracle staleness or a trace-checker invariant violation *)

type outcome = {
  schedule : Schedule.t;
  classification : classification;
  oracle_violations : int;
  checker_violations : int;
  first_violation : string option;  (** earliest finding, human-readable *)
  ops_issued : int;
  dropped_ops : int;
  commits : int;
  checked_events : int;  (** events replayed through the invariant checker *)
  telemetry : Telemetry.Residual.summary;
      (** per-window analytic-model residuals sampled over the run (about
          24 windows, clamped to 2.5–30 s each); fault windows surface
          here as flagged residual swings *)
  worst_write : string option;
      (** {!Trace.Critical_path} explanation of the schedule's slowest
          completed write — which phase dominated, which holders blocked
          it and how each wait resolved; [None] when no write completed *)
}

val classification_name : classification -> string

val telemetry_interval_s : float -> float
(** The sampling interval used for a schedule of the given duration. *)

val run : ?domains:int -> Schedule.t -> outcome
(** Runs {!Schedule.trace} through [Sim.run] — or, for a sharded schedule,
    [Shard.Deploy.run_split] on up to [domains] (default 2) OCaml domains —
    with the register oracle, an in-memory trace buffer feeding
    {!Trace.Checker.check}, and a telemetry sampler evaluating the Section
    3.1 residuals per window.  The outcome does not depend on [domains]. *)

val to_json : outcome -> Trace.Json.t
