(** Observability record of one {!Batch} run. *)

type t = {
  jobs : int;  (** jobs submitted *)
  succeeded : int;
  failed : int;  (** cancelled, timed out or raised *)
  workers : int;
  conflicts : int;  (** total weighted conflicts across successful jobs *)
  cache_hits : int;  (** model-cache hits attributable to this batch *)
  cache_misses : int;
  retried : int;  (** re-submissions after retryable failures *)
  shed : int;  (** jobs refused by an open circuit breaker *)
  degraded : int;  (** diagnosis runs that returned budget-degraded *)
  wall_time : float;  (** batch wall-clock seconds, submit to last await *)
  cpu_time : float;
      (** process CPU seconds consumed by the batch (all domains) *)
  compile_wall : float;
      (** summed per-job model-acquisition seconds (can exceed
          [wall_time]: jobs overlap) *)
  diagnose_wall : float;  (** summed per-job diagnosis seconds *)
}

val zero : t

val throughput : t -> float
(** Jobs completed per wall-clock second ([0.] on an empty batch). *)

val pp : Format.formatter -> t -> unit

val to_json : t -> string
(** [to_json t] is one JSON object: [{ "jobs": 5, ... }] — the schema
    of the CLI's [--stats-json] and of BENCH_engine.json's counters. *)
