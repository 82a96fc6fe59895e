(** Synthetic load generation against a running diagnosis service.

    [N] concurrent clients per level, each on its own keep-alive
    connection, sending a seeded mix of diagnosis requests (built-in
    circuits with catalog faults, plus {!Flames_check.Gen} ladder
    scenarios shipped as netlist text with client-computed
    observations) for a fixed duration; the sweep repeats over
    increasing client counts to find the saturation knee.  Every latency
    sample is kept, so percentiles over them are exact, unlike the
    server's bucketed histogram.

    Determinism: the request stream of client [c] at level [l] is a pure
    function of [(seed, l, c)] via {!Flames_check.Rng.case_seed} — a
    rerun with the same seed issues the same requests in the same
    per-client order (scheduling decides only how many complete). *)

type level_stats = {
  clients : int;
  requests : int;  (** responses received, any status *)
  ok : int;  (** 200 *)
  shed : int;  (** 429 — admission or quota, expected past saturation *)
  errors : int;  (** other non-200 statuses *)
  protocol_errors : int;  (** connect/read/write failures, bad HTTP *)
  degraded : int;  (** 200 with [degraded: true] *)
  duration : float;  (** measured wall clock of the level, seconds *)
  throughput_rps : float;  (** [requests / duration] *)
  latencies : float list;
      (** seconds, one per 200 response, on a monotonic clock *)
}

val run_level :
  host:string ->
  port:int ->
  seed:int ->
  level_index:int ->
  clients:int ->
  duration:float ->
  level_stats
(** Drive one client count for [duration] seconds and gather stats. *)

val sweep :
  host:string -> port:int -> seed:int -> duration:float -> int list ->
  level_stats list
(** Run {!run_level} over each client count in order (a short pause
    between levels lets the server's queues empty). *)
