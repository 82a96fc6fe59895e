(* Well-known service metrics, registered in the process-global
   Flames_obs.Metrics registry so GET /metrics exports them next to the
   engine counters (same idempotent-by-name discipline as
   Flames_engine.Telemetry). *)

module Metrics = Flames_obs.Metrics

let requests_total =
  Metrics.counter "flames_serve_requests_total"
    ~help:"HTTP requests parsed off a connection"

let responses_2xx_total =
  Metrics.counter "flames_serve_responses_2xx_total"
    ~help:"Responses sent with a 2xx status"

let responses_4xx_total =
  Metrics.counter "flames_serve_responses_4xx_total"
    ~help:"Responses sent with a 4xx status (bad input, 404, shed)"

let responses_5xx_total =
  Metrics.counter "flames_serve_responses_5xx_total"
    ~help:"Responses sent with a 5xx status (run failures, drain)"

let shed_total =
  Metrics.counter "flames_serve_shed_total"
    ~help:"Diagnosis requests shed with 429: admission queue full"

let throttled_total =
  Metrics.counter "flames_serve_throttled_total"
    ~help:"Diagnosis requests shed with 429: per-client quota exhausted"

let connections_total =
  Metrics.counter "flames_serve_connections_total"
    ~help:"TCP connections accepted"

let active_connections =
  Metrics.gauge "flames_serve_active_connections"
    ~help:"Connections currently open"

let inflight_jobs =
  Metrics.gauge "flames_serve_inflight_jobs"
    ~help:"Admitted diagnosis requests not yet answered"

let sessions_created_total =
  Metrics.counter "flames_serve_sessions_created_total"
    ~help:"Troubleshooting sessions opened via POST /session/create"

let sessions_shed_total =
  Metrics.counter "flames_serve_sessions_shed_total"
    ~help:"Session creations refused with 429: registry at capacity"

let open_sessions =
  Metrics.gauge "flames_serve_open_sessions"
    ~help:"Troubleshooting sessions currently held (TTL not expired)"

let sessions_expired_total =
  Metrics.counter "flames_serve_sessions_expired_total"
    ~help:"Troubleshooting sessions dropped after their idle TTL expired"

let session_capacity =
  Metrics.gauge "flames_serve_session_capacity"
    ~help:
      "Configured cap of the session registry; occupancy = \
       flames_serve_open_sessions / flames_serve_session_capacity"

let events_total =
  Metrics.counter "flames_serve_events_total"
    ~help:"Wide events emitted for HTTP requests"

let ready =
  Metrics.gauge "flames_serve_ready"
    ~help:
      "1 once startup recovery finished and /readyz can answer 200; 0 \
       while the listener is up but the journal is still replaying"

let sessions_restored_total =
  Metrics.counter "flames_serve_sessions_restored_total"
    ~help:"Sessions re-registered from the journal at startup"

(* Per-route latency digests: p50/p95/p99 are computed server-side from
   fixed log-spaced buckets and exported as a summary; observations
   above the SLO threshold burn the per-route
   flames_serve_route_seconds_slo_breaches_total counter. *)
let route_slo_seconds = 0.25

let route_seconds =
  Flames_obs.Digest.family ~slo:route_slo_seconds
    ~help:"Request latency per route (server-side quantile digest)"
    "flames_serve_route_seconds"
