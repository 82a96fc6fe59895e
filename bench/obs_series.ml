(* BENCH_obs.json — the cost of always-on observability.

   The request-scoped layer (context install, wide-event emission into
   the ring, per-route digest observation) rides along every diagnosis
   the service runs.  This series times the fig-7 diagnosis both bare
   ([Events.set_enabled false], no context — the hot path degenerates
   to one atomic load per call site) and fully instrumented (a fresh
   context per run, one wide event, one digest observation — exactly
   what the serve layer adds per request).  The harness's paired
   protocol runs the two sides in ABBA pairs and reports the median of
   the per-pair wall ratios, so an outlier spoils one ratio instead of
   the whole estimate.  Each side is the min of two back-to-back runs:
   timing noise on a shared host is one-sided spikes, and the min
   inside a pair chops them without losing pair locality (single-run
   minima proved ±3.5% noisy here, drowning the real sub-0.1% cost).
   The claim checked in CI: instrumentation adds less than 3% to the
   diagnosis wall time. *)

module Harness = Flames_bench.Harness
module Context = Flames_obs.Context
module Events = Flames_obs.Events
module Ids = Flames_obs.Ids
module Qdigest = Flames_obs.Digest
module Json = Flames_serve.Json

(* the first fig-7 defect: R2 short *)
let fig7 = List.hd (Flames_experiments.Fig7.jobs ())

let pairs = 25

let family =
  Qdigest.family ~slo:0.25 ~help:"obs-overhead bench digest"
    "flames_bench_obs_seconds"

let time_one ~instrumented i =
  let { Flames_engine.Batch.netlist; observations; config; _ } = fig7 in
  let diagnose () = ignore (Flames_core.Diagnose.run ?config netlist observations) in
  (* a clean heap per sample: a major collection crossing one side's
     run but not the other's would read as phantom overhead *)
  Gc.major ();
  snd
  @@ Harness.time (fun () ->
         if instrumented then
           let ctx = Context.make ~trace_id:(Ids.trace_id ()) ~route:"bench" () in
           Context.with_context ctx (fun () ->
               let (), dt = Harness.time diagnose in
               Qdigest.observe_in family "bench" (dt *. 1e-9);
               Events.emit ~ctx ~name:"bench.job"
                 [ ("i", Events.Int i); ("elapsed_ms", Events.Num (dt *. 1e-6)) ])
         else diagnose ())

let emit ~smoke =
  ignore (time_one ~instrumented:false 0) (* warm-up *);
  let side instrumented i =
    Events.set_enabled instrumented;
    Float.min (time_one ~instrumented i) (time_one ~instrumented i)
  in
  let p =
    Fun.protect ~finally:(fun () -> Events.set_enabled true) @@ fun () ->
    Harness.paired ~pairs (side false) (side true)
  in
  Harness.write "obs" ~smoke
    [
      {
        Harness.series = "fig7";
        variant = "instrumented";
        n = pairs;
        stats = p.b;
        counters =
          [
            ("bare_ns", Json.Num p.a.median);
            ("ratio_iqr", Json.Num p.ratio.iqr);
            ("overhead_pct", Json.Num ((p.ratio.median -. 1.) *. 100.));
          ];
      };
    ]
