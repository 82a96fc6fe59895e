(* Compiled-schedule before/after series (DESIGN.md section 13): the
   same diagnosis jobs through the reference interpreter
   ([Flames_check.Reference.diagnose], which caches nothing) and through
   [Diagnose.run] on the compiled flat schedule, cold (schedule compiled inside the timed
   region — the {!Flames_engine.Cache} miss path) and warm (one
   resident schedule reused across runs — the hit path every consumer
   after the first ride, including the schedule's published
   consistency-memo snapshots).

   Two workloads, matching the paper's evaluation: the fig-7 five-defect
   sweep over the three-stage amplifier, and the A2 amplifier-chain
   scaling series.  Every cell asserts bit-identical results — the
   compiled path is an optimisation, never a semantic fork — before it
   is timed.  Whole diagnoses are timed, not propagation passes alone:
   the schedule's sensitivity memo and shared prediction engine are
   part of what compiling buys; wall-clock medians of [reps], absolute numbers host-bound,
   the speedup columns are the point.  Written to BENCH_compile.json. *)

module Model = Flames_core.Model
module Schedule = Flames_core.Schedule
module Diagnose = Flames_core.Diagnose
module Oracle = Flames_check.Oracle
module Reference = Flames_check.Reference
module Q = Flames_circuit.Quantity
module F = Flames_circuit.Fault
module L = Flames_circuit.Library

type case = {
  series : string;  (** "fig7" | "amplifier-chain" *)
  label : string;
  config : Model.config option;
  netlist : Flames_circuit.Netlist.t;
  observations : Diagnose.observation list;
}

let instrument = { Flames_sim.Measure.relative = 0.002; floor = 5e-4 }

let fig7_cases () =
  List.map
    (fun (j : Flames_engine.Batch.job) ->
      {
        series = "fig7";
        label = j.Flames_engine.Batch.label;
        config = j.Flames_engine.Batch.config;
        netlist = j.Flames_engine.Batch.netlist;
        observations = j.Flames_engine.Batch.observations;
      })
    (Flames_experiments.Fig7.jobs ())

let chain_case k =
  let gains = List.init k (fun i -> 1. +. float_of_int (i mod 3)) in
  let nominal = L.amplifier_chain ~gains () in
  let faulty = F.inject nominal (F.shifted "amp2" ~parameter:"gain" 10.) in
  let sol = Flames_sim.Mna.solve faulty in
  let observations =
    Flames_sim.Measure.probe_all ~instrument sol
      (List.map Q.voltage (L.chain_nodes k))
  in
  {
    series = "amplifier-chain";
    label = Printf.sprintf "chain-%02d" k;
    config = None;
    netlist = nominal;
    observations;
  }

(* {1 Timing} *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let time_ns ~reps f =
  let samples =
    List.init reps (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (Sys.opaque_identity (f ()));
        (Unix.gettimeofday () -. t0) *. 1e9)
  in
  median samples

type row = {
  series : string;
  label : string;
  interp_ns : float;
  cold_ns : float;
  warm_ns : float;
}

let speedup_warm r = r.interp_ns /. Float.max r.warm_ns 1.
let speedup_cold r = r.interp_ns /. Float.max r.cold_ns 1.

let run_case ~reps c =
  let run = Diagnose.run ?config:c.config in
  let model = Model.compile ?config:c.config c.netlist in
  (* the resident schedule: what every Cache hit after the first hands
     out.  Two untimed passes first — the warm cell measures the steady
     state, after the schedule's consistency-memo snapshots have been
     published back into the master table. *)
  let schedule = Schedule.of_model model in
  let warm () = run ~schedule c.netlist c.observations in
  let interp () =
    Reference.diagnose ?config:c.config ~model c.netlist c.observations
  in
  let cold () =
    run
      ~schedule:(Schedule.compile ?config:c.config c.netlist)
      c.netlist c.observations
  in
  let reference = Oracle.result_fingerprint (interp ()) in
  let check mode r =
    if not (String.equal reference (Oracle.result_fingerprint r)) then
      failwith
        (Printf.sprintf
           "BENCH_compile: %s/%s: %s result diverges from the interpreter"
           c.series c.label mode)
  in
  check "compiled-cold" (cold ());
  check "compiled-warm" (warm ());
  check "compiled-warm (steady)" (warm ());
  {
    series = c.series;
    label = c.label;
    interp_ns = time_ns ~reps interp;
    cold_ns = time_ns ~reps cold;
    warm_ns = time_ns ~reps warm;
  }

(* {1 JSON emission} *)

let json_path = "BENCH_compile.json"
let full_chain_sizes = [ 2; 4; 8; 16 ]
let smoke_chain_sizes = [ 2; 4 ]

let emit ?(smoke = false) ppf =
  let chain_sizes = if smoke then smoke_chain_sizes else full_chain_sizes in
  let reps = if smoke then 1 else 5 in
  let cases = fig7_cases () @ List.map chain_case chain_sizes in
  let rows = List.map (run_case ~reps) cases in
  let fig7_median =
    median
      (List.filter_map
         (fun r -> if r.series = "fig7" then Some (speedup_warm r) else None)
         rows)
  in
  let cell r =
    Printf.sprintf
      "    { \"series\": %S, \"case\": %S, \"interp_ns\": %.0f, \"cold_ns\": \
       %.0f, \"warm_ns\": %.0f, \"speedup_cold\": %.2f, \"speedup_warm\": \
       %.2f }"
      r.series r.label r.interp_ns r.cold_ns r.warm_ns (speedup_cold r)
      (speedup_warm r)
  in
  let oc = open_out json_path in
  Printf.fprintf oc
    "{\n\
    \  \"series\": \"compiled-schedule-vs-interpreter\",\n\
    \  \"smoke\": %b,\n\
    \  \"reps\": %d,\n\
    \  \"chain_sizes\": [%s],\n\
    \  \"fig7_median_speedup_warm\": %.2f,\n\
    \  \"rows\": [\n\
     %s\n\
    \  ]\n\
     }\n"
    smoke reps
    (String.concat ", " (List.map string_of_int chain_sizes))
    fig7_median
    (String.concat ",\n" (List.map cell rows));
  close_out oc;
  Format.fprintf ppf "wrote %s@." json_path;
  List.iter
    (fun r ->
      Format.fprintf ppf
        "  %-15s %-14s interp %11.0f ns  cold %11.0f ns (%5.2fx)  warm \
         %11.0f ns (%5.2fx)@."
        r.series r.label r.interp_ns r.cold_ns (speedup_cold r) r.warm_ns
        (speedup_warm r))
    rows;
  Format.fprintf ppf "  fig-7 median warm speedup: %.2fx@." fig7_median
