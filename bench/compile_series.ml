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
   part of what compiling buys.  Written to BENCH_compile.json as one
   row per (case, cold|warm): median + IQR of [reps], with the
   interpreter's median and the speedup as counters; [n] is the fig-7
   defect's position in the paper's table, or the chain length.
   Absolute numbers are host-bound, the speedups are the point. *)

module Harness = Flames_bench.Harness
module Model = Flames_core.Model
module Schedule = Flames_core.Schedule
module Diagnose = Flames_core.Diagnose
module Oracle = Flames_check.Oracle
module Reference = Flames_check.Reference
module Q = Flames_circuit.Quantity
module F = Flames_circuit.Fault
module L = Flames_circuit.Library
module Json = Flames_serve.Json

type case = {
  series : string;  (** "fig7" | "amplifier-chain" *)
  n : int;
  label : string;
  config : Model.config option;
  netlist : Flames_circuit.Netlist.t;
  observations : Diagnose.observation list;
}

let instrument = { Flames_sim.Measure.relative = 0.002; floor = 5e-4 }

let fig7_cases () =
  List.mapi
    (fun i (j : Flames_engine.Batch.job) ->
      {
        series = "fig7";
        n = i + 1;
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
    n = k;
    label = Printf.sprintf "chain-%02d" k;
    config = None;
    netlist = nominal;
    observations;
  }

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
  let interp = Harness.sample ~reps interp in
  let row variant checks f =
    Harness.versus ~baseline:("interp_ns", interp)
      ~counters:[ ("fingerprint_checks", Json.Num checks) ]
      c.series variant c.n (Harness.sample ~reps f)
  in
  [ row "cold" 1. cold; row "warm" 2. warm ]

let full_chain_sizes = [ 2; 4; 8; 16 ]
let smoke_chain_sizes = [ 2; 4 ]

let emit ~smoke =
  let chain_sizes = if smoke then smoke_chain_sizes else full_chain_sizes in
  let reps = if smoke then 1 else 5 in
  let cases = fig7_cases () @ List.map chain_case chain_sizes in
  Harness.write "compile" ~smoke (List.concat_map (run_case ~reps) cases)
