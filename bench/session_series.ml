(* BENCH_session.json — incremental sessions vs cold rebuilds.

   The paper's section-8 troubleshooting loop alternates measurement and
   diagnosis on one circuit.  A stateless implementation pays the whole
   pipeline every round: model compilation, the sensitivity-analysis
   simulator sweeps, the prediction pass, then propagation and analysis
   over all measurements so far.  A {!Flames_session.Session} keeps the
   first three alive and only redoes the per-measurement-set work — with
   bit-identical results (the session-equivalence oracle).

   This series replays the corpus troubleshooting scenarios step by
   step, timing each measure→diagnose round both ways: one row per
   scenario timing the session loop, with the cold loop's median and
   both per-step lists as counters.  Wall clocks are host-dependent;
   the overall cold/session ratio is the claim. *)

module Harness = Flames_bench.Harness
module I = Flames_fuzzy.Interval
module Q = Flames_circuit.Quantity
module F = Flames_circuit.Fault
module L = Flames_circuit.Library
module Session = Flames_session.Session
module Diagnose = Flames_core.Diagnose
module Json = Flames_serve.Json

type scenario = {
  name : string;
  circuit : unit -> Flames_circuit.Netlist.t;
  fault : string;  (** comp.param=mode, ground truth *)
  probes : string list;  (** measured in order, one diagnose per step *)
}

(* The corpus/sessions transcripts, as data: the fig-6/7 amplifier hunt
   and the fig-5/7 diode example, plus the divider smoke case. *)
let scenarios =
  [
    {
      name = "fig6-amplifier-r2-short";
      circuit = (fun () -> L.three_stage_amplifier ());
      fault = "r2.R=short";
      probes = [ "vs"; "n2"; "v1"; "n1"; "e1" ];
    };
    {
      name = "fig7-diode-vf-high";
      circuit = (fun () -> L.diode_resistor ~powered:true ());
      fault = "d1.Vf=high";
      probes = [ "n1"; "n2" ];
    };
    {
      name = "divider-r2-short";
      circuit = (fun () -> L.voltage_divider ());
      fault = "r2.R=short";
      probes = [ "mid"; "in" ];
    };
  ]

let instrument = { Flames_sim.Measure.relative = 0.002; floor = 5e-4 }

let observations_of s =
  let nominal = s.circuit () in
  let fault =
    match F.of_spec s.fault with
    | Ok f -> f
    | Error m -> failwith (s.name ^ ": " ^ m)
  in
  let sol = Flames_sim.Mna.solve (F.inject nominal fault) in
  ( nominal,
    Flames_sim.Measure.probe_all ~instrument sol
      (List.map Q.voltage s.probes) )

(* Per-step wall of the stateless loop: every round re-runs the whole
   [Diagnose.run] over the measurements so far (compile + sweeps +
   prediction + propagation + analysis). *)
let cold_steps nominal observations =
  List.mapi
    (fun k _ ->
      let upto = List.filteri (fun i _ -> i <= k) observations in
      snd (Harness.time (fun () -> ignore (Diagnose.run nominal upto))))
    observations

(* Per-step wall of the session loop: one [add_measurement] plus the
   (lazily rebuilt) [diagnoses]; setup (create = compile + sweeps +
   prediction + empty rebuild) is reported separately. *)
let session_steps nominal observations =
  let session, setup = Harness.time (fun () -> Session.create nominal) in
  let steps =
    List.map
      (fun (q, v) ->
        snd
          (Harness.time (fun () ->
               ignore (Session.add_measurement session q v);
               ignore (Session.diagnoses session))))
      observations
  in
  (setup, steps)

(* Medians over [reps] runs of a loop: per step, and of the loop's
   total.  These are millisecond-scale loops, so one run is noise. *)
let reps = 3

let summarise runs =
  let total = Harness.stats (List.map (List.fold_left ( +. ) 0.) runs) in
  let per_step =
    List.mapi
      (fun k _ -> Json.Num (Harness.median (List.map (fun r -> List.nth r k) runs)))
      (List.hd runs)
  in
  (total, per_step)

let measure_scenario s =
  let nominal, observations = observations_of s in
  let cold, cold_steps =
    summarise (List.init reps (fun _ -> cold_steps nominal observations))
  in
  let runs = List.init reps (fun _ -> session_steps nominal observations) in
  let session, session_steps = summarise (List.map snd runs) in
  Harness.versus ~baseline:("cold_ns", cold)
    ~counters:
      [
        ("setup_ns", Json.Num (Harness.median (List.map fst runs)));
        ("cold_step_ns", Json.Arr cold_steps);
        ("session_step_ns", Json.Arr session_steps);
      ]
    s.name "session" (List.length observations) session

let emit ~smoke =
  Harness.write "session" ~smoke (List.map measure_scenario scenarios)
