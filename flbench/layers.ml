(* Per-layer measurement for traced runs.  Layers are timed from here,
   around calls into their public functions, and counted through deltas
   of the library's always-on metrics registry; nothing is added inside
   the library.

   [Diagnose.run] is split into the stages its staged interface exposes:
   schedule lookup ([Engine.Cache.compile]), prediction
   ([Schedule.predictions] plus the nominal prediction pass), propagation
   ([Diagnose.full_pass] with the observations) and analysis
   ([Diagnose.analyze]).  Inside [analyze] three parts have figures of
   their own: the guard second pass, which the benchmark repeats with
   public calls ([Diagnose.guard_quantities], [Propagate.best_value],
   [Diagnose.full_pass]) after the timed chain, and the fault-model fit
   sweep and the candidate ranking, read from the
   [flames_diagnose_fit_seconds] and [flames_diagnose_rank_seconds]
   histograms.  What remains of [analyze] (symptom judging, suspect
   bookkeeping) is reached by no public function and is reported as
   [core.unattributed_pct]. *)

open Common
module Diagnose = Flames_core.Diagnose
module Schedule = Flames_core.Schedule
module Propagate = Flames_core.Propagate
module Budget = Flames_core.Budget
module Cache = Flames_engine.Cache
module Candidates = Flames_atms.Candidates
module Netlist = Flames_circuit.Netlist

(* [Diagnose.run]'s defaults. *)
let floor = 1e-3
let threshold = 0.02
let degree = 0.95

(* Nominal prediction engines, one per schedule — [Diagnose.run] keeps
   the same per-schedule cache, so the staged pipeline does the same
   work per request. *)
let pengines : (int, Propagate.t) Hashtbl.t = Hashtbl.create 16
let pengines_lock = Mutex.create ()

let prediction_engine schedule model predictions =
  let uid = schedule.Schedule.uid in
  Mutex.lock pengines_lock;
  let hit = Hashtbl.find_opt pengines uid in
  Mutex.unlock pengines_lock;
  match hit with
  | Some e -> e
  | None ->
    let e =
      Diagnose.full_pass ~schedule ~budget:(Budget.fresh ()) ~degree ~model
        ~predictions ~observations:[] ~guard_evidence:[] ()
    in
    Mutex.lock pengines_lock;
    Hashtbl.replace pengines uid e;
    Mutex.unlock pengines_lock;
    e

type stages = {
  lookup : float;
  predict : float;
  propagate : float;
  analyze : float;
  guard : float;  (** the repeated guard second pass; not part of the chain *)
}

(* The timed chain: what a staged diagnosis costs in all. *)
let stage_sum s = s.lookup +. s.predict +. s.propagate +. s.analyze

(* [analyze]'s guard second pass, repeated from public calls: the same
   evidence [analyze] pins, the same full pass.  [None] when [analyze]
   reuses the first pass (no guard evidence); otherwise the pass's
   conflicts must be those of the result, or the repetition is not the
   pass [analyze] ran. *)
let guard_pass ~schedule ~degree ~model ~predictions ~first ~observations =
  let guard_evidence =
    List.filter_map
      (fun q ->
        Propagate.best_value first ~observational:true q
        |> Option.map (fun (v : Flames_core.Value.t) -> (q, v.Flames_core.Value.interval)))
      (Diagnose.guard_quantities model)
  in
  if guard_evidence = [] then None
  else
    let engine, t =
      time (fun () ->
          Diagnose.full_pass ~schedule ~budget:(Budget.fresh ()) ~degree ~model ~predictions
            ~observations ~guard_evidence ())
    in
    Some (Propagate.conflicts engine, t)

let same_conflicts a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Candidates.conflict) (y : Candidates.conflict) ->
         Flames_atms.Env.equal x.Candidates.env y.Candidates.env
         && Float.equal x.Candidates.degree y.Candidates.degree)
       a b

(* One diagnosis through the staged interface; bit-identical to
   [Diagnose.run ~config ~schedule] (checked by the callers against the
   reference fingerprint).  The guard pass is repeated after the chain;
   the flag says whether the repetition reproduced the result's
   conflicts. *)
let staged ~cache ~config netlist observations =
  let t0 = now () in
  let schedule = Cache.compile cache ~config netlist in
  let t1 = now () in
  let model = Schedule.model schedule in
  let predictions = Schedule.predictions schedule ~floor ~threshold in
  let prediction = prediction_engine schedule model predictions in
  let t2 = now () in
  let budget = Budget.fresh () in
  let first =
    Diagnose.full_pass ~schedule ~budget ~degree ~model ~predictions
      ~observations ~guard_evidence:[] ()
  in
  let t3 = now () in
  let result =
    Diagnose.analyze ~schedule ~budget ~degree ~model ~predictions ~prediction
      ~first netlist observations
  in
  let t4 = now () in
  let guard, ok =
    match guard_pass ~schedule ~degree ~model ~predictions ~first ~observations with
    | None -> (0., true)
    | Some (conflicts, t) -> (t, same_conflicts conflicts result.Diagnose.conflicts)
  in
  let stages = { lookup = t1 -. t0; predict = t2 -. t1; propagate = t3 -. t2; analyze = t4 -. t3; guard } in
  (result, stages, ok)

(* The untraced counterpart: what the engine runs for one request. *)
let direct ~cache ~config netlist observations =
  let t0 = now () in
  let schedule = Cache.compile cache ~config netlist in
  let r = Diagnose.run ~config ~schedule netlist observations in
  (r, now () -. t0)

(* {1 Layer metrics from staged samples} *)

(* [samples] are the staged stage timings of every diagnosis inside the
   registry window [(before, after)], which must contain no other
   diagnosis work.  The unattributed share is the part of the chain no
   layer figure covers: [analyze] less its guard pass, fit sweep and
   ranking, over the whole chain. *)
let core_metrics r ~samples ~before ~after =
  let n = float_of_int (List.length samples) in
  let avg f = 1e3 *. mean (List.map f samples) in
  set r "core.predict_ms" (avg (fun s -> s.predict));
  set r "core.propagate_ms" (avg (fun s -> s.propagate));
  set r "core.analyze_ms" (avg (fun s -> s.analyze));
  set r "core.guard_ms" (avg (fun s -> s.guard));
  let _, fit = histogram_delta before after "flames_diagnose_fit_seconds" in
  let _, rank = histogram_delta before after "flames_diagnose_rank_seconds" in
  let fit = 1e3 *. fit /. n and rank = 1e3 *. rank /. n in
  set r "core.fit_ms" fit;
  let chain = avg stage_sum and analyze = avg (fun s -> s.analyze) in
  let rest = analyze -. avg (fun s -> s.guard) -. fit -. rank in
  set r "core.unattributed_pct" (100. *. ratio rest chain);
  let solves = counter_delta before after "flames_mna_solves_total" in
  let reused =
    counter_delta before after "flames_mna_lu_resolves_total"
    +. counter_delta before after "flames_mna_lu_rank1_total"
  in
  let sc, ss = histogram_delta before after "flames_mna_solve_seconds" in
  set r "sim.solves" (solves /. n);
  set r "sim.lu_reuse_ratio" (ratio reused solves);
  set r "sim.solve_us" (1e6 *. ratio ss sc);
  note r "sim: %.0f solves over %.0f diagnoses, %.0f answered from reused LU factors"
    solves n reused;
  note r
    "core: stages timed from the benchmark, per diagnosis: lookup %.3f ms, predict %.3f ms, \
     propagate %.3f ms, analyze %.3f ms, of which guard second pass %.3f ms (repeated), fit \
     sweep %.3f ms and ranking %.3f ms (registry); unattributed: the remaining %.3f ms of \
     analyze (symptom judging and suspect bookkeeping, which no public function reaches)"
    (avg (fun s -> s.lookup)) (avg (fun s -> s.predict))
    (avg (fun s -> s.propagate)) analyze (avg (fun s -> s.guard)) fit rank rest

(* What the benchmark keeps of a reference result: its fingerprint and
   the inputs of the exact per-result layer counts (the propagation
   engine itself is dropped, it is large). *)
type summary = {
  fingerprint : string;
  steps : int;
  conflicts : Candidates.conflict list;
}

let summarize (x : Diagnose.result) =
  {
    fingerprint = Oracle.fingerprint x;
    steps = Propagate.steps_used x.Diagnose.engine;
    conflicts = x.Diagnose.conflicts;
  }

(* Exact work counts and candidate ranking over the distinct reference
   results of the workload. *)
let result_metrics r (results : summary list) =
  let fl f = List.map (fun x -> float_of_int (f x)) results in
  set r "core.steps" (mean (fl (fun x -> x.steps)));
  set r "core.conflicts" (mean (fl (fun x -> List.length x.conflicts)));
  let ranks =
    List.map
      (fun x ->
        let reps = 20 in
        let times = List.init reps (fun _ -> snd (time (fun () -> Candidates.diagnoses x.conflicts))) in
        (median times, List.length (Candidates.diagnoses x.conflicts)))
      results
  in
  set r "atms.rank_us" (1e6 *. mean (List.map fst ranks));
  set r "atms.candidates" (mean (List.map (fun (_, c) -> float_of_int c) ranks))

(* Compile into a fresh cache, and the sensitivity sweep, on each
   distinct netlist of the workload. *)
let compile_metrics r ~config (netlists : Netlist.t list) =
  let reps = 3 in
  let per f = List.map (fun n -> median (List.init reps (fun _ -> snd (time (fun () -> f n))))) netlists in
  set r "engine.compile_ms"
    (1e3 *. mean (per (fun n -> ignore (Cache.compile (Cache.create ()) ~config n))));
  set r "sim.sensitivity_ms"
    (1e3 *. mean (per (fun n -> ignore (Flames_sim.Sensitivity.analyze n))))

let engine_metrics r ~before ~after ~busy_pct =
  let hits = counter_delta before after "flames_engine_cache_hits_total" in
  let misses = counter_delta before after "flames_engine_cache_misses_total" in
  set r "engine.cache_hit_ratio" (ratio hits (hits +. misses));
  set r "engine.cache_lookups" (hits +. misses);
  let qc, qs = histogram_delta before after "flames_engine_queue_wait_seconds" in
  (* a workload whose window ran no pool job keeps the value of the
     serve-layer pass *)
  if qc > 0. then set r "engine.queue_wait_ms" (1e3 *. qs /. qc);
  set r "engine.busy_pct" busy_pct;
  note r "engine: %.0f cache hits of %.0f lookups, %.0f pool jobs queued" hits
    (hits +. misses) qc

(* Sequential pass over distinct inputs: a warm-up, untraced [direct]
   timings, then the staged pipeline inside its own registry window.
   Sets the core and sim figures, and [trace.overhead_pct]: the staged
   chain against [direct] on the same inputs.  Returns the staged
   results, each checked against [expected]. *)
let sequential_pass r ~cache items =
  List.iter
    (fun (config, netlist, obs, _) ->
      ignore (direct ~cache ~config netlist obs);
      ignore (staged ~cache ~config netlist obs))
    items;
  let untraced =
    List.map (fun (config, netlist, obs, _) -> snd (direct ~cache ~config netlist obs)) items
  in
  let before = read_registry () in
  let staged_runs =
    List.map
      (fun (config, netlist, obs, expected) ->
        let result, s, guard_ok = staged ~cache ~config netlist obs in
        count r
          ~ok:(guard_ok && String.equal (Oracle.fingerprint result) expected)
          ~what:"staged diagnosis (or its repeated guard pass) differs from Diagnose.run";
        (result, s))
      items
  in
  let after = read_registry () in
  let samples = List.map snd staged_runs in
  core_metrics r ~samples ~before ~after;
  let u = List.fold_left ( +. ) 0. untraced in
  let s = List.fold_left (fun acc x -> acc +. stage_sum x) 0. samples in
  set r "trace.overhead_pct" (100. *. ratio (s -. u) u);
  note r "trace: %d diagnoses, direct %.3f ms, staged chain %.3f ms (sums)" (List.length items)
    (1e3 *. u) (1e3 *. s);
  List.map fst staged_runs

(* JSON layer: request parsing and reply rendering on the workload's own
   bodies, median microseconds per call. *)
let json_metrics r bodies replies =
  let per f xs = 1e6 *. median (List.map (fun x -> snd (time (fun () -> f x))) xs) in
  set r "serve.json_parse_us" (per (fun b -> ignore (Flames_serve.Json.parse_result b)) bodies);
  let parsed = List.filter_map (fun b -> Result.to_option (Flames_serve.Json.parse_result b)) replies in
  set r "serve.json_render_us" (per (fun j -> ignore (Flames_serve.Json.to_string j)) parsed)
