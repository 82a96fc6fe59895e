(* fig7-batch: a closed loop of [workers] callers, each submitting one
   amplifier diagnosis at a time to a shared [Engine.Pool] with
   [workers] workers over a warm [Engine.Cache].  Propagation and the fit sweep do
   nearly all the work; no service, session or journal code runs. *)

open Common
module Pool = Flames_engine.Pool
module Cache = Flames_engine.Cache
module Batch = Flames_engine.Batch
module Diagnose = Flames_core.Diagnose

(* Latency limit of one diagnosis job. *)
let slo_ms = 400.

let config (j : Batch.job) = Option.get j.Batch.config

type env = { pool : Pool.t; cache : Cache.t }

let submit env ~staged (j : Batch.job) =
  Pool.submit env.pool ~label:j.Batch.label (fun () ->
      let config = config j in
      if staged then
        let r, s, guard_ok = Layers.staged ~cache:env.cache ~config j.Batch.netlist j.Batch.observations in
        (r, Layers.stage_sum s, Some s, guard_ok)
      else
        let r, t = Layers.direct ~cache:env.cache ~config j.Batch.netlist j.Batch.observations in
        (r, t, None, true))

(* Program set-up: the pool and cache, warmed by one pass over the
   distinct jobs (the schedule's consistency memo and the solver's
   factor caches fill on first use).  [restart] stops at the first
   answered job instead. *)
let start ?(restart = false) jobs i =
  let env = { pool = Pool.create ~workers (); cache = Cache.create () } in
  let warm = if restart then [ jobs.(i) ] else Array.to_list jobs in
  List.map (submit env ~staged:false) warm
  |> List.iter (fun p ->
         match Pool.await p with
         | Ok _ -> ()
         | Error _ -> failwith "fig7-batch: warm-up diagnosis failed");
  env

(* Cold restarts timed per run, each paper defect twice. *)
let n_restarts = 2 * Inputs.fig7_paper

type sample = {
  idx : int;
  lat : float;  (** submit to result, seconds *)
  gap : float;  (** caller turnaround: previous result to this submit; [nan] first *)
  service : float;  (** time inside the worker *)
  stages : Layers.stages option;
  ok : bool;
}

let loop env jobs refs r ~seconds ~staged =
  let n = Array.length jobs in
  let next = Atomic.make 0 in
  let samples = ref [] and lock = Mutex.create () in
  let t0 = now () in
  let deadline = t0 +. seconds in
  let caller () =
    let last = ref Float.nan in
    while now () < deadline do
      let i = Atomic.fetch_and_add next 1 mod n in
      let ts = now () in
      let outcome = Pool.await (submit env ~staged jobs.(i)) in
      let lat = now () -. ts in
      let gap = ts -. !last in
      let s =
        match outcome with
        | Ok (res, service, stages, guard_ok) ->
          { idx = i; lat; gap; service; stages; ok = guard_ok && String.equal (Oracle.fingerprint res) refs.(i) }
        | Error _ -> { idx = i; lat; gap; service = 0.; stages = None; ok = false }
      in
      last := now ();
      count r ~ok:s.ok
        ~what:(Printf.sprintf "fig7-batch job %S: wrong or failed diagnosis" jobs.(i).Batch.label);
      Mutex.lock lock;
      samples := s :: !samples;
      Mutex.unlock lock
    done
  in
  List.iter Thread.join (List.init workers (fun _ -> Thread.create caller ()));
  (!samples, now () -. t0)

let latencies samples = sorted (List.map (fun s -> s.lat) samples)

let run r ~seed ~seconds ~trace =
  let jobs = Inputs.fig7_jobs ~seed in
  (* reference: plain sequential Diagnose.run, outside the timed set-up *)
  let ref_results =
    Array.map
      (fun (j : Batch.job) ->
        Layers.summarize (Diagnose.run ~config:(config j) j.Batch.netlist j.Batch.observations))
      jobs
  in
  let refs = Array.map (fun (s : Layers.summary) -> s.Layers.fingerprint) ref_results in
  (* the benchmark's own garbage must not count in the program's peak *)
  Gc.compact ();
  note r "fig7-batch: %d distinct jobs (%d paper defects + %d seeded faults), %d callers, %d workers"
    (Array.length jobs) Inputs.fig7_paper Inputs.fig7_seeded workers workers;
  let setups =
    List.init 3 (fun i ->
        let e, t = time (fun () -> start jobs i) in
        if i < 2 then begin
          Pool.shutdown e.pool;
          Gc.compact ()
        end;
        (e, t))
  in
  let env = fst (List.nth setups 2) in
  set r "setup_s" (median (List.map snd setups));
  if not trace then begin
    let rss = rss_sampler () in
    let samples, wall = loop env jobs refs r ~seconds ~staged:false in
    let rss = rss () in
    Pool.shutdown env.pool;
    let lat = latencies samples in
    let ok = List.filter (fun s -> s.ok) samples in
    set r "ops_per_s" (float_of_int (List.length ok) /. wall);
    set r "p50_ms" (1e3 *. percentile lat 0.5);
    set r "tail_ms" (1e3 *. percentile lat 0.95);
    set r "heavy_p50_ms" (1e3 *. percentile (latencies (List.filter (fun s -> s.idx < Inputs.fig7_paper) samples)) 0.5);
    set r "slo_ok_pct"
      (100. *. float_of_int (List.length (List.filter (fun s -> s.lat *. 1e3 <= slo_ms) ok))
       /. float_of_int (max 1 (List.length samples)));
    note r "fig7-batch: %d diagnoses in %.2f s; tail_ms is p95 (%d samples); heavy_p50_ms is the p50 of \
            the %d paper defects; slo %.0f ms; recover_s is the median of %d restarts"
      (List.length samples) wall (Array.length lat) Inputs.fig7_paper slo_ms n_restarts;
    set r "peak_rss_mb" (max_of rss);
    note r "rss over the loop: max %.1f MB, median %.1f MB" (max_of rss) (median rss);
    let restarts =
      List.init n_restarts (fun k ->
          let e, t = time (fun () -> start ~restart:true jobs (k mod Inputs.fig7_paper)) in
          Pool.shutdown e.pool;
          t)
    in
    set r "recover_s" (median restarts)
  end
  else begin
    let half = seconds /. 2. in
    let a, _ = loop env jobs refs r ~seconds:half ~staged:false in
    let before = read_registry () in
    let b, wall_b = loop env jobs refs r ~seconds:half ~staged:true in
    let after = read_registry () in
    (* staged service time of each job against the mean untraced
       service time of the same job *)
    let u = Array.make (Array.length jobs) [] in
    List.iter (fun s -> u.(s.idx) <- s.service :: u.(s.idx)) a;
    let matched = List.filter (fun s -> u.(s.idx) <> [] && s.stages <> None) b in
    let su = List.fold_left (fun acc s -> acc +. mean u.(s.idx)) 0. matched in
    let ss = List.fold_left (fun acc s -> acc +. s.service) 0. matched in
    Layers.core_metrics r ~samples:(List.filter_map (fun s -> s.stages) b) ~before ~after;
    Layers.engine_metrics r ~before ~after
      ~busy_pct:
        (100. *. List.fold_left (fun acc s -> acc +. s.service) 0. b
         /. (wall_b *. float_of_int workers));
    Layers.result_metrics r (Array.to_list ref_results);
    Layers.compile_metrics r ~config:(config jobs.(0)) [ jobs.(0).Batch.netlist ];
    set r "trace.overhead_pct" (100. *. ratio (ss -. su) su);
    note r "trace: %d staged jobs matched to the untraced mean of the same job: direct %.1f ms, staged \
            chain %.1f ms (sums)"
      (List.length matched) (1e3 *. su) (1e3 *. ss);
    set r "load.late_p99_ms"
      (1e3 *. percentile (sorted (List.filter Float.is_finite (List.map (fun s -> s.gap) (a @ b)))) 0.99);
    Pool.shutdown env.pool
  end
