(* Shared plumbing of the benchmark: the monotonic clock, order
   statistics, the declared metric names, the host record and the result
   line.  Nothing here touches the library under test. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* {1 Order statistics} *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of a sorted sample; [nan] when empty so an
   unmeasured value can never pass for a real one. *)
let percentile a q =
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile (sorted xs) 0.5
let mean xs =
  match xs with
  | [] -> Float.nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let ratio a b = if b = 0. then 0. else a /. b

(* {1 Declared metrics}

   The names, units and directions printed on the result line.  They
   must equal the [end_to_end] and [per_layer] lists of BENCHMARK.json
   (the benchmark's own test checks this), and every run prints all of
   one list: the end-to-end list untraced, the per-layer list traced. *)

let workloads = [ "fig7-batch"; "session-journal" ]

let end_to_end =
  [
    ("setup_s", "s");
    ("recover_s", "s");
    ("peak_rss_mb", "MB");
    ("ops_per_s", "1/s");
    ("p50_ms", "ms");
    ("tail_ms", "ms");
    ("heavy_p50_ms", "ms");
    ("slo_ok_pct", "%");
  ]

let serve_classes = [ "catalog"; "ladder"; "amp"; "session" ]
let session_ops = [ "add_measurement"; "retract"; "refine"; "diagnoses"; "next_test" ]

let per_layer =
  List.concat
    [
      List.map (fun c -> ("serve.route_ms." ^ c, "ms")) serve_classes;
      List.map (fun c -> ("serve.wire_ms." ^ c, "ms")) serve_classes;
      [
        ("serve.json_parse_us", "us");
        ("serve.json_render_us", "us");
        ("serve.shed_ratio", "ratio");
        ("engine.cache_hit_ratio", "ratio");
        ("engine.cache_lookups", "count");
        ("engine.compile_ms", "ms");
        ("engine.queue_wait_ms", "ms");
        ("engine.busy_pct", "%");
        ("core.predict_ms", "ms");
        ("core.propagate_ms", "ms");
        ("core.analyze_ms", "ms");
        ("core.guard_ms", "ms");
        ("core.fit_ms", "ms");
        ("core.steps", "count");
        ("core.conflicts", "count");
        ("core.unattributed_pct", "%");
        ("sim.solves", "count");
        ("sim.lu_reuse_ratio", "ratio");
        ("sim.solve_us", "us");
        ("sim.sensitivity_ms", "ms");
        ("atms.rank_us", "us");
        ("atms.candidates", "count");
      ];
      List.map (fun o -> ("session.step_us." ^ o, "us")) session_ops;
      [
        ("session.rebuilds", "count");
        ("store.append_us", "us");
        ("store.fsyncs_per_append", "ratio");
        ("store.bytes_per_step", "B");
        ("store.recover_us_per_record", "us");
        ("load.late_p99_ms", "ms");
        ("trace.overhead_pct", "%");
      ];
    ]

(* A workload's report: metric values by name, human-readable notes, and
   the operation tally behind [attempted]/[failed]. *)
type report = {
  mutable values : (string * float) list;
  mutable notes : string list;
  mutable attempted : int;
  mutable failed : int;
  mutable mismatches : string list;  (** first few correctness failures *)
}

let report () =
  { values = []; notes = []; attempted = 0; failed = 0; mismatches = [] }

let set r name v = r.values <- (name, v) :: List.remove_assoc name r.values
let note r fmt = Printf.ksprintf (fun s -> r.notes <- s :: r.notes) fmt

(* Thread-safe tally shared by client threads. *)
let tally_lock = Mutex.create ()

let count r ~ok ~what =
  Mutex.lock tally_lock;
  r.attempted <- r.attempted + 1;
  if not ok then begin
    r.failed <- r.failed + 1;
    if List.length r.mismatches < 5 then r.mismatches <- what :: r.mismatches
  end;
  Mutex.unlock tally_lock

(* {1 Host record} *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Resident set size (VmRSS) of this process, in MiB. *)
let rss_mb () =
  match read_file "/proc/self/status" with
  | exception Sys_error _ -> Float.nan
  | s ->
    String.split_on_char '\n' s
    |> List.find_map (fun line ->
           match String.split_on_char ':' line with
           | [ "VmRSS"; v ] -> Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.)
           | _ -> None)
    |> Option.value ~default:Float.nan

(* Samples [rss_mb] every 100 ms until the returned function is called,
   which answers the samples: the resident set of the measured loop
   alone (the process high-water mark would also count the benchmark's
   own reference computation). *)
let rss_sampler () =
  let samples = ref [ rss_mb () ] and stop = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          Thread.delay 0.1;
          samples := rss_mb () :: !samples
        done)
      ()
  in
  fun () ->
    Atomic.set stop true;
    Thread.join th;
    !samples

let max_of xs = List.fold_left Float.max Float.neg_infinity xs

(* The git revision of the working tree, read from [.git] directly (no
   subprocess, nothing outside the checkout); ["none"] outside a git
   repository. *)
let git_rev () =
  let trim = String.trim in
  match trim (read_file ".git/HEAD") with
  | exception Sys_error _ -> "none"
  | head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
    let r = String.sub head 5 (String.length head - 5) in
    match trim (read_file (Filename.concat ".git" r)) with
    | rev -> rev
    | exception Sys_error _ -> (
      match read_file ".git/packed-refs" with
      | exception Sys_error _ -> "unknown"
      | packed ->
        String.split_on_char '\n' packed
        |> List.find_map (fun l ->
               match String.split_on_char ' ' l with
               | [ rev; name ] when name = r -> Some rev
               | _ -> None)
        |> Option.value ~default:"unknown"))
  | rev -> rev

(* The host's online CPUs, counted in /proc/stat: the process itself is
   pinned to one of them (see [pinned]). *)
let cores () =
  match read_file "/proc/stat" with
  | exception Sys_error _ -> Domain.recommended_domain_count ()
  | s ->
    String.split_on_char '\n' s
    |> List.filter (fun l -> String.length l > 3 && String.sub l 0 3 = "cpu" && l.[3] >= '0' && l.[3] <= '9')
    |> List.length

(* Whether this process may run on one CPU only (run.py pins it). *)
let pinned () =
  match read_file "/proc/self/status" with
  | exception Sys_error _ -> false
  | s ->
    String.split_on_char '\n' s
    |> List.exists (fun line ->
           match String.split_on_char ':' line with
           | [ "Cpus_allowed_list"; v ] -> String.trim v <> "" && not (String.contains v '-' || String.contains v ',')
           | _ -> false)

(* Concurrency of every workload: one caller or client, and one worker
   domain (run.py also pins the process to one CPU).  On a host whose
   few cores are shared with other guests, a second busy domain makes
   every figure depend on whether a second core happens to be free, which
   moved run-to-run figures by up to twofold. *)
let workers = 1

(* (steal, total) CPU ticks of the host so far, from the first line of
   /proc/stat; [None] where it cannot be read.  Time stolen by other
   guests of a virtual machine slows every figure of a run. *)
let cpu_ticks () =
  match In_channel.with_open_bin "/proc/stat" In_channel.input_line with
  | exception Sys_error _ -> None
  | None -> None
  | Some line -> (
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: fields -> (
      match List.map int_of_string_opt fields with
      | ticks when List.length ticks >= 8 && List.for_all Option.is_some ticks ->
        let ticks = List.map Option.get ticks in
        Some (List.nth ticks 7, List.fold_left ( + ) 0 ticks)
      | _ -> None)
    | _ -> None)

(* {1 Output} *)

let json_string s = "\"" ^ String.escaped s ^ "\""

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The last line of standard output: exactly the declared metrics of the
   mode, each finite.  A missing or non-finite metric is a benchmark
   defect, reported as an error instead of a result. *)
let result_line ~declared r =
  let missing =
    List.filter
      (fun (name, _) ->
        match List.assoc_opt name r.values with
        | Some v -> not (Float.is_finite v)
        | None -> true)
      declared
  in
  if missing <> [] then
    Error
      (Printf.sprintf "metrics not measured: %s"
         (String.concat ", " (List.map fst missing)))
  else
    let metrics =
      List.map
        (fun (name, unit_) ->
          Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
            (json_number (List.assoc name r.values))
            (json_string unit_))
        declared
    in
    Ok
      (Printf.sprintf
         "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
         (r.failed = 0) r.attempted r.failed
         (String.concat ", " metrics))

(* {1 Scratch directory inside the checkout} *)

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter
      (fun e -> remove_tree (Filename.concat path e))
      (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let scratch_root = ".flbench-tmp"

let scratch_dir name =
  let d =
    Filename.concat scratch_root
      (Printf.sprintf "%d-%s" (Unix.getpid ()) name)
  in
  remove_tree d;
  mkdir_p d;
  d

let cleanup_scratch () =
  let mine = Printf.sprintf "%d-" (Unix.getpid ()) in
  if Sys.file_exists scratch_root then begin
    Array.iter
      (fun e ->
        if String.length e >= String.length mine
           && String.sub e 0 (String.length mine) = mine
        then remove_tree (Filename.concat scratch_root e))
      (Sys.readdir scratch_root);
    try Unix.rmdir scratch_root with Unix.Unix_error _ -> ()
  end

(* {1 Registry deltas} *)

module Metrics = Flames_obs.Metrics

type reading = (string * Metrics.value) list

let read_registry () : reading =
  List.map (fun (s : Metrics.sample) -> (s.Metrics.name, s.Metrics.value))
    (Metrics.snapshot ())

let counter_delta (a : reading) (b : reading) name =
  let get r =
    match List.assoc_opt name r with Some (Metrics.Counter n) -> n | _ -> 0
  in
  float_of_int (get b - get a)

(* [(count, sum)] delta of a histogram. *)
let histogram_delta (a : reading) (b : reading) name =
  let get r =
    match List.assoc_opt name r with
    | Some (Metrics.Histogram { count; sum; _ }) -> (count, sum)
    | _ -> (0, 0.)
  in
  let c0, s0 = get a and c1, s1 = get b in
  (float_of_int (c1 - c0), s1 -. s0)
