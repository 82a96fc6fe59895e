(* BENCH_store.json — what durability costs, and what recovery costs.

   Two claims back the journal design:

   - journaling a troubleshooting step ahead of its reply is nearly free
     against the diagnosis work the step already does: at the default
     [fsync=interval] discipline the per-step overhead over a plain
     in-memory session must stay within a few percent (the claim is
     5%; the checker's ceiling for noisy CI runners is 15%);
     [fsync=always] shows what the full
     survive-kill-9-per-step guarantee costs instead;
   - recovery replays the journal through the session layer at a rate
     that makes restart time a function of the *live* state (snapshots
     keep segments compact), measured here against raw journal length.

   Wall clocks are host-dependent; the overhead percentages and the
   per-record recovery rate are the claims. *)

module Harness = Flames_bench.Harness
module I = Flames_fuzzy.Interval
module Q = Flames_circuit.Quantity
module L = Flames_circuit.Library
module Session = Flames_session.Session
module Journal = Flames_store.Journal
module Record = Flames_store.Record
module Json = Flames_serve.Json

let steps = 48
let recovery_lengths = [ 16; 64; 256; 1024 ]

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter
      (fun name -> rm_rf (Filename.concat path name))
      (try Sys.readdir path with Sys_error _ -> [||]);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "flames-store-bench-%d-%d" (Unix.getpid ()) !counter)
    in
    rm_rf dir;
    dir

(* The step sequence both loops replay: measurements cycling over the
   Sallen–Key filter's probe points, values spread around the passband
   level so the diagnosis does real propagation work each round.  The
   Sallen–Key rather than the divider: a journal append competes with
   the per-step diagnosis, and the divider's is so small that loop
   timing noise on a busy host dwarfs the ratio being measured. *)
let model_name = "sallen-key"
let model () = L.sallen_key_lowpass ()

let step_plan =
  let probes = Array.of_list (L.probe_points (model ())) in
  List.init steps (fun k ->
      (* The same interval every time a node repeats: distinct
         overlapping intervals per node multiply ATMS environments and
         turn the loop superlinear, which is a different benchmark. *)
      (probes.(k mod Array.length probes), I.number 1.0 ~spread:0.3))

(* One troubleshooting loop: measure, journal (when journaled), then
   diagnose — the same order the server acknowledges a step in.  Returns
   total wall across the [steps] rounds; session setup (compile, sweeps)
   is identical on both sides and excluded. *)
let run_loop journal =
  let session = Session.create (model ()) in
  Option.iter
    (fun j ->
      Journal.append j
        (Record.Create
           { sid = "bench"; source = Record.Builtin model_name; trusted = [] }))
    journal;
  let (), dt =
    Harness.time (fun () ->
        List.iter
          (fun (q, v) ->
            let m = Session.add_measurement session q v in
            Option.iter
              (fun j ->
                Journal.append j
                  (Record.Measure
                     { sid = "bench"; mid = m.Session.id; quantity = q; interval = v }))
              journal;
            ignore (Session.diagnoses session))
          step_plan)
  in
  dt

let plain_loop () = run_loop None

let journaled_loop fsync =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let j = Journal.open_ ~fsync dir in
  Fun.protect ~finally:(fun () -> Journal.close j) @@ fun () -> run_loop (Some j)

(* Paired and interleaved (the harness's ABBA protocol): each pair
   times the plain loop right next to the journaled one and contributes
   one journaled/plain ratio; the median ratio is the overhead.  Slow
   drift in the diagnosis cost (cache warmth, allocator state, cpu
   frequency) moves both elements of a pair together, so it cancels out
   of the ratio — unlike comparing a best-of-N from each side, which
   lets drift land on one side. *)
let append_pairs = 9

let append_row (mode, fsync) =
  ignore (plain_loop ());
  ignore (journaled_loop fsync);
  let p =
    Harness.paired ~pairs:append_pairs
      (fun _ -> plain_loop ())
      (fun _ -> journaled_loop fsync)
  in
  {
    Harness.series = "append";
    variant = mode;
    n = steps;
    stats = p.b;
    counters =
      [
        ("plain_ns", Json.Num p.a.median);
        ("ratio_iqr", Json.Num p.ratio.iqr);
        ("overhead_pct", Json.Num ((p.ratio.median -. 1.) *. 100.));
      ];
  }

let append_modes =
  [
    ("never", Journal.Never);
    ("interval", Journal.Interval 0.05);
    ("always", Journal.Always);
  ]

let journal_bytes dir =
  Array.fold_left
    (fun acc name ->
      let path = Filename.concat dir name in
      match Unix.stat path with
      | { Unix.st_kind = Unix.S_REG; st_size; _ } -> acc + st_size
      | _ | (exception Unix.Unix_error _) -> acc)
    0 (Sys.readdir dir)

let recovery_row ops =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let j = Journal.open_ ~fsync:Journal.Never dir in
  Journal.append j
    (Record.Create
       { sid = "bench"; source = Record.Builtin model_name; trusted = [] });
  for k = 1 to ops - 1 do
    let q, v = List.nth step_plan (k mod List.length step_plan) in
    Journal.append j
      (Record.Measure { sid = "bench"; mid = k; quantity = q; interval = v })
  done;
  Journal.close j;
  let bytes = journal_bytes dir in
  let sessions = ref 0 in
  let stats =
    Harness.sample ~reps:3 (fun () ->
        let recovered = Journal.recover dir in
        if recovered.Journal.records <> ops then
          failwith
            (Printf.sprintf "store bench: recovered %d of %d records"
               recovered.Journal.records ops);
        sessions := List.length recovered.Journal.entries)
  in
  {
    Harness.series = "recovery";
    variant = "replay";
    n = ops;
    stats;
    counters =
      [
        ("bytes", Json.Num (float_of_int bytes));
        ("sessions", Json.Num (float_of_int !sessions));
      ];
  }

let emit ~smoke =
  Harness.write "store" ~smoke
    (List.map append_row append_modes @ List.map recovery_row recovery_lengths)
