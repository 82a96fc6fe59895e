(* Load generator for the diagnosis service: seeded concurrent clients,
   a saturation sweep over client counts, exact latency percentiles and
   a BENCH_serve.json report in the bench harness's row schema.  --spawn
   runs the server in-process on an ephemeral port, so CI needs no
   background process or port pick. *)

module Server = Flames_serve.Server
module Loadgen = Flames_serve.Loadgen
module Harness = Flames_bench.Harness
module Json = Flames_serve.Json

open Cmdliner

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("flames_load: " ^ m);
      exit 2)
    fmt

(* One row per client level: the median and IQR are of the 200
   responses' latencies, the counters what the level did. *)
let row (s : Loadgen.level_stats) =
  let ns = Harness.sorted (List.map (fun t -> t *. 1e9) s.Loadgen.latencies) in
  let count n = Json.Num (float_of_int n) in
  let q p = Json.Num (Harness.quantile ns p) in
  {
    Harness.series = "serve";
    variant = "mixed";
    n = s.Loadgen.clients;
    stats = Harness.stats (Array.to_list ns);
    counters =
      [
        ("requests", count s.Loadgen.requests);
        ("ok", count s.Loadgen.ok);
        ("shed", count s.Loadgen.shed);
        ("errors", count s.Loadgen.errors);
        ("protocol_errors", count s.Loadgen.protocol_errors);
        ("degraded", count s.Loadgen.degraded);
        ("throughput_rps", Json.Num s.Loadgen.throughput_rps);
        ("p95_ns", q 0.95);
        ("p99_ns", q 0.99);
        ("max_ns", q 1.);
      ];
  }

let run host port levels duration seed json_path spawn workers max_inflight
    quota_rate quota_burst wide_events =
  if duration <= 0. then die "--duration must be > 0 (got %g)" duration;
  if levels = [] || List.exists (fun n -> n < 1) levels then
    die "client levels must be >= 1 (want e.g. 1,2,4)";
  if wide_events <> None && not spawn then
    die "--wide-events records the spawned server's events; add --spawn";
  Option.iter
    (fun path ->
      let close = Flames_obs.Events.file_sink path in
      at_exit close)
    wide_events;
  if spawn && port <> 0 then
    die "--spawn picks an ephemeral port; drop --port %d" port;
  if (not spawn) && port = 0 then die "--port is required without --spawn";
  let server =
    if spawn then begin
      let config =
        {
          Server.default_config with
          host;
          port = 0;
          workers;
          max_inflight;
          quota_rate;
          quota_burst;
        }
      in
      Some (Server.start ~config ())
    end
    else None
  in
  let port = match server with Some s -> Server.port s | None -> port in
  Printf.eprintf "flames_load: %s:%d seed %d, %g s per level, levels %s%s\n%!"
    host port seed duration
    (String.concat "," (List.map string_of_int levels))
    (if spawn then
       Printf.sprintf " (spawned server: %d workers, max-inflight %d)" workers
         max_inflight
     else "");
  let levels =
    Fun.protect
      ~finally:(fun () -> Option.iter Server.stop server)
      (fun () -> Loadgen.sweep ~host ~port ~seed ~duration levels)
  in
  let rows = List.map row levels in
  (match json_path with
  | Some path -> Harness.write ~path ~smoke:false "serve" rows
  | None -> List.iter Harness.print_row rows);
  let protocol_errors =
    List.fold_left
      (fun acc (s : Loadgen.level_stats) -> acc + s.Loadgen.protocol_errors)
      0 levels
  in
  if protocol_errors > 0 then begin
    Printf.eprintf "flames_load: %d protocol errors\n%!" protocol_errors;
    exit 1
  end

let main =
  let host_arg =
    let doc = "Server address." in
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc)
  in
  let port_arg =
    let doc = "Server port (required unless --spawn)." in
    Arg.(value & opt int 0 & info [ "port"; "p" ] ~docv:"PORT" ~doc)
  in
  let levels_arg =
    let doc = "Comma-separated client counts for the saturation sweep." in
    Arg.(
      value
      & opt (list int) [ 1; 2; 4; 8 ]
      & info [ "levels" ] ~docv:"N,N,..." ~doc)
  in
  let duration_arg =
    let doc = "Seconds to run each level." in
    Arg.(value & opt float 5. & info [ "duration"; "d" ] ~docv:"S" ~doc)
  in
  let seed_arg =
    let doc = "Root seed of the request streams (deterministic per seed)." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let json_arg =
    let doc = "Write the BENCH_serve.json report to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let spawn_arg =
    let doc =
      "Start the server in-process on an ephemeral port and tear it down \
       after the sweep."
    in
    Arg.(value & flag & info [ "spawn" ] ~doc)
  in
  let workers_arg =
    let doc = "Workers of the spawned server (with --spawn)." in
    Arg.(value & opt int 1 & info [ "workers"; "j" ] ~docv:"N" ~doc)
  in
  let inflight_arg =
    let doc = "Admission bound of the spawned server (with --spawn)." in
    Arg.(value & opt int 4 & info [ "max-inflight" ] ~docv:"N" ~doc)
  in
  let quota_rate_arg =
    let doc = "Per-client quota of the spawned server (with --spawn)." in
    Arg.(value & opt float 0. & info [ "quota-rate" ] ~docv:"RPS" ~doc)
  in
  let quota_burst_arg =
    let doc = "Quota burst of the spawned server (with --spawn)." in
    Arg.(value & opt float 10. & info [ "quota-burst" ] ~docv:"N" ~doc)
  in
  let wide_events_arg =
    let doc =
      "Append the spawned server's wide events to $(docv) as JSON lines \
       (with --spawn; filter with 'flames tail')."
    in
    Arg.(
      value & opt (some string) None & info [ "wide-events" ] ~docv:"FILE" ~doc)
  in
  let info =
    Cmd.info "flames_load" ~version:Flames_serve.Version.current
      ~doc:
        "Drive a flames diagnosis service with seeded synthetic clients \
         and report throughput, exact latency percentiles and shed counts \
         per client-count level.  Exits 1 when any protocol error \
         occurred (429 sheds are expected past saturation, not errors)."
  in
  Cmd.v info
    Term.(
      const run $ host_arg $ port_arg $ levels_arg $ duration_arg $ seed_arg
      $ json_arg $ spawn_arg $ workers_arg $ inflight_arg $ quota_rate_arg
      $ quota_burst_arg $ wide_events_arg)

let () = exit (Cmd.eval main)
