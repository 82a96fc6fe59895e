(* The benchmark's own checks: its inputs are a pure function of the
   seed, and the metrics it prints are exactly those BENCHMARK.json
   declares. *)

open Flbench
module Json = Flames_serve.Json

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end
  else Printf.printf "ok   %s\n" name

let digests seed =
  [
    ("fig7-batch", Inputs.digest_fig7 (Inputs.fig7_jobs ~seed));
    ("serve-layer stream", Inputs.digest_serve (Inputs.serve_requests ~seed ~seconds:2.));
    ("session-journal", Inputs.digest_sessions (Inputs.session_scripts ~seed));
  ]

let declared json key =
  match Json.mem key json with
  | Some (Json.Arr items) ->
    List.map
      (fun m ->
        ( Option.bind (Json.mem "name" m) Json.str_opt |> Option.value ~default:"",
          Option.bind (Json.mem "unit" m) Json.str_opt |> Option.value ~default:"" ))
      items
  | _ -> []

let () =
  let a = digests 1 and a' = digests 1 and b = digests 2 in
  List.iter
    (fun (w, d) ->
      check (w ^ ": same seed, same inputs") (List.assoc w a' = d);
      check (w ^ ": another seed, other inputs") (List.assoc w b <> d))
    a;
  let json = Json.parse (Common.read_file "../BENCHMARK.json") in
  check "end_to_end metrics match BENCHMARK.json" (declared json "end_to_end" = Common.end_to_end);
  check "per_layer metrics match BENCHMARK.json" (declared json "per_layer" = Common.per_layer);
  check "workloads match BENCHMARK.json"
    (List.map fst (declared json "workloads") = Common.workloads);
  (* the result line carries exactly the declared names *)
  List.iter
    (fun (mode, metrics) ->
      let r = Common.report () in
      List.iteri (fun i (n, _) -> Common.set r n (float_of_int i +. 0.5)) metrics;
      Common.set r "undeclared" 1.;
      r.Common.attempted <- 1;
      let printed =
        match Common.result_line ~declared:metrics r with
        | Ok line -> (
          match Json.mem "metrics" (Json.parse line) with
          | Some (Json.Obj fields) -> List.map fst fields
          | _ -> [])
        | Error _ -> []
      in
      check (mode ^ ": printed names are the declared names") (printed = List.map fst metrics);
      let partial = Common.report () in
      check (mode ^ ": a missing metric is refused")
        (Result.is_error (Common.result_line ~declared:metrics partial)))
    [ ("untraced", Common.end_to_end); ("traced", Common.per_layer) ];
  if !failures > 0 then exit 1
