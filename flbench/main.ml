(* The FLAMES benchmark: one command, two workloads.

     main.exe --workload <fig7-batch|session-journal>
              --seed <n> --seconds <s> --trace <0|1>

   Untraced runs print the end-to-end metrics, traced runs the per-layer
   metrics (see METRICS.md).  Human-readable notes come first; the last
   line of standard output is the JSON result.  Any wrong answer makes
   the run fail with exit code 1 after printing the result. *)

open Flbench

let runner = function
  | "fig7-batch" -> Some Fig7_batch.run
  | "session-journal" -> Some Session_journal.run
  | _ -> None

let probes = function
  | "fig7-batch" -> [ Serve_mixed.probe_serve_layer; Session_journal.probe_session_layer ]
  | _ -> [ Serve_mixed.probe_serve_layer ]

let usage () =
  Printf.eprintf "usage: main.exe --workload <%s> --seed <n> --seconds <s> --trace <0|1>\n"
    (String.concat "|" Common.workloads);
  exit 2

let parse_args () =
  let rec go acc = function
    | ("--workload" | "--seed" | "--seconds" | "--trace") as k :: v :: rest ->
      go ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let args = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k args with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "--workload" in
  let run = match runner workload with Some f -> f | None -> usage () in
  let seconds = float_of_string_opt (get "--seconds") |> Option.value ~default:(-1.) in
  if seconds <= 0. then usage ();
  let trace = match get "--trace" with "0" -> false | "1" -> true | _ -> usage () in
  (workload, run, int "--seed", seconds, trace)

let () =
  let workload, run, seed, seconds, trace = parse_args () in
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let r = Common.report () in
  let ticks0 = Common.cpu_ticks () in
  let status =
    Fun.protect ~finally:Common.cleanup_scratch (fun () ->
        (* a traced run first measures, on short streams of the other
           workloads' inputs, the layers its own workload never reaches;
           the workload then measures its own layers *)
        if trace then List.iter (fun probe -> probe r ~seed) (probes workload);
        run r ~seed ~seconds ~trace;
        Printf.printf
          "host: cores=%d pinned_to_one=%b ocaml=%s git=%s seed=%d workload=%s seconds=%g trace=%d \
           fsync=%s serve_layer_shares=%s\n"
          (Common.cores ()) (Common.pinned ()) Sys.ocaml_version (Common.git_rev ()) seed workload seconds
          (if trace then 1 else 0)
          (match Flames_serve.Server.default_config.Flames_serve.Server.journal_fsync with
          | Flames_store.Journal.Always -> "always"
          | Flames_store.Journal.Interval s -> Printf.sprintf "interval-%gs" s
          | Flames_store.Journal.Never -> "never")
          (String.concat ","
             (List.map (fun (c, p) -> Printf.sprintf "%s:%g" (Inputs.cls_name c) p) Inputs.shares));
        (match (ticks0, Common.cpu_ticks ()) with
        | Some (s0, t0), Some (s1, t1) when t1 > t0 ->
          Printf.printf "host: cpu steal during the run %.1f %%\n"
            (100. *. float_of_int (s1 - s0) /. float_of_int (t1 - t0))
        | _ -> print_endline "host: cpu steal unknown");
        List.iter print_endline (List.rev r.Common.notes);
        Printf.printf "operations: %d attempted, %d failed (failed_pct %.3f)\n" r.Common.attempted
          r.Common.failed
          (100. *. Common.ratio (float_of_int r.Common.failed) (float_of_int r.Common.attempted));
        List.iter (fun m -> Printf.printf "mismatch: %s\n" m) (List.rev r.Common.mismatches);
        let declared = if trace then Common.per_layer else Common.end_to_end in
        match Common.result_line ~declared r with
        | Error e ->
          prerr_endline ("flbench: " ^ e);
          3
        | Ok line ->
          print_endline line;
          if r.Common.failed > 0 || r.Common.attempted = 0 then 1 else 0)
  in
  exit status
