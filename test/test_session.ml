(* Unit tests for the persistent diagnosis session layer (lib/session):
   the session state machine itself, the troubleshooting script
   protocol, and replay of the corpus/sessions transcripts. *)

module Session = Flames_session.Session
module Script = Flames_session.Script
module Library = Flames_circuit.Library
module Q = Flames_circuit.Quantity
module I = Flames_fuzzy.Interval
module Budget = Flames_core.Budget
module Diagnose = Flames_core.Diagnose

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let divider () = Library.voltage_divider ()
let meas v = I.number v ~spread:0.05

(* {1 Session state machine} *)

let test_session_lifecycle () =
  let s = Session.create (divider ()) in
  check_int "no measurements" 0 (List.length (Session.measurements s));
  check_int "no steps" 0 (Session.steps s);
  let m1 = Session.add_measurement s (Q.voltage "mid") (meas 2.5) in
  let m2 = Session.add_measurement s (Q.voltage "in") (meas 5.0) in
  check_int "ids are distinct" (m1.Session.id + 1) m2.Session.id;
  check_int "two measurements" 2 (List.length (Session.measurements s));
  check_int "two steps" 2 (Session.steps s);
  (* insertion order is preserved *)
  (match Session.measurements s with
  | [ a; b ] ->
    check_int "first id" m1.Session.id a.Session.id;
    check_int "second id" m2.Session.id b.Session.id
  | _ -> Alcotest.fail "expected two measurements");
  check_bool "find live id" true
    (Session.find_measurement s ~id:m1.Session.id <> None);
  check_bool "retract live id" true (Session.retract s ~id:m1.Session.id);
  check_bool "retract is gone" false (Session.retract s ~id:m1.Session.id);
  check_bool "find retracted id" true
    (Session.find_measurement s ~id:m1.Session.id = None);
  check_int "one measurement left" 1 (List.length (Session.measurements s))

let test_session_refine_in_place () =
  let s = Session.create (divider ()) in
  let m1 = Session.add_measurement s (Q.voltage "mid") (meas 2.5) in
  let _m2 = Session.add_measurement s (Q.voltage "in") (meas 5.0) in
  (match Session.refine s ~id:m1.Session.id (meas 2.4) with
  | None -> Alcotest.fail "refine of a live id refused"
  | Some m ->
    check_int "same id" m1.Session.id m.Session.id;
    check_bool "new interval" true
      (I.equal ~eps:0. m.Session.interval (meas 2.4)));
  (* refined measurement keeps its position in the insertion order *)
  (match Session.measurements s with
  | [ a; _ ] -> check_int "still first" m1.Session.id a.Session.id
  | _ -> Alcotest.fail "expected two measurements");
  check_bool "refine unknown id" true (Session.refine s ~id:999 (meas 1.) = None);
  check_bool "retract unknown id" false (Session.retract s ~id:999)

let test_session_diagnoses_cached () =
  let s = Session.create (divider ()) in
  ignore (Session.add_measurement s (Q.voltage "mid") (meas 2.5));
  let r1 = Session.diagnoses s in
  let r2 = Session.diagnoses s in
  check_bool "cached result is reused" true (r1 == r2);
  ignore (Session.add_measurement s (Q.voltage "in") (meas 5.0));
  let r3 = Session.diagnoses s in
  check_bool "mutation invalidates the cache" true (r1 != r3)

let test_session_budget_not_cached () =
  (* a deviant measurement so the diagnosis has candidates to truncate *)
  let s =
    Session.create
      ~budget_spec:(Budget.spec ~max_candidates:1 ())
      (divider ())
  in
  ignore (Session.add_measurement s (Q.voltage "mid") (meas 1.0));
  let r1 = Session.diagnoses s in
  if r1.Diagnose.degraded then begin
    let r2 = Session.diagnoses s in
    check_bool "degraded results are recomputed" true (r1 != r2);
    check_bool "deterministic" true
      (List.length r1.Diagnose.diagnoses = List.length r2.Diagnose.diagnoses)
  end

(* A probed transistor stage gives the guards evidence, so the session's
   analysis runs the guard second pass; it must run on the session's
   schedule and agree with the batch diagnosis bit for bit. *)
let test_session_guard_pass () =
  let nominal = Library.three_stage_amplifier ~tolerance:0.005 () in
  let faulty =
    Flames_circuit.Fault.inject nominal
      (Flames_circuit.Fault.short "r2" ~parameter:"R")
  in
  let instrument = { Flames_sim.Measure.relative = 0.002; floor = 5e-4 } in
  let obs =
    Flames_sim.Measure.probe_all ~instrument
      (Flames_sim.Mna.solve faulty)
      (List.map Q.voltage [ "vs"; "n2"; "v1" ])
  in
  let config = { Flames_core.Model.default_config with trusted = [ "vcc" ] } in
  let s = Session.create ~config nominal in
  List.iter (fun (q, v) -> ignore (Session.add_measurement s q v)) obs;
  let r = Session.diagnoses s in
  check_bool "guard evidence present" true
    (List.exists
       (fun q ->
         Flames_core.Propagate.best_value r.Diagnose.engine
           ~observational:true q
         <> None)
       (Diagnose.guard_quantities (Session.model s)));
  check_string "session == Diagnose.run"
    (Flames_check.Oracle.result_fingerprint (Diagnose.run ~config nominal obs))
    (Flames_check.Oracle.result_fingerprint r)

let test_session_next_test_excludes_measured () =
  let s = Session.create (Library.three_stage_amplifier ()) in
  (match Session.next_test s with
  | None -> Alcotest.fail "no recommendation on a fresh session"
  | Some e ->
    (* measuring the recommended point removes it from later rounds *)
    let q = e.Flames_strategy.Best_test.test.Flames_strategy.Best_test.quantity in
    ignore (Session.add_measurement s q (meas 10.));
    (match Session.next_test s with
    | None -> ()
    | Some e' ->
      check_bool "recommended point not repeated" false
        (Q.equal q
           e'.Flames_strategy.Best_test.test.Flames_strategy.Best_test.quantity)));
  check_bool "estimations cover the components" true
    (List.length (Session.estimations s) > 0)

(* {1 Script parsing} *)

let parse_ok line =
  match Script.parse_line line with
  | Ok (Some c) -> c
  | Ok None -> Alcotest.failf "line %S parsed to nothing" line
  | Error e -> Alcotest.failf "line %S rejected: %s" line e

let test_script_parse_commands () =
  check_bool "circuit" true
    (parse_ok "circuit voltage_divider" = Script.Circuit "voltage_divider");
  check_bool "fault" true (parse_ok "fault r2.R=short" = Script.Fault "r2.R=short");
  check_bool "probe" true (parse_ok "probe n1" = Script.Probe "n1");
  check_bool "measure" true
    (parse_ok "measure mid 2.5" = Script.Measure ("mid", 2.5, None));
  check_bool "measure with spread" true
    (parse_ok "measure mid 2.5 0.1" = Script.Measure ("mid", 2.5, Some 0.1));
  check_bool "retract" true (parse_ok "retract 3" = Script.Retract 3);
  check_bool "refine" true
    (parse_ok "refine 2 2.4 0.02" = Script.Refine (2, 2.4, Some 0.02));
  check_bool "diagnoses" true (parse_ok "diagnoses" = Script.Diagnoses);
  check_bool "diagnose alias" true (parse_ok "diagnose" = Script.Diagnoses);
  check_bool "next" true (parse_ok "next" = Script.Next);
  check_bool "status" true (parse_ok "status" = Script.Status);
  check_bool "quit" true (parse_ok "quit" = Script.Quit);
  check_bool "case-insensitive" true (parse_ok "QUIT" = Script.Quit);
  check_bool "comment" true (Script.parse_line "# hello" = Ok None);
  check_bool "blank" true (Script.parse_line "   " = Ok None);
  check_bool "trailing comment" true
    (parse_ok "probe n1 # the divider tap" = Script.Probe "n1")

let test_script_parse_errors () =
  let rejected line =
    match Script.parse_line line with Error _ -> true | Ok _ -> false
  in
  check_bool "unknown command" true (rejected "frobnicate n1");
  check_bool "bad number" true (rejected "measure mid abc");
  check_bool "bad id" true (rejected "retract x");
  check_bool "negative imprecision" true (rejected "imprecision -1");
  check_bool "extra args" true (rejected "quit now");
  match Script.parse "circuit divider\nbogus\n" with
  | Error e ->
    check_bool "error names the line" true
      (contains ~sub:"line 2" e)
  | Ok _ -> Alcotest.fail "bogus line accepted"

(* {1 Script execution} *)

let run_script text =
  let out = Buffer.create 256 in
  let print line =
    Buffer.add_string out line;
    Buffer.add_char out '\n'
  in
  match Script.parse text with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok commands -> (
    match Script.run ~print commands with
    | Error e -> Alcotest.failf "run: %s\noutput so far:\n%s" e (Buffer.contents out)
    | Ok session -> (session, Buffer.contents out))

let test_script_run_divider () =
  let session, out =
    run_script
      "circuit divider\n\
       fault r2.R=short\n\
       probe mid\n\
       diagnoses\n\
       status\n\
       quit\n"
  in
  (match session with
  | None -> Alcotest.fail "no session after the script"
  | Some s ->
    check_int "one measurement" 1 (List.length (Session.measurements s));
    let r = Session.diagnoses s in
    check_bool "shorted divider is not healthy" false (Diagnose.healthy r));
  check_bool "transcript mentions the suspect" true
    (contains ~sub:"suspect" out);
  check_bool "transcript shows the measurement id" true
    (contains ~sub:"[1]" out)

let test_script_run_retract_refine () =
  let session, _ =
    run_script
      "circuit divider\n\
       measure mid 2.5 0.05\n\
       measure in 5.0 0.05\n\
       retract 1\n\
       refine 2 4.9 0.02\n\
       status\n"
  in
  match session with
  | None -> Alcotest.fail "no session"
  | Some s -> (
    check_int "one measurement left" 1 (List.length (Session.measurements s));
    match Session.measurements s with
    | [ m ] ->
      check_int "the refined one" 2 m.Session.id;
      check_bool "narrowed" true
        (I.equal ~eps:0. m.Session.interval (I.number 4.9 ~spread:0.02))
    | _ -> Alcotest.fail "expected exactly one measurement")

let test_script_quit_stops () =
  let session, out =
    run_script "circuit divider\nquit\nprobe mid\n"
  in
  (match session with
  | Some s -> check_int "quit stopped the script" 0 (List.length (Session.measurements s))
  | None -> Alcotest.fail "no session");
  check_bool "no probe output" false (contains ~sub:"[1]" out)

let test_script_errors_name_the_line () =
  match Script.parse "circuit no_such_circuit\n" with
  | Error e -> Alcotest.failf "parse should accept: %s" e
  | Ok commands -> (
    match Script.run ~print:ignore commands with
    | Ok _ -> Alcotest.fail "unknown circuit accepted"
    | Error e ->
      check_bool "error names line 1" true
        (contains ~sub:"line 1" e);
      check_bool "error lists builtins" true
        (contains ~sub:"divider" e));
  match Script.parse "probe mid\n" with
  | Error e -> Alcotest.failf "parse should accept: %s" e
  | Ok commands -> (
    match Script.run ~print:ignore commands with
    | Ok _ -> Alcotest.fail "probe without circuit accepted"
    | Error e ->
      check_bool "points at the missing circuit" true
        (contains ~sub:"no circuit" e))

(* {1 Corpus transcripts} *)

let corpus_dir = "../corpus/sessions"

let corpus_scripts () =
  match Sys.readdir corpus_dir with
  | entries ->
    Array.to_list entries
    |> List.filter (fun f -> Filename.check_suffix f ".session")
    |> List.sort compare
  | exception Sys_error _ -> []

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_corpus_sessions () =
  let scripts = corpus_scripts () in
  check_bool "corpus has session transcripts" true (List.length scripts >= 2);
  List.iter
    (fun file ->
      let text = read_file (Filename.concat corpus_dir file) in
      match Script.parse text with
      | Error e -> Alcotest.failf "%s: parse: %s" file e
      | Ok commands -> (
        match Script.run ~print:ignore commands with
        | Error e -> Alcotest.failf "%s: %s" file e
        | Ok None -> Alcotest.failf "%s: no session" file
        | Ok (Some s) ->
          check_bool
            (file ^ " took measurements")
            true
            (List.length (Session.measurements s) > 0);
          (* the replayed session obeys the equivalence contract *)
          let scratch =
            Diagnose.run
              ~model:(Session.model s)
              (Session.netlist s)
              (List.map
                 (fun (m : Session.measurement) ->
                   (m.Session.quantity, m.Session.interval))
                 (Session.measurements s))
          in
          check_string
            (file ^ " equivalence")
            (Flames_check.Oracle.result_fingerprint scratch)
            (Flames_check.Oracle.result_fingerprint (Session.diagnoses s))))
    scripts

let () =
  Alcotest.run "session"
    [
      ( "session",
        [
          Alcotest.test_case "lifecycle" `Quick test_session_lifecycle;
          Alcotest.test_case "refine-in-place" `Quick test_session_refine_in_place;
          Alcotest.test_case "diagnoses-cached" `Quick test_session_diagnoses_cached;
          Alcotest.test_case "degraded-not-cached" `Quick
            test_session_budget_not_cached;
          Alcotest.test_case "guard-pass" `Quick test_session_guard_pass;
          Alcotest.test_case "next-test" `Slow
            test_session_next_test_excludes_measured;
        ] );
      ( "script",
        [
          Alcotest.test_case "parse-commands" `Quick test_script_parse_commands;
          Alcotest.test_case "parse-errors" `Quick test_script_parse_errors;
          Alcotest.test_case "run-divider" `Quick test_script_run_divider;
          Alcotest.test_case "retract-refine" `Quick test_script_run_retract_refine;
          Alcotest.test_case "quit-stops" `Quick test_script_quit_stops;
          Alcotest.test_case "runtime-errors" `Quick
            test_script_errors_name_the_line;
        ] );
      ( "corpus",
        [ Alcotest.test_case "replay-transcripts" `Slow test_corpus_sessions ] );
    ]
