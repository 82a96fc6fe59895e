module Gen = Flames_check.Gen
module Rng = Flames_check.Rng
module Parser = Flames_circuit.Parser
module Q = Flames_circuit.Quantity
module Interval = Flames_fuzzy.Interval

type level_stats = {
  clients : int;
  requests : int;
  ok : int;
  shed : int;
  errors : int;
  protocol_errors : int;
  degraded : int;
  duration : float;
  throughput_rps : float;
  latencies : float list;
}

(* Deadlines and latencies on the bench harness's monotonic clock: a
   wall-clock step would skew them. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* {1 Request synthesis} *)

(* Built-in circuits with catalog faults: cheap, cache-friendly
   requests that exercise the service's common path. *)
let catalog =
  [
    ("divider", Some "r2.R=short");
    ("divider", Some "r1.R=high");
    ("divider", Some "r2.R=3300");
    ("divider", None);
    ("diode", Some "r1.R=open");
    ("diode", None);
  ]

let node_of_quantity = function
  | Q.Node_voltage n -> Some n
  | Q.Branch_current _ | Q.Terminal_current _ | Q.Voltage_drop _
  | Q.Parameter _ ->
    None

(* A Gen ladder scenario shipped as netlist text plus the client-side
   simulated observations — the heavier, never-cached path. *)
let ladder_body rng =
  let spec = Gen.scenario.Gen.gen rng in
  let nominal, _faulty = Gen.scenario_netlists spec in
  let observations =
    Gen.scenario_observations spec
    |> List.filter_map (fun (q, (v : Interval.t)) ->
           node_of_quantity q
           |> Option.map (fun node ->
                  Json.Obj
                    [
                      ("node", Json.Str node);
                      ("m1", Json.Num v.Interval.m1);
                      ("m2", Json.Num v.Interval.m2);
                      ("alpha", Json.Num v.Interval.alpha);
                      ("beta", Json.Num v.Interval.beta);
                    ]))
  in
  Json.Obj
    [
      ("netlist", Json.Str (Parser.to_string nominal));
      ("observations", Json.Arr observations);
    ]

let catalog_body rng =
  let circuit, fault = Rng.choose rng catalog in
  Json.Obj
    (("circuit", Json.Str circuit)
    :: (match fault with Some f -> [ ("fault", Json.Str f) ] | None -> []))

let request_body rng =
  Json.to_string (if Rng.chance rng 0.25 then ladder_body rng else catalog_body rng)

(* {1 One client} *)

type tally = {
  mutable t_requests : int;
  mutable t_ok : int;
  mutable t_shed : int;
  mutable t_errors : int;
  mutable t_protocol : int;
  mutable t_degraded : int;
  mutable latencies : float list;  (** seconds, 200s only *)
}

let fresh_tally () =
  {
    t_requests = 0;
    t_ok = 0;
    t_shed = 0;
    t_errors = 0;
    t_protocol = 0;
    t_degraded = 0;
    latencies = [];
  }

let connect ~host ~port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
    Some (Http.conn fd)
  with Unix.Unix_error _ ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    None

let close_conn conn =
  try Unix.close (Http.fd conn) with Unix.Unix_error _ -> ()

(* One keep-alive client until the deadline.  Every failure to complete
   a round-trip is a protocol error — the server is expected to shed
   with 429, never by breaking the connection. *)
let client_loop ~host ~port ~client_id ~rng ~deadline tally =
  let conn = ref None in
  let rec step () =
    if now () >= deadline then ()
    else begin
      (match !conn with
      | Some _ -> ()
      | None -> begin
        match connect ~host ~port with
        | Some c -> conn := Some c
        | None ->
          tally.t_protocol <- tally.t_protocol + 1;
          Thread.delay 0.05
      end);
      (match !conn with
      | None -> ()
      | Some c -> begin
        let body = request_body rng in
        let t0 = now () in
        match
          Http.write_request (Http.fd c)
            ~headers:[ ("X-Flames-Client", client_id) ]
            ~meth:"POST" ~path:"/diagnose" body;
          Http.read_response c
        with
        | exception Unix.Unix_error _ ->
          tally.t_protocol <- tally.t_protocol + 1;
          close_conn c;
          conn := None
        | Error _ ->
          tally.t_protocol <- tally.t_protocol + 1;
          close_conn c;
          conn := None
        | Ok response ->
          let dt = now () -. t0 in
          tally.t_requests <- tally.t_requests + 1;
          (match response.Http.status with
          | 200 ->
            tally.t_ok <- tally.t_ok + 1;
            tally.latencies <- dt :: tally.latencies;
            (match Json.parse_result response.Http.resp_body with
            | Ok j when Json.mem "degraded" j = Some (Json.Bool true) ->
              tally.t_degraded <- tally.t_degraded + 1
            | Ok _ -> ()
            | Error _ -> tally.t_protocol <- tally.t_protocol + 1)
          | 429 -> tally.t_shed <- tally.t_shed + 1
          | _ -> tally.t_errors <- tally.t_errors + 1);
          if Http.header response.Http.resp_headers "connection" = Some "close"
          then begin
            close_conn c;
            conn := None
          end;
          (* A shed client backs off for the advertised interval's
             floor — hammering a saturated server just burns CPU the
             workers need. *)
          if response.Http.status = 429 then Thread.delay 0.02
      end);
      step ()
    end
  in
  step ();
  Option.iter close_conn !conn

(* {1 Levels and the sweep} *)

let run_level ~host ~port ~seed ~level_index ~clients ~duration =
  let t0 = now () in
  let deadline = t0 +. duration in
  let tallies = Array.init clients (fun _ -> fresh_tally ()) in
  let threads =
    List.init clients (fun c ->
        let rng =
          Rng.make (Rng.case_seed ~seed ~case:((level_index * 4096) + c))
        in
        let client_id = Printf.sprintf "load-%d-%d" level_index c in
        Thread.create
          (fun () ->
            client_loop ~host ~port ~client_id ~rng ~deadline tallies.(c))
          ())
  in
  List.iter Thread.join threads;
  let measured = now () -. t0 in
  let sum f = Array.fold_left (fun acc t -> acc + f t) 0 tallies in
  let requests = sum (fun t -> t.t_requests) in
  {
    clients;
    requests;
    ok = sum (fun t -> t.t_ok);
    shed = sum (fun t -> t.t_shed);
    errors = sum (fun t -> t.t_errors);
    protocol_errors = sum (fun t -> t.t_protocol);
    degraded = sum (fun t -> t.t_degraded);
    duration = measured;
    throughput_rps =
      (if measured > 0. then float_of_int requests /. measured else 0.);
    latencies = Array.to_list tallies |> List.concat_map (fun t -> t.latencies);
  }

let sweep ~host ~port ~seed ~duration levels =
  List.mapi
    (fun i clients ->
      let s = run_level ~host ~port ~seed ~level_index:i ~clients ~duration in
      (* let queued work drain so levels don't bleed into each other *)
      Thread.delay 0.2;
      s)
    levels
