module Pool = Flames_engine.Pool
module Cache = Flames_engine.Cache
module Budget = Flames_core.Budget
module Model = Flames_core.Model
module Diagnose = Flames_core.Diagnose
module Err = Flames_core.Err
module Interval = Flames_fuzzy.Interval
module Netlist = Flames_circuit.Netlist
module Library = Flames_circuit.Library
module Parser = Flames_circuit.Parser
module Fault = Flames_circuit.Fault
module Q = Flames_circuit.Quantity
module Metrics = Flames_obs.Metrics
module Context = Flames_obs.Context
module Events = Flames_obs.Events
module Ids = Flames_obs.Ids
module Digest = Flames_obs.Digest
module Recorder = Flames_obs.Recorder

module Session = Flames_session.Session
module Journal = Flames_store.Journal
module Record = Flames_store.Record

(* What the registry holds per session: the session itself plus the
   provenance (source netlist, trusted components) every journal record
   about it needs — recovery must be able to rebuild the session from
   the journal alone. *)
type live = {
  session : Session.t;
  source : Record.source;
  trusted : string list;
}

type deps = {
  pool : Pool.t;
  cache : Cache.t;
  admission : Admission.t;
  sessions : live Admission.Sessions.t;
  store : Journal.t option ref;
      (** the session journal, once the server opened it (after
          recovery); [None] = persistence off *)
  ready : unit -> bool;
      (** startup recovery finished; until then /readyz answers 503 and
          mutating routes refuse *)
  draining : unit -> bool;
  default_wall : float;
  max_wall : float;
}

type reply = {
  status : int;
  headers : (string * string) list;
  content_type : string;
  body : string;
}

let json_reply ?(headers = []) status j =
  {
    status;
    headers;
    content_type = "application/json";
    body = Json.to_string j ^ "\n";
  }

(* One line, echoing the CLI's one-line stderr discipline. *)
let json_error ?headers status message =
  json_reply ?headers status (Json.Obj [ ("error", Json.Str message) ])

let text_reply status body =
  { status; headers = []; content_type = "text/plain; charset=utf-8"; body }

(* {1 Diagnose request parsing} *)

type spec = {
  label : string;
  nominal : Netlist.t;
  faulty : Netlist.t;
  probes : string list;
  observations : (Q.t * Interval.t) list option;
  trusted : string list;
  imprecision : float;
  wall_ms : float option;
}

let bad fmt = Printf.ksprintf (fun m -> Error m) fmt
let ( let* ) = Result.bind

let resolve_circuit ~circuit ~netlist =
  match (circuit, netlist) with
  | Some name, _ -> begin
    match List.assoc_opt name Library.builtins with
    | Some f -> Ok (name, f ())
    | None ->
      bad "unknown circuit %S (available: %s)" name
        (String.concat ", " (List.map fst Library.builtins))
  end
  | None, Some text -> begin
    match Parser.parse text with
    | Ok n -> Ok (n.Netlist.name, n)
    | Error e -> bad "netlist: %s" (Format.asprintf "%a" Parser.pp_error e)
  end
  | None, None -> bad "request needs a \"circuit\" name or \"netlist\" text"

let inject_fault nominal = function
  | None -> Ok nominal
  | Some spec ->
    let* fault = Fault.of_spec spec in
    (match Fault.inject nominal fault with
    | faulty -> Ok faulty
    | exception Not_found -> bad "no such component/parameter in %S" spec)

let check_probes netlist probes =
  let nodes = Netlist.nodes netlist in
  match List.find_opt (fun p -> not (List.mem p nodes)) probes with
  | Some p -> bad "unknown probe node %S" p
  | None -> Ok probes

let interval_of_json j =
  let field k = Option.bind (Json.mem k j) Json.num_opt in
  match (field "value", field "m1", field "m2") with
  | Some v, _, _ -> begin
    match field "spread" with
    | Some s when s > 0. -> Ok (Interval.number v ~spread:s)
    | _ -> Ok (Interval.crisp v)
  end
  | None, Some m1, Some m2 ->
    let alpha = Option.value ~default:0. (field "alpha") in
    let beta = Option.value ~default:0. (field "beta") in
    (match Interval.make ~m1 ~m2 ~alpha ~beta with
    | v -> Ok v
    | exception Interval.Invalid m -> bad "bad observation interval: %s" m)
  | None, _, _ -> bad "observation needs \"value\" or \"m1\"/\"m2\""

let observations_of_json netlist = function
  | None -> Ok None
  | Some (Json.Arr items) ->
    let nodes = Netlist.nodes netlist in
    let rec loop acc = function
      | [] -> Ok (Some (List.rev acc))
      | item :: rest -> begin
        match Option.bind (Json.mem "node" item) Json.str_opt with
        | None -> bad "observation needs a \"node\""
        | Some node when not (List.mem node nodes) ->
          bad "unknown observation node %S" node
        | Some node ->
          let* v = interval_of_json item in
          loop ((Q.voltage node, v) :: acc) rest
      end
    in
    loop [] items
  | Some _ -> bad "\"observations\" must be an array"

let str_list_field j key =
  match Json.mem key j with
  | None -> Ok []
  | Some (Json.Arr items) ->
    let rec loop acc = function
      | [] -> Ok (List.rev acc)
      | Json.Str s :: rest -> loop (s :: acc) rest
      | _ -> bad "%S must be an array of strings" key
    in
    loop [] items
  | Some _ -> bad "%S must be an array of strings" key

let spec_of_json j =
  let str_field k = Option.bind (Json.mem k j) Json.str_opt in
  let num_field k = Option.bind (Json.mem k j) Json.num_opt in
  let* label, nominal =
    resolve_circuit ~circuit:(str_field "circuit") ~netlist:(str_field "netlist")
  in
  let* faulty = inject_fault nominal (str_field "fault") in
  let* probes = str_list_field j "probes" in
  let* probes = check_probes nominal probes in
  let* trusted = str_list_field j "trusted" in
  let* observations = observations_of_json nominal (Json.mem "observations" j) in
  Ok
    {
      label;
      nominal;
      faulty;
      probes;
      observations;
      trusted;
      imprecision = Option.value ~default:0.002 (num_field "imprecision");
      wall_ms = num_field "budget_ms";
    }

(* Plain-text body: one batch scenario line,
   <builtin-circuit> [comp.param=mode] [probe,probe,...] *)
let spec_of_text line =
  match
    String.split_on_char ' ' (String.trim line)
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun f -> f <> "")
  with
  | [] -> bad "empty scenario line"
  | circuit :: fields ->
    let* label, nominal = resolve_circuit ~circuit:(Some circuit) ~netlist:None in
    let faults, probes = List.partition (fun f -> String.contains f '=') fields in
    let* faulty =
      inject_fault nominal (match faults with [] -> None | s :: _ -> Some s)
    in
    let probes =
      List.concat_map (String.split_on_char ',') probes
      |> List.filter (fun p -> p <> "")
    in
    let* probes = check_probes nominal probes in
    Ok
      {
        label;
        nominal;
        faulty;
        probes;
        observations = None;
        trusted = [];
        imprecision = 0.002;
        wall_ms = None;
      }

let spec_of_request (r : Http.request) =
  (* A JSON spec always opens with '{' and a scenario line never does, so
     sniff the body first; the content-type only decides the ambiguous
     (empty-body) cases and lets curl's default form encoding through. *)
  let is_json =
    let b = String.trim r.Http.body in
    (String.length b > 0 && b.[0] = '{')
    ||
    match Http.header r.Http.headers "content-type" with
    | Some ct ->
      let ct = String.lowercase_ascii ct in
      let rec contains i =
        i + 4 <= String.length ct && (String.sub ct i 4 = "json" || contains (i + 1))
      in
      contains 0
    | None -> false
  in
  if is_json then
    let* j = Json.parse_result r.Http.body in
    spec_of_json j
  else spec_of_text r.Http.body

(* {1 Diagnose response rendering} *)

let interval_json (v : Interval.t) =
  Json.Obj
    [
      ("m1", Json.Num v.Interval.m1);
      ("m2", Json.Num v.Interval.m2);
      ("alpha", Json.Num v.Interval.alpha);
      ("beta", Json.Num v.Interval.beta);
    ]

let result_json ~label ~elapsed (r : Diagnose.result) =
  let opt_num = function Some f -> Json.Num f | None -> Json.Null in
  Json.Obj
    [
      ("circuit", Json.Str label);
      ("healthy", Json.Bool (Diagnose.healthy r));
      ("degraded", Json.Bool r.Diagnose.degraded);
      ( "trips",
        Json.Arr
          (List.map (fun t -> Json.Str (Budget.trip_label t)) r.Diagnose.trips) );
      ("elapsed_ms", Json.Num (elapsed *. 1e3));
      ( "symptoms",
        Json.Arr
          (List.map
             (fun (s : Diagnose.symptom) ->
               Json.Obj
                 [
                   ("quantity", Json.Str (Q.to_string s.Diagnose.quantity));
                   ("dc", opt_num s.Diagnose.signed_dc);
                   ("measured", interval_json s.Diagnose.measured);
                 ])
             r.Diagnose.symptoms) );
      ( "suspects",
        Json.Arr
          (List.map
             (fun (s : Diagnose.suspect) ->
               Json.Obj
                 [
                   ("component", Json.Str s.Diagnose.component);
                   ("suspicion", Json.Num s.Diagnose.suspicion);
                   ("explains", Json.Bool s.Diagnose.explains);
                 ])
             r.Diagnose.suspects) );
      ( "diagnoses",
        Json.Arr
          (List.map
             (fun (components, rank) ->
               Json.Obj
                 [
                   ( "components",
                     Json.Arr (List.map (fun c -> Json.Str c) components) );
                   ("rank", Json.Num rank);
                 ])
             r.Diagnose.diagnoses) );
      ( "single_faults",
        Json.Arr
          (List.map
             (fun (c, rank) ->
               Json.Obj [ ("component", Json.Str c); ("rank", Json.Num rank) ])
             r.Diagnose.single_faults) );
      ("summary", Json.Str (Flames_core.Report.summary r));
    ]

(* {1 Handlers} *)

let shed_reply reason retry_after =
  let label =
    match reason with
    | Admission.Saturated -> "admission queue full"
    | Admission.Throttled -> "client quota exhausted"
  in
  Context.annotate "shed"
    (Context.Str
       (match reason with
       | Admission.Saturated -> "saturated"
       | Admission.Throttled -> "throttled"));
  Context.annotate "retry_after_s" (Context.Num retry_after);
  json_error
    ~headers:[ Admission.retry_after_header retry_after ]
    429
    (Printf.sprintf "shed: %s, retry later" label)

let diagnose deps (r : Http.request) =
  match spec_of_request r with
  | Error m -> json_error 400 m
  | Ok spec -> begin
    let client =
      Option.value ~default:"anonymous"
        (Http.header r.Http.headers "x-flames-client")
    in
    match Admission.admit deps.admission ~client with
    | Shed { reason; retry_after } -> shed_reply reason retry_after
    | Admitted ->
      Fun.protect
        ~finally:(fun () -> Admission.release deps.admission)
        (fun () ->
          let t0 = Unix.gettimeofday () in
          let wall =
            Float.min deps.max_wall
              (match spec.wall_ms with
              | Some ms when ms > 0. -> ms /. 1e3
              | _ -> deps.default_wall)
          in
          let budget = Budget.start (Budget.spec ~wall ()) in
          let config =
            { Model.default_config with trusted = spec.trusted }
          in
          let promise =
            Pool.submit deps.pool ~label:spec.label ~timeout:wall ~budget
              (fun () ->
                let schedule = Cache.compile deps.cache ~config spec.nominal in
                let observations =
                  match spec.observations with
                  | Some obs -> obs
                  | None ->
                    let sol = Flames_sim.Mna.solve spec.faulty in
                    let instrument =
                      {
                        Flames_sim.Measure.relative = spec.imprecision;
                        floor = 5e-4;
                      }
                    in
                    let quantities =
                      match spec.probes with
                      | [] ->
                        List.filter
                          (function Q.Node_voltage _ -> true | _ -> false)
                          (Library.probe_points spec.nominal)
                      | ps -> List.map Q.voltage ps
                    in
                    Flames_sim.Measure.probe_all ~instrument sol quantities
                in
                Diagnose.run ~config ~schedule ~budget spec.nominal
                  observations)
          in
          match Pool.await promise with
          | Ok result ->
            json_reply 200
              (result_json ~label:spec.label
                 ~elapsed:(Unix.gettimeofday () -. t0)
                 result)
          | Error (Pool.Failed e) ->
            json_error 500 (Err.to_string (Err.of_exn e))
          | Error (Pool.Crashed { attempts }) ->
            json_error 500
              (Err.to_string (Err.Worker_crashed { attempts }))
          | Error Pool.Timed_out ->
            json_error 504
              (Printf.sprintf "diagnosis exceeded its %.0f ms budget"
                 (wall *. 1e3))
          | Error Pool.Cancelled ->
            json_error 503 "overloaded: job expired before a worker was free")
  end

(* {1 Interactive sessions: POST /session/*}

   The session registry ([deps.sessions]) is the admission story here:
   a bounded number of live sessions (429 past the cap) with an idle
   TTL; the per-request inflight gate stays on /diagnose, since session
   steps are serialised by the per-session mutex anyway. *)

let measurement_json (m : Session.measurement) =
  Json.Obj
    [
      ("id", Json.Num (float_of_int m.Session.id));
      ("quantity", Json.Str (Q.to_string m.Session.quantity));
      ("interval", interval_json m.Session.interval);
    ]

let evaluation_json (e : Flames_strategy.Best_test.evaluation) =
  let module B = Flames_strategy.Best_test in
  Json.Obj
    [
      ( "test",
        Json.Obj
          [
            ("quantity", Json.Str (Q.to_string e.B.test.B.quantity));
            ("cost", Json.Num e.B.test.B.cost);
            ( "influencers",
              Json.Arr (List.map (fun c -> Json.Str c) e.B.test.B.influencers)
            );
          ] );
      ("score", Json.Num e.B.score);
      ("deviant_likelihood", interval_json e.B.deviant_likelihood);
      ("expected_entropy", interval_json e.B.expected_entropy);
    ]

let session_create deps (r : Http.request) =
  let* j = Json.parse_result r.Http.body in
  let str_field k = Option.bind (Json.mem k j) Json.str_opt in
  let* label, nominal =
    resolve_circuit ~circuit:(str_field "circuit") ~netlist:(str_field "netlist")
  in
  let source =
    match (str_field "circuit", str_field "netlist") with
    | Some name, _ -> Record.Builtin name
    | None, Some text -> Record.Inline text
    | None, None -> Record.Builtin label (* unreachable: resolve succeeded *)
  in
  let* trusted = str_list_field j "trusted" in
  let config = { Model.default_config with trusted } in
  (* the schedule comes from the shared compilation cache, so
     re-creating a session on a builtin costs no recompilation and
     shares the warm consistency memo *)
  let schedule = Cache.compile deps.cache ~config nominal in
  let session = Session.create ~config ~schedule nominal in
  Ok (label, { session; source; trusted })

(* Write-ahead discipline: the record is framed, written and (per the
   fsync mode) synced before the in-memory mutation is applied and the
   200 goes out, so an acknowledged step survives kill -9 — and a
   failed append answers 500 with the session state *untouched*, so
   memory never runs ahead of what a restart would replay.  The journal
   quarantines its own torn segment on failure; here the error is just
   counted and surfaced. *)
let journal deps record =
  match !(deps.store) with
  | None -> Ok ()
  | Some store -> (
    match Journal.append store record with
    | () -> Ok ()
    | exception e ->
      Metrics.incr Flames_store.Telemetry.append_errors_total;
      Error
        (Printf.sprintf "journal append failed: %s" (Printexc.to_string e)))

let session_step deps id f =
  (* the session id joins the step's wide event whether or not the
     session still exists — an expired-session 404 is exactly the kind
     of exchange worth correlating *)
  Context.set_session id;
  match Admission.Sessions.with_session deps.sessions id f with
  | None -> json_error 404 (Printf.sprintf "no such session %S" id)
  | Some reply -> reply

let measurement_of_json netlist j =
  match Option.bind (Json.mem "node" j) Json.str_opt with
  | None -> bad "measurement needs a \"node\""
  | Some node when not (List.mem node (Netlist.nodes netlist)) ->
    bad "unknown measurement node %S" node
  | Some node ->
    let* v = interval_of_json j in
    Ok (Q.voltage node, v)

let int_field j key =
  match Option.bind (Json.mem key j) Json.num_opt with
  | Some f when Float.is_integer f -> Ok (int_of_float f)
  | Some _ | None -> bad "request needs an integral %S" key

let session_routes deps (r : Http.request) segments =
  let with_json f =
    match Json.parse_result r.Http.body with
    | Error m -> json_error 400 m
    | Ok j -> (
      match f j with Ok reply -> reply | Error m -> json_error 400 m)
  in
  match segments with
  | [ "create" ] ->
    if deps.draining () then json_error 503 "draining: not accepting sessions"
    else begin
      match session_create deps r with
      | Error m -> json_error 400 m
      | Ok (label, live) -> (
        match Admission.Sessions.put deps.sessions live with
        | Error `Capacity ->
          json_error
            ~headers:[ Admission.retry_after_header (Admission.Sessions.ttl deps.sessions) ]
            429
            (Printf.sprintf "session registry full (%d live), retry later"
               (Admission.Sessions.cap deps.sessions))
        | Ok id -> (
          Context.set_session id;
          match
            journal deps
              (Record.Create { sid = id; source = live.source; trusted = live.trusted })
          with
          | Error m ->
            (* never hand out a session id the journal does not know:
               a restart would lose it silently *)
            ignore (Admission.Sessions.remove deps.sessions id);
            json_error 500 m
          | Ok () ->
            json_reply 200
              (Json.Obj
                 [
                   ("session", Json.Str id);
                   ("circuit", Json.Str label);
                   ("ttl_s", Json.Num (Admission.Sessions.ttl deps.sessions));
                 ])))
    end
  | [ id; "measure" ] ->
    session_step deps id (fun live ->
        with_json (fun j ->
            let* q, v = measurement_of_json (Session.netlist live.session) j in
            (* the id the add will assign is known up front, so the
               record can be durable before the session mutates *)
            let mid = Session.next_id live.session in
            Ok
              (match
                 journal deps
                   (Record.Measure { sid = id; mid; quantity = q; interval = v })
               with
              | Error m -> json_error 500 m
              | Ok () ->
                let m = Session.add_measurement live.session q v in
                json_reply 200 (measurement_json m))))
  | [ id; "retract" ] ->
    session_step deps id (fun live ->
        with_json (fun j ->
            let* mid = int_field j "id" in
            match Session.find_measurement live.session ~id:mid with
            | None -> Ok (json_error 404 (Printf.sprintf "no measurement %d" mid))
            | Some _ ->
              Ok
                (match journal deps (Record.Retract { sid = id; mid }) with
                | Error m -> json_error 500 m
                | Ok () ->
                  ignore (Session.retract live.session ~id:mid);
                  json_reply 200
                    (Json.Obj [ ("retracted", Json.Num (float_of_int mid)) ]))))
  | [ id; "refine" ] ->
    session_step deps id (fun live ->
        with_json (fun j ->
            let* mid = int_field j "id" in
            let* v = interval_of_json j in
            match Session.find_measurement live.session ~id:mid with
            | None -> Ok (json_error 404 (Printf.sprintf "no measurement %d" mid))
            | Some _ ->
              Ok
                (match
                   journal deps (Record.Refine { sid = id; mid; interval = v })
                 with
                | Error m -> json_error 500 m
                | Ok () -> (
                  match Session.refine live.session ~id:mid v with
                  | Some m -> json_reply 200 (measurement_json m)
                  | None ->
                    (* unreachable: the entry lock is held and the id
                       was just found *)
                    json_error 500
                      (Printf.sprintf "measurement %d vanished mid-step" mid)))))
  | [ id; "diagnoses" ] ->
    session_step deps id (fun live ->
        let t0 = Unix.gettimeofday () in
        let result = Session.diagnoses live.session in
        json_reply 200
          (result_json
             ~label:(Session.netlist live.session).Netlist.name
             ~elapsed:(Unix.gettimeofday () -. t0)
             result))
  | [ id; "next" ] ->
    session_step deps id (fun live ->
        match Session.next_test live.session with
        | Some e -> json_reply 200 (evaluation_json e)
        | None -> json_reply 200 (Json.Obj [ ("test", Json.Null) ]))
  | [ id; "close" ] ->
    (* under the entry lock so the Close record is ordered against the
       session's other journaled steps; journal-first, so a failed
       append leaves the session registered — it must not be gone in
       memory yet alive in the journal, resurrecting on restart *)
    session_step deps id (fun _live ->
        match journal deps (Record.Close { sid = id }) with
        | Error m -> json_error 500 m
        | Ok () ->
          ignore (Admission.Sessions.remove deps.sessions id);
          json_reply 200 (Json.Obj [ ("closed", Json.Str id) ]))
  | _ ->
    json_error 404
      "session routes: POST /session/create or \
       /session/<id>/{measure,retract,refine,diagnoses,next,close}"

(* Startup recovery in progress: the listener is up (so orchestrators
   see the port) but state is still being replayed — answer 503 with a
   Retry-After instead of serving requests against missing sessions. *)
let recovering_reply () =
  json_reply
    ~headers:[ Admission.retry_after_header 1. ]
    503
    (Json.Obj
       [
         ("ready", Json.Bool false);
         ("error", Json.Str "recovering: replaying the session journal");
       ])

let readyz deps =
  if not (deps.ready ()) then recovering_reply ()
  else
  let admitted = Admission.in_flight deps.admission in
  let draining = deps.draining () in
  let ready = (not draining) && admitted < Admission.max_inflight deps.admission in
  json_reply
    ~headers:(if ready then [] else [ Admission.retry_after_header 1. ])
    (if ready then 200 else 503)
    (Json.Obj
       [
         ("ready", Json.Bool ready);
         ("draining", Json.Bool draining);
         ("admitted", Json.Num (float_of_int admitted));
         ( "max_inflight",
           Json.Num (float_of_int (Admission.max_inflight deps.admission)) );
         ("queue_depth", Json.Num (float_of_int (Pool.queue_depth deps.pool)));
         ("in_flight", Json.Num (float_of_int (Pool.in_flight deps.pool)));
         ("workers", Json.Num (float_of_int (Pool.workers deps.pool)));
       ])

let version_reply () =
  json_reply 200
    (Json.Obj
       [
         ("service", Json.Str "flames_serve");
         ("version", Json.Str Version.current);
       ])

let session_segments path =
  String.sub path 9 (String.length path - 9)
  |> String.split_on_char '/'
  |> List.filter (fun s -> s <> "")

let is_session_path path =
  String.length path >= 9 && String.sub path 0 9 = "/session/"

(* Low-cardinality route name for digests and events: session ids are
   collapsed so /session/s1/measure and /session/s2/measure land in the
   same latency series. *)
let route_name path =
  if is_session_path path then
    match session_segments path with
    | [ "create" ] -> "/session/create"
    | [ _; op ] -> "/session/*/" ^ op
    | _ -> "/session/*"
  else
    match path with
    | "/diagnose" | "/metrics" | "/healthz" | "/readyz" | "/version"
    | "/debug/flight" ->
      path
    | _ -> "other"

let dispatch deps (r : Http.request) =
  let guarded f =
    match f () with
    | reply -> reply
    | exception e -> json_error 500 (Err.to_string (Err.of_exn e))
  in
  let require meth f =
    if r.Http.meth = meth then guarded f
    else
      json_error
        ~headers:[ ("Allow", meth) ]
        405
        (Printf.sprintf "%s does not allow %s" r.Http.path r.Http.meth)
  in
  match r.Http.path with
  | "/diagnose" ->
    require "POST" (fun () ->
        if not (deps.ready ()) then recovering_reply ()
        else if deps.draining () then
          json_error 503 "draining: not accepting new diagnoses"
        else diagnose deps r)
  | "/metrics" ->
    require "GET" (fun () ->
        {
          status = 200;
          headers = [];
          content_type = "text/plain; version=0.0.4";
          body = Flames_obs.Export.prometheus_string ();
        })
  | "/debug/flight" ->
    require "GET" (fun () ->
        {
          status = 200;
          headers = [];
          content_type = "application/json";
          body = Recorder.dump ();
        })
  | path when is_session_path path ->
    require "POST" (fun () ->
        if not (deps.ready ()) then recovering_reply ()
        else session_routes deps r (session_segments path))
  | "/healthz" -> require "GET" (fun () -> text_reply 200 "ok\n")
  | "/readyz" -> require "GET" (fun () -> readyz deps)
  | "/version" -> require "GET" (fun () -> version_reply ())
  | path -> json_error 404 (Printf.sprintf "no such route %s" path)

let trace_header = "X-Flames-Trace-Id"

(* Every reply — including 429 sheds and handler 500s — carries the
   request's trace id; a valid client-supplied X-Flames-Trace-Id is
   kept, anything else gets a fresh one. *)
let handle deps (r : Http.request) =
  let trace_id =
    match Http.header r.Http.headers "x-flames-trace-id" with
    | Some id when Ids.valid id -> id
    | _ -> Ids.trace_id ()
  in
  let client = Http.header r.Http.headers "x-flames-client" in
  let route = route_name r.Http.path in
  let ctx = Context.make ~trace_id ?client ~route () in
  Context.with_context ctx (fun () ->
      let t0 = Unix.gettimeofday () in
      let reply = dispatch deps r in
      let dt = Unix.gettimeofday () -. t0 in
      Digest.observe_in Telemetry.route_seconds route dt;
      if Events.enabled () then begin
        Metrics.incr Telemetry.events_total;
        Events.emit ~ctx ~name:"http.request"
          [
            ("method", Events.Str r.Http.meth);
            ("path", Events.Str r.Http.path);
            ("status", Events.Int reply.status);
            ("elapsed_ms", Events.Num (dt *. 1e3));
            ("bytes_out", Events.Int (String.length reply.body));
          ]
      end;
      { reply with headers = (trace_header, trace_id) :: reply.headers })
