(* session-journal: a closed loop of [workers] clients running seeded
   troubleshooting scripts over [/session/*] against an in-process
   [Server] that journals every write (default interval fsync, default
   segment size) to a directory inside the checkout.  The only workload
   that writes; its steps are small, so session, strategy and store code
   dominate.  At the end the first [recover_records] records of the
   run's journal are replayed by a restarted server. *)

open Common
module Server = Flames_serve.Server
module Router = Flames_serve.Router
module Json = Flames_serve.Json
module Journal = Flames_store.Journal
module Record = Flames_store.Record
module Frame = Flames_store.Frame
module Session = Flames_session.Session
module Cache = Flames_engine.Cache
module Parser = Flames_circuit.Parser
module Q = Flames_circuit.Quantity

(* Latency limit of one session step. *)
let slo_ms = 50.

(* Each client leaves its first scripts' sessions open, so the journal
   the restart replays holds live sessions as well as closed ones. *)
let open_per_client = 2

(* The replayed prefix is fixed in records, so recovery work does not
   grow with the run's throughput. *)
let recover_records = 3000

let config = Flames_core.Model.default_config

(* Per script: the reference result of each [Diagnoses] op, in order.
   Scripts with a runaway diagnosis (see [Oracle.step_cap]) are left
   out: session steps run without a budget, so the server would spend
   the library's whole step limit on each of their [diagnoses] steps,
   and so would the references (seconds to a minute each).  Answers the
   kept scripts, their references and how many were left out. *)
let references (scripts : Inputs.script array) =
  let with_refs =
    Array.to_list scripts
    |> List.map (fun (s : Inputs.script) ->
           let refs =
             List.filter_map
               (function
                 | Inputs.Diagnoses obs ->
                   Some
                     (Option.map
                        (fun res -> (Oracle.served_shape res, Oracle.fingerprint res))
                        (Oracle.bounded_reference ~trusted:[] s.Inputs.netlist obs))
                 | _ -> None)
               s.Inputs.ops
           in
           (s, refs))
  in
  let kept = List.filter (fun (_, refs) -> List.for_all Option.is_some refs) with_refs in
  ( Array.of_list (List.map fst kept),
    Array.of_list (List.map (fun (_, refs) -> Array.of_list (List.map Option.get refs)) kept),
    List.length with_refs - List.length kept )

(* The builtin boards recur often enough to stay cached; the ladders
   outnumber the cache and are not warmed. *)
let warm_bodies (scripts : Inputs.script array) =
  Array.to_list scripts
  |> List.filter (fun (s : Inputs.script) -> match s.Inputs.source with Inputs.Builtin _ -> true | Inputs.Inline _ -> false)
  |> List.map Inputs.create_body |> List.sort_uniq compare

(* Program set-up: [Server.start] on an empty journal, then one
   [/diagnose] per builtin board, which compiles its schedule and
   memoises its sensitivity sweep without writing to the journal. *)
let start bodies dir =
  let server = Server.start ~config:(Client.config ~journal_dir:dir ()) () in
  let c = Client.create ~port:(Server.port server) "flbench-warm" in
  List.iter
    (fun b ->
      match Client.post c "/diagnose" b with
      | Ok (200, _) -> ()
      | _ -> failwith "session-journal: warm-up request failed")
    bodies;
  Client.await_ready (Server.port server);
  Client.close c;
  server

type sample = {
  op : string;
  lat : float;
  ok : bool;
  gap : float;  (** client turnaround: previous reply to this request; [nan] first *)
}

let num_field body key =
  match Json.parse_result body with
  | Ok j -> Option.bind (Json.mem key j) Json.num_opt
  | Error _ -> None

let session_id body =
  match Json.parse_result body with
  | Ok j -> Option.bind (Json.mem "session" j) Json.str_opt
  | Error _ -> None

(* Whether a 200 reply body is the right answer to [op]; [expected] is
   the reference served shape of a [Diagnoses] op. *)
let check_op (op : Inputs.op) ~expected body =
  match op with
  | Inputs.Add { mid; _ } | Inputs.Refine { mid; _ } -> num_field body "id" = Some (float_of_int mid)
  | Inputs.Retract mid -> num_field body "retracted" = Some (float_of_int mid)
  | Inputs.Diagnoses _ -> Oracle.reply_shape body = Some expected
  | Inputs.Next -> (
    match Json.parse_result body with Ok j -> Json.mem "test" j <> None | Error _ -> false)

(* One script, every step timed and checked; [post] sends one request
   (over HTTP, or straight into [Router.handle]); [last] holds the time
   the client's previous reply arrived. *)
let run_script ~post ?(last = ref Float.nan) r (s : Inputs.script) refs ~leave_open record =
  let step op path body check =
    let gap = now () -. !last in
    let res, lat = time (fun () -> post path body) in
    last := now ();
    let ok = match res with Ok (200, b) -> check b | _ -> false in
    count r ~ok ~what:(Printf.sprintf "session-journal %s on %s: wrong or failed step" op s.Inputs.label);
    record { op; lat; ok; gap };
    res
  in
  match step "create" "/session/create" (Inputs.create_body s) (fun b -> session_id b <> None) with
  | Ok (200, body) ->
    let sid = Option.get (session_id body) in
    let k = ref 0 in
    List.iter
      (fun op ->
        let path = Inputs.op_path op in
        let expected = match op with Inputs.Diagnoses _ -> fst refs.(!k) | _ -> "" in
        ignore
          (step path (Printf.sprintf "/session/%s/%s" sid path) (Inputs.op_body op)
             (check_op op ~expected));
        match op with Inputs.Diagnoses _ -> incr k | _ -> ())
      s.Inputs.ops;
    if not leave_open then
      ignore (step "close" (Printf.sprintf "/session/%s/close" sid) "{}" (fun _ -> true))
  | _ -> ()

let loop server scripts refs r ~seconds =
  let n = Array.length scripts in
  let samples = ref [] and lock = Mutex.create () in
  let record s =
    Mutex.lock lock;
    samples := s :: !samples;
    Mutex.unlock lock
  in
  let clients = workers in
  let t0 = now () in
  let deadline = t0 +. seconds in
  let client k =
    let c = Client.create ~port:(Server.port server) (Printf.sprintf "flbench-%d" k) in
    let last = ref Float.nan in
    let rec go j =
      if now () < deadline then begin
        let i = (k + (j * clients)) mod n in
        run_script ~post:(Client.post c) ~last r scripts.(i) refs.(i)
          ~leave_open:(j < open_per_client) record;
        go (j + 1)
      end
    in
    go 0;
    Client.close c
  in
  List.iter Thread.join (List.init clients (fun k -> Thread.create client k));
  (!samples, now () -. t0)

(* {1 The journal prefix the restart replays} *)

let segments dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".wal")
  |> List.sort compare

(* The first [limit] whole frames of a segment's contents: the byte
   length of that prefix and the number of frames in it. *)
let frame_prefix content limit =
  let hlen = String.length Frame.header in
  if String.length content < hlen then (0, 0)
  else
    let rec scan pos n =
      if n = limit then (pos, n)
      else
        match Frame.read content ~pos with
        | Frame.Frame { next; _ } -> scan next (n + 1)
        | Frame.End | Frame.Torn | Frame.Corrupt -> (pos, n)
    in
    scan hlen 0

let read_prefix dir =
  match segments dir with
  | [] -> None
  | first :: _ -> (
    match read_file (Filename.concat dir first) with
    | exception Sys_error _ -> None
    | content ->
      let len, n = frame_prefix content recover_records in
      Some (String.sub content 0 len, n))

(* Watches the live journal and keeps its first [recover_records]
   records as soon as they exist (segment rotation later deletes them).
   The segment rotates at 1 MiB, some ten thousand records, so polling
   five times a second is ample. *)
let monitor dir =
  let captured = ref None and stop = Atomic.make false in
  let rec watch () =
    if not (Atomic.get stop) then begin
      (match read_prefix dir with
      | Some (p, n) when n >= recover_records -> captured := Some (p, n)
      | _ -> ());
      if !captured = None then begin
        Thread.delay 0.2;
        watch ()
      end
    end
  in
  let th = Thread.create watch () in
  fun () ->
    Atomic.set stop true;
    Thread.join th;
    match !captured with Some c -> c | None -> Option.value (read_prefix dir) ~default:("", 0)

let write_segment dir content =
  Out_channel.with_open_bin (Filename.concat dir "segment-00000001.wal") (fun oc ->
      Out_channel.output_string oc content)

(* The sessions alive at the end of the prefix, with their surviving
   measurements, decoded from the records themselves. *)
let alive_sessions prefix =
  let live = Hashtbl.create 16 in
  let hlen = String.length Frame.header in
  let rec scan pos =
    match Frame.read prefix ~pos with
    | Frame.Frame { payload; next } ->
      (match Record.decode payload with
      | Ok (Record.Create { sid; source; trusted }) -> Hashtbl.replace live sid (source, trusted, [])
      | Ok (Record.Measure { sid; mid; quantity; interval }) -> (
        match Hashtbl.find_opt live sid with
        | Some (src, tr, ms) -> Hashtbl.replace live sid (src, tr, ms @ [ (mid, quantity, interval) ])
        | None -> ())
      | Ok (Record.Retract { sid; mid }) -> (
        match Hashtbl.find_opt live sid with
        | Some (src, tr, ms) ->
          Hashtbl.replace live sid (src, tr, List.filter (fun (m, _, _) -> m <> mid) ms)
        | None -> ())
      | Ok (Record.Refine { sid; mid; interval }) -> (
        match Hashtbl.find_opt live sid with
        | Some (src, tr, ms) ->
          Hashtbl.replace live sid
            (src, tr, List.map (fun (m, q, v) -> if m = mid then (m, q, interval) else (m, q, v)) ms)
        | None -> ())
      | Ok (Record.Close { sid }) -> Hashtbl.remove live sid
      | Ok (Record.Snapshot _) | Error _ -> ());
      scan next
    | Frame.End | Frame.Torn | Frame.Corrupt -> ()
  in
  if String.length prefix >= hlen then scan hlen;
  Hashtbl.fold (fun sid v acc -> (sid, v) :: acc) live [] |> List.sort compare

let netlist_of = function
  | Record.Builtin name -> Inputs.builtin name
  | Record.Inline text -> Result.get_ok (Parser.parse text)

(* Restart a server on a copy of the prefix; time until [/readyz] is
   200.  With [check], every session alive in the prefix must answer
   the reference diagnosis of its surviving measurements. *)
let restart r prefix ~check =
  let dir = scratch_dir (Printf.sprintf "recover-%f" (now ())) in
  write_segment dir prefix;
  let server, t =
    time (fun () ->
        let s = Server.start ~config:(Client.config ~journal_dir:dir ()) () in
        Client.await_ready (Server.port s);
        s)
  in
  if check then begin
    let c = Client.create ~port:(Server.port server) "flbench-check" in
    List.iter
      (fun (sid, (source, trusted, ms)) ->
        let obs = List.map (fun (_, q, v) -> (q, v)) ms in
        let expected = Oracle.served_shape (Oracle.reference ~trusted (netlist_of source) obs) in
        let ok =
          match Client.post c (Printf.sprintf "/session/%s/diagnoses" sid) "{}" with
          | Ok (200, body) -> Oracle.reply_shape body = Some expected
          | _ -> false
        in
        count r ~ok ~what:(Printf.sprintf "session-journal: recovered session %s answers differently" sid))
      (alive_sessions prefix);
    Client.close c
  end;
  Server.stop server;
  remove_tree dir;
  t

let e2e r samples wall =
  let ok = List.filter (fun s -> s.ok) samples in
  let lat = sorted (List.map (fun s -> s.lat) samples) in
  let diag = sorted (List.filter_map (fun s -> if s.op = "diagnoses" then Some s.lat else None) samples) in
  set r "ops_per_s" (float_of_int (List.length ok) /. wall);
  set r "p50_ms" (1e3 *. percentile lat 0.5);
  set r "tail_ms" (1e3 *. percentile lat 0.99);
  set r "heavy_p50_ms" (1e3 *. percentile diag 0.5);
  set r "slo_ok_pct"
    (100. *. float_of_int (List.length (List.filter (fun s -> s.lat *. 1e3 <= slo_ms) ok))
     /. float_of_int (max 1 (List.length samples)));
  List.iter
    (fun op ->
      let l = sorted (List.filter_map (fun s -> if s.op = op then Some s.lat else None) samples) in
      note r "step %s: n=%d p50=%.2f ms p99=%.2f ms" op (Array.length l) (1e3 *. percentile l 0.5)
        (1e3 *. percentile l 0.99))
    [ "create"; "measure"; "retract"; "refine"; "diagnoses"; "next"; "close" ];
  note r "session-journal: %d steps in %.2f s (%d diagnoses); tail_ms is p99; slo %.0f ms"
    (List.length samples) wall (Array.length diag) slo_ms

(* {1 Traced layers} *)

(* The same scripts as direct [Session] calls, median microseconds per
   operation, each diagnosis checked against its reference. *)
let session_steps r cache (scripts : Inputs.script array) refs =
  let times = Hashtbl.create 8 in
  let add op t = Hashtbl.replace times op (t :: Option.value (Hashtbl.find_opt times op) ~default:[]) in
  Array.iteri
    (fun i (s : Inputs.script) ->
      let schedule = Cache.compile cache ~config s.Inputs.netlist in
      let session = Session.create ~config ~schedule s.Inputs.netlist in
      let k = ref 0 in
      List.iter
        (fun op ->
          match op with
          | Inputs.Add { node; iv; mid } ->
            let m, t = time (fun () -> Session.add_measurement session (Q.voltage node) iv) in
            add "add_measurement" t;
            count r ~ok:(m.Session.id = mid) ~what:"session: measurement id differs"
          | Inputs.Retract mid ->
            let ok, t = time (fun () -> Session.retract session ~id:mid) in
            add "retract" t;
            count r ~ok ~what:"session: retract refused"
          | Inputs.Refine { mid; iv } ->
            let m, t = time (fun () -> Session.refine session ~id:mid iv) in
            add "refine" t;
            count r ~ok:(m <> None) ~what:"session: refine refused"
          | Inputs.Diagnoses _ ->
            let res, t = time (fun () -> Session.diagnoses session) in
            add "diagnoses" t;
            count r
              ~ok:(String.equal (Oracle.fingerprint res) (snd refs.(i).(!k)))
              ~what:"session: diagnoses differ from Diagnose.run";
            incr k
          | Inputs.Next ->
            let _, t = time (fun () -> Session.next_test session) in
            add "next_test" t)
        s.Inputs.ops)
    scripts;
  List.iter
    (fun op ->
      set r ("session.step_us." ^ op)
        (1e6 *. median (Option.value (Hashtbl.find_opt times op) ~default:[ 0. ])))
    session_ops

(* The journal records the scripts write, appended with the server's
   fsync discipline to a fresh journal; returns its directory. *)
let store_append r (scripts : Inputs.script array) =
  let dir = scratch_dir "append" in
  let j = Journal.open_ ~fsync:Server.default_config.Server.journal_fsync dir in
  let times = ref [] in
  let append rc = times := snd (time (fun () -> Journal.append j rc)) :: !times in
  Array.iteri
    (fun i (s : Inputs.script) ->
      let sid = Printf.sprintf "s%d" i in
      let source =
        match s.Inputs.source with
        | Inputs.Builtin n -> Record.Builtin n
        | Inputs.Inline t -> Record.Inline t
      in
      append (Record.Create { sid; source; trusted = [] });
      List.iter
        (function
          | Inputs.Add { node; iv; mid } ->
            append (Record.Measure { sid; mid; quantity = Q.voltage node; interval = iv })
          | Inputs.Retract mid -> append (Record.Retract { sid; mid })
          | Inputs.Refine { mid; iv } -> append (Record.Refine { sid; mid; interval = iv })
          | Inputs.Diagnoses _ | Inputs.Next -> ())
        s.Inputs.ops;
      append (Record.Close { sid }))
    scripts;
  Journal.close j;
  set r "store.append_us" (1e6 *. median !times);
  dir

(* [Journal.recover] of the journal in [dir], with a schedule cache as
   the server passes one. *)
let store_recover r dir =
  let runs =
    List.init 3 (fun _ ->
        let cache = Cache.create () in
        let schedule_of config n = Some (Cache.compile cache ~config n) in
        let rc, t = time (fun () -> Journal.recover ~schedule_of dir) in
        t /. float_of_int (max 1 rc.Journal.records))
  in
  set r "store.recover_us_per_record" (1e6 *. median runs)

(* [Router.handle] in process, journal on, over the same script
   requests: the median per request, and the reply bodies. *)
let route r (scripts : Inputs.script array) refs =
  let dir = scratch_dir "route" in
  let journal = Journal.open_ ~fsync:Server.default_config.Server.journal_fsync dir in
  let pool, deps = Client.in_process_deps ~store:journal () in
  let times = ref [] and replies = ref [] in
  let post path body =
    let reply = Router.handle deps (Client.post_request path body) in
    replies := reply.Router.body :: !replies;
    Ok (reply.Router.status, reply.Router.body)
  in
  Array.iteri
    (fun i s -> run_script ~post r s refs.(i) ~leave_open:false (fun x -> times := x.lat :: !times))
    scripts;
  Flames_engine.Pool.shutdown pool;
  Journal.close journal;
  remove_tree dir;
  (median !times, !replies)

(* Registry deltas of a window of session steps: rebuilds per
   diagnoses step, fsyncs and journal bytes per journaled step. *)
let store_window r ~before ~after samples =
  let appends = counter_delta before after "flames_store_appends_total" in
  set r "store.fsyncs_per_append" (ratio (counter_delta before after "flames_store_fsyncs_total") appends);
  set r "store.bytes_per_step" (ratio (counter_delta before after "flames_store_append_bytes_total") appends);
  let diagnoses = float_of_int (List.length (List.filter (fun s -> s.op = "diagnoses") samples)) in
  set r "session.rebuilds" (ratio (counter_delta before after "flames_session_rebuilds_total") diagnoses)

let bodies (scripts : Inputs.script array) =
  Array.to_list scripts
  |> List.concat_map (fun (s : Inputs.script) -> Inputs.create_body s :: List.map Inputs.op_body s.Inputs.ops)

(* The session and store layers on [scripts]: [Router.handle] in process
   with a journal (route), the same scripts one step at a time over HTTP
   against an idle journaled server (end to end; wire is the
   difference), direct [Session] calls, [Journal.append] of the scripts'
   records and [Journal.recover] of [replay] (default: the journal those
   appends wrote).  Every answer is checked. *)
let session_layer r scripts refs ?replay () =
  let route_med, replies = route r scripts refs in
  let dir = scratch_dir "layer-journal" in
  let server = Server.start ~config:(Client.config ~journal_dir:dir ()) () in
  let c = Client.create ~port:(Server.port server) "flbench-layer" in
  let samples = ref [] in
  let before = read_registry () in
  Array.iteri
    (fun i s ->
      run_script ~post:(Client.post c) r s refs.(i) ~leave_open:false (fun x -> samples := x :: !samples))
    scripts;
  let after = read_registry () in
  Client.close c;
  Server.stop server;
  remove_tree dir;
  set r "serve.route_ms.session" (1e3 *. route_med);
  set r "serve.wire_ms.session" (1e3 *. (median (List.map (fun x -> x.lat) !samples) -. route_med));
  store_window r ~before ~after !samples;
  Layers.json_metrics r (bodies scripts) replies;
  session_steps r (Cache.create ()) scripts refs;
  let appended = store_append r scripts in
  (match replay with
  | Some prefix ->
    let d = scratch_dir "replay" in
    write_segment d prefix;
    store_recover r d;
    remove_tree d
  | None -> store_recover r appended);
  remove_tree appended

(* Scripts the in-process session passes use. *)
let layer_scripts = 60

(* The session layer for the workloads that run no sessions: the same
   passes on the first scripts of the seed's session set. *)
let probe_session_layer r ~seed =
  let scripts = Array.sub (Inputs.session_scripts ~seed) 0 layer_scripts in
  let scripts, refs, _ = references scripts in
  session_layer r scripts refs ()

(* Set-ups per run; [setup_s] is their median. *)
let n_setups = 9

(* Restarts timed per run; [recover_s] is their median. *)
let n_restarts = 9

let run r ~seed ~seconds ~trace =
  let scripts, refs, dropped = references (Inputs.session_scripts ~seed) in
  let bodies = warm_bodies scripts in
  Gc.compact ();
  note r
    "session-journal: %d scripts, %d closed-loop clients, journal fsync interval %.3f s, %d sessions left \
     open per client, restart replays the first %d records"
    (Array.length scripts) workers
    (match Server.default_config.Server.journal_fsync with Journal.Interval s -> s | _ -> 0.)
    open_per_client recover_records;
  note r "session-journal: %d runaway scripts left out (propagation past %d steps)" dropped Oracle.step_cap;
  let setups =
    List.init n_setups (fun i ->
        let dir = scratch_dir (Printf.sprintf "journal-%d" i) in
        let s, t = time (fun () -> start bodies dir) in
        if i < n_setups - 1 then begin
          Server.stop s;
          remove_tree dir
        end;
        (s, dir, t))
  in
  let server, live_dir, _ = List.nth setups (n_setups - 1) in
  set r "setup_s" (median (List.map (fun (_, _, t) -> t) setups));
  let prefix = monitor live_dir in
  if not trace then begin
    let rss = rss_sampler () in
    let samples, wall = loop server scripts refs r ~seconds in
    let rss = rss () in
    let prefix, records = prefix () in
    Server.stop server;
    set r "peak_rss_mb" (max_of rss);
    note r "rss over the loop: max %.1f MB, median %.1f MB" (max_of rss) (median rss);
    e2e r samples wall;
    let restarts = List.init n_restarts (fun i -> restart r prefix ~check:(i = 0)) in
    note r "session-journal: restarts replayed %d records; recover_s is the median of %d restarts" records
      n_restarts;
    set r "recover_s" (median restarts)
  end
  else begin
    let before = read_registry () in
    let b, _ = loop server scripts refs r ~seconds in
    let after = read_registry () in
    let prefix, _ = prefix () in
    Server.stop server;
    set r "load.late_p99_ms"
      (1e3 *. percentile (sorted (List.filter Float.is_finite (List.map (fun s -> s.gap) b))) 0.99);
    set r "serve.shed_ratio"
      (ratio
         (counter_delta before after "flames_serve_sessions_shed_total"
         +. counter_delta before after "flames_serve_shed_total")
         (float_of_int (List.length b)));
    (* the in-process passes use the first [layer_scripts] scripts *)
    let sample = Array.sub scripts 0 layer_scripts and sample_refs = Array.sub refs 0 layer_scripts in
    session_layer r sample sample_refs ~replay:prefix ();
    (* the loaded loop's own figures override the idle pass's *)
    store_window r ~before ~after b;
    Layers.engine_metrics r ~before ~after ~busy_pct:0.;
    let finals =
      Array.to_list sample
      |> List.map (fun (s : Inputs.script) ->
             let obs =
               List.fold_left (fun acc op -> match op with Inputs.Diagnoses o -> o | _ -> acc) [] s.Inputs.ops
             in
             (config, s.Inputs.netlist, obs, Oracle.fingerprint (Oracle.reference ~trusted:[] s.Inputs.netlist obs)))
    in
    let staged = Layers.sequential_pass r ~cache:(Cache.create ()) finals in
    Layers.result_metrics r (List.map Layers.summarize staged);
    Layers.compile_metrics r ~config
      (List.sort_uniq compare (Array.to_list (Array.map (fun (s : Inputs.script) -> s.Inputs.netlist) sample)))
  end
