(* The /diagnose traffic of serve-mixed: the service's load-generator mix
   of catalog, ladder and amplifier requests (see [Inputs.shares]).  It
   is no workload of its own (an open loop over one connection measured
   mostly its own queueing, see METRICS.md); its requests feed the serve
   layer pass of traced runs. *)

open Common
module Server = Flames_serve.Server
module Router = Flames_serve.Router
module Pool = Flames_engine.Pool

(* What a request must be answered with: the served shape of its
   reference, or, for a runaway input (see [Oracle.step_cap]), the
   service's budget cut: a 200 marked degraded, or a 504.  The library
   itself gives no complete answer to a runaway input, so there is no
   shape to compare. *)
type expected = Shape of string | Runaway

(* One expectation per distinct body (catalog and amp bodies repeat;
   every ladder body is new). *)
let references reqs =
  let t = Hashtbl.create 64 in
  Array.iter
    (fun (_, (q : Inputs.request)) ->
      if not (Hashtbl.mem t q.Inputs.body) then
        Hashtbl.replace t q.Inputs.body
          (match
             Oracle.bounded_reference ~trusted:q.Inputs.trusted q.Inputs.nominal q.Inputs.observations
           with
          | Some res -> Shape (Oracle.served_shape res)
          | None -> Runaway))
    reqs;
  t

let answers refs (q : Inputs.request) status body =
  match Hashtbl.find refs q.Inputs.body with
  | Shape shape -> status = 200 && Oracle.reply_shape body = Some shape
  | Runaway -> status = 504 || (status = 200 && Oracle.reply_degraded body)

(* The requests the layer passes use: the first of each class. *)
let layer_sample reqs =
  let first cls k =
    Array.to_list reqs |> List.map snd
    |> List.filter (fun (q : Inputs.request) -> q.Inputs.cls = cls)
    |> List.filteri (fun i _ -> i < k)
  in
  first Inputs.Catalog 15 @ first Inputs.Ladder 15 @ first Inputs.Amp 3

(* The serve layer, per class: [Router.handle] in process (route), the
   same requests one at a time over a keep-alive connection to an idle
   server (end to end), and the difference (wire: sockets, Http framing,
   server threads).  Cached classes are sent once untimed first, as the
   served run finds them warm; every answer is checked.  Also sets the
   JSON metrics on the same bodies and replies, and the queue wait and
   shed ratio of this unloaded pass (a loaded run overrides both). *)
let serve_layer r sample refs =
  let pool, deps = Client.in_process_deps () in
  let server = Server.start ~config:(Client.config ()) () in
  let c = Client.create ~port:(Server.port server) "flbench-layer" in
  let replies = ref [] and shed = ref 0 and sent = ref 0 in
  let before = read_registry () in
  let check what (q : Inputs.request) status body =
    incr sent;
    if status = 429 then incr shed;
    count r ~ok:(answers refs q status body) ~what
  in
  let route (q : Inputs.request) =
    let reply, t = time (fun () -> Router.handle deps (Client.post_request "/diagnose" q.Inputs.body)) in
    check "serve layer: in-process route differs from the reference" q reply.Router.status
      reply.Router.body;
    replies := reply.Router.body :: !replies;
    t
  in
  let served (q : Inputs.request) =
    let res, t = time (fun () -> Client.post c "/diagnose" q.Inputs.body) in
    (match res with
    | Ok (status, body) -> check "serve layer: served answer differs from the reference" q status body
    | Error _ -> count r ~ok:false ~what:"serve layer: request failed");
    t
  in
  List.iter
    (fun cls ->
      let qs = List.filter (fun (q : Inputs.request) -> q.Inputs.cls = cls) sample in
      if cls <> Inputs.Ladder then List.iter (fun q -> ignore (route q); ignore (served q)) qs;
      let route_med = median (List.map route qs) in
      let e2e_med = median (List.map served qs) in
      let name = Inputs.cls_name cls in
      set r ("serve.route_ms." ^ name) (1e3 *. route_med);
      set r ("serve.wire_ms." ^ name) (1e3 *. (e2e_med -. route_med)))
    [ Inputs.Catalog; Inputs.Ladder; Inputs.Amp ];
  let after = read_registry () in
  Client.close c;
  Server.stop server;
  Pool.shutdown pool;
  let qc, qs = histogram_delta before after "flames_engine_queue_wait_seconds" in
  set r "engine.queue_wait_ms" (1e3 *. ratio qs qc);
  set r "serve.shed_ratio" (ratio (float_of_int !shed) (float_of_int !sent));
  Layers.json_metrics r (List.map (fun (q : Inputs.request) -> q.Inputs.body) sample) !replies

(* The serve layer of both workloads: the passes above on the first
   requests of the seed's 4-second stream. *)
let probe_serve_layer r ~seed =
  let sample = layer_sample (Inputs.serve_requests ~seed ~seconds:4.) in
  serve_layer r sample (references (Array.of_list (List.map (fun q -> (0., q)) sample)))
