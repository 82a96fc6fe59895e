(* A keep-alive HTTP client over the service's own [Http] framing, and the
   in-process server set-up the served workloads share. *)

module Http = Flames_serve.Http
module Server = Flames_serve.Server
module Router = Flames_serve.Router
module Admission = Flames_serve.Admission
module Pool = Flames_engine.Pool
module Cache = Flames_engine.Cache

type t = { mutable conn : Http.conn option; client_id : string; port : int }

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Http.conn fd

let create ~port client_id = { conn = None; client_id; port }

let close t =
  Option.iter
    (fun c -> try Unix.close (Http.fd c) with Unix.Unix_error _ -> ())
    t.conn;
  t.conn <- None

(* One round trip; [Error] on any connection or protocol failure (the
   connection is dropped and re-opened by the next call). *)
let request t ~meth ~path body =
  match
    let c =
      match t.conn with
      | Some c -> c
      | None ->
        let c = connect t.port in
        t.conn <- Some c;
        c
    in
    Http.write_request (Http.fd c)
      ~headers:[ ("X-Flames-Client", t.client_id) ]
      ~meth ~path body;
    Http.read_response c
  with
  | Ok r ->
    if Http.header r.Http.resp_headers "connection" = Some "close" then close t;
    Ok (r.Http.status, r.Http.resp_body)
  | Error _ ->
    close t;
    Error "protocol error"
  | exception (Unix.Unix_error (e, _, _)) ->
    close t;
    Error (Unix.error_message e)

let post t path body = request t ~meth:"POST" ~path body
let get t path = request t ~meth:"GET" ~path ""

let config ?journal_dir () =
  {
    Server.default_config with
    port = 0;
    workers = Common.workers;
    journal_dir;
  }

(* Wait until [/readyz] answers 200. *)
let await_ready port =
  let c = create ~port "flbench-probe" in
  let rec loop n =
    match get c "/readyz" with
    | Ok (200, _) -> ()
    | _ when n > 0 ->
      Thread.delay 0.001;
      loop (n - 1)
    | _ -> failwith "server never became ready"
  in
  Fun.protect ~finally:(fun () -> close c) (fun () -> loop 10_000)

(* In-process dependencies shaped like [Server.start]'s, for calling
   [Router.handle] without a socket. *)
let in_process_deps ?store () =
  let pool = Pool.create ~workers:Common.workers () in
  ( pool,
    {
      Router.pool;
      cache = Cache.create ();
      admission = Admission.create ~max_inflight:Server.default_config.Server.max_inflight ();
      sessions = Admission.Sessions.create ();
      store = ref store;
      ready = (fun () -> true);
      draining = (fun () -> false);
      default_wall = Server.default_config.Server.default_wall;
      max_wall = Server.default_config.Server.max_wall;
    } )

let post_request path body =
  {
    Http.meth = "POST";
    path;
    query = "";
    version = "HTTP/1.1";
    headers = [ ("content-type", "application/json") ];
    body;
  }

