module Model = Flames_core.Model
module Schedule = Flames_core.Schedule
module Netlist = Flames_circuit.Netlist
module Component = Flames_circuit.Component
module Interval = Flames_fuzzy.Interval

type entry = { schedule : Schedule.t; mutable last_used : int }

(* A compile in progress: later callers of the same key wait on [done_]
   for the first caller's outcome instead of compiling again. *)
type flight = {
  done_ : Condition.t;
  mutable outcome : (Schedule.t, exn * Printexc.raw_backtrace) result option;
}

(* The per-instance counters are atomics, not plain fields: [stats]
   reads them without taking the cache mutex, and future lock-narrowing
   must not be able to lose increments under domain contention.  Each
   bump also feeds the process-global registry counterparts
   ([Telemetry.cache_*]), which is what traces and exporters read. *)
type t = {
  mutex : Mutex.t;
  table : (string, entry) Hashtbl.t;
  inflight : (string, flight) Hashtbl.t;
  capacity : int;
  mutable tick : int;
  hits : int Atomic.t;
  misses : int Atomic.t;
  evictions : int Atomic.t;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
}

let create ?(capacity = 64) () =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  {
    mutex = Mutex.create ();
    table = Hashtbl.create (2 * capacity);
    inflight = Hashtbl.create 8;
    capacity;
    tick = 0;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    evictions = Atomic.make 0;
  }

(* Floats are rendered in hex so the fingerprint is bit-exact: a 1e-9
   parameter shift (a fault, a tolerance tweak) must change the key. *)
let add_interval b (v : Interval.t) =
  Printf.bprintf b "[%h;%h;%h;%h]" v.Interval.m1 v.Interval.m2 v.Interval.alpha
    v.Interval.beta

let add_kind b (kind : Component.kind) =
  match kind with
  | Component.Resistor r ->
    Buffer.add_string b "R";
    add_interval b r
  | Component.Capacitor c ->
    Buffer.add_string b "C";
    add_interval b c
  | Component.Inductor l ->
    Buffer.add_string b "L";
    add_interval b l
  | Component.Voltage_source v ->
    Buffer.add_string b "V";
    add_interval b v
  | Component.Diode { forward_drop; max_current } ->
    Buffer.add_string b "D";
    add_interval b forward_drop;
    add_interval b max_current
  | Component.Gain_block g ->
    Buffer.add_string b "A";
    add_interval b g
  | Component.Bjt { beta; vbe } ->
    Buffer.add_string b "Q";
    add_interval b beta;
    add_interval b vbe

let add_component b (c : Component.t) =
  Printf.bprintf b "%s:" c.Component.name;
  add_kind b c.Component.kind;
  List.iter (fun (t, n) -> Printf.bprintf b ";%s=%s" t n) c.Component.nodes;
  Buffer.add_char b '|'

(* Version tag of the cached value representation.  v1 entries held
   compiled [Model.t]s; v2 holds [Schedule.t]s.  The tag leads the
   fingerprint input, so a process that ever shares serialized keys
   (or a future persistent cache) can never hand a schedule consumer a
   stale model entry: the representations live under disjoint keys and
   old-format entries simply age out through LRU eviction. *)
let schema_version = 2

let fingerprint ?schema ?(config = Model.default_config) netlist =
  let schema = match schema with Some s -> s | None -> schema_version in
  let b = Buffer.create 512 in
  Printf.bprintf b "schema:%d|" schema;
  Printf.bprintf b "net:%s;gnd:%s;ports:%s|" netlist.Netlist.name
    netlist.Netlist.ground
    (String.concat "," netlist.Netlist.ports);
  List.iter (add_component b) netlist.Netlist.components;
  Printf.bprintf b "cfg:%b;%b;%s" config.Model.node_assumptions config.Model.kcl
    (String.concat "," config.Model.trusted);
  Digest.to_hex (Digest.string (Buffer.contents b))

let evict_lru cache =
  while Hashtbl.length cache.table > cache.capacity do
    let victim =
      Hashtbl.fold
        (fun key entry acc ->
          match acc with
          | Some (_, best) when best.last_used <= entry.last_used -> acc
          | Some _ | None -> Some (key, entry))
        cache.table None
    in
    match victim with
    | Some (key, _) ->
      Hashtbl.remove cache.table key;
      Atomic.incr cache.evictions;
      Flames_obs.Metrics.incr Telemetry.cache_evictions_total
    | None -> ()
  done

(* Single flight: a miss registers the key as in flight and compiles
   outside the lock, so distinct keys compile in parallel; racing
   callers of the same key wait for that one compile and count as hits.
   A compile that raises caches nothing and hands its exception to
   every waiter. *)
let compile cache ?config netlist =
  let key = fingerprint ?config netlist in
  Mutex.lock cache.mutex;
  cache.tick <- cache.tick + 1;
  let tick = cache.tick in
  let hit schedule =
    Atomic.incr cache.hits;
    Flames_obs.Metrics.incr Telemetry.cache_hits_total;
    Flames_obs.Context.annotate "cache" (Flames_obs.Context.Str "hit");
    Mutex.unlock cache.mutex;
    schedule
  in
  let finish = function
    | Ok schedule -> schedule
    | Error (e, bt) -> Printexc.raise_with_backtrace e bt
  in
  match Hashtbl.find_opt cache.table key with
  | Some entry ->
    entry.last_used <- tick;
    hit entry.schedule
  | None -> (
    match Hashtbl.find_opt cache.inflight key with
    | Some flight -> (
      while Option.is_none flight.outcome do
        Condition.wait flight.done_ cache.mutex
      done;
      match flight.outcome with
      | Some (Ok schedule) -> hit schedule
      | Some (Error _ as failed) ->
        Mutex.unlock cache.mutex;
        finish failed
      | None -> assert false)
    | None ->
      Atomic.incr cache.misses;
      Flames_obs.Metrics.incr Telemetry.cache_misses_total;
      Flames_obs.Context.annotate "cache" (Flames_obs.Context.Str "miss");
      let flight = { done_ = Condition.create (); outcome = None } in
      Hashtbl.replace cache.inflight key flight;
      Mutex.unlock cache.mutex;
      let outcome =
        match Schedule.compile ?config netlist with
        | schedule -> Ok schedule
        | exception e -> Error (e, Printexc.get_raw_backtrace ())
      in
      Mutex.lock cache.mutex;
      Hashtbl.remove cache.inflight key;
      flight.outcome <- Some outcome;
      Condition.broadcast flight.done_;
      (match outcome with
      | Ok schedule ->
        Hashtbl.replace cache.table key { schedule; last_used = tick };
        evict_lru cache;
        Flames_obs.Metrics.gauge_set Telemetry.cache_resident
          (float_of_int (Hashtbl.length cache.table))
      | Error _ -> ());
      Mutex.unlock cache.mutex;
      finish outcome)

let stats cache =
  Mutex.lock cache.mutex;
  let size = Hashtbl.length cache.table in
  Mutex.unlock cache.mutex;
  {
    hits = Atomic.get cache.hits;
    misses = Atomic.get cache.misses;
    evictions = Atomic.get cache.evictions;
    size;
    capacity = cache.capacity;
  }

let clear cache =
  Mutex.lock cache.mutex;
  Hashtbl.reset cache.table;
  Mutex.unlock cache.mutex

let pp_stats ppf s =
  Format.fprintf ppf "hits %d, misses %d, evictions %d, resident %d/%d" s.hits
    s.misses s.evictions s.size s.capacity
