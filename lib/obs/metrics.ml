(* Process-global metrics registry.

   Counters and histograms are sharded: each metric holds a small fixed
   array of atomic cells and a writer picks the cell indexed by its
   domain id, so concurrent workers almost never contend on a cache
   line.  Reads merge the shards.  Everything is lock-free on the write
   path; only metric creation takes a mutex (and is idempotent, so
   module-initialisation order never matters). *)

let shard_count = 8

let shard_index () = (Domain.self () :> int) land (shard_count - 1)

type counter = { c_name : string; cells : int Atomic.t array }
type gauge = { g_name : string; cell : float Atomic.t }

(* [bounds] are inclusive upper bounds (Prometheus [le]); an implicit
   +infinity bucket follows.  [bucket_cells.(shard).(i)] counts the
   observations that landed in bucket [i] from that shard. *)
type histogram = {
  h_name : string;
  bounds : float array;
  bucket_cells : int Atomic.t array array;
  count_cells : int Atomic.t array;
  sum_cells : float Atomic.t array;
}

type metric = Counter_m of counter | Gauge_m of gauge | Histogram_m of histogram

let registry : (string, metric * string) Hashtbl.t = Hashtbl.create 64
let registry_mutex = Mutex.create ()

let with_registry f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

let kind_name = function
  | Counter_m _ -> "counter"
  | Gauge_m _ -> "gauge"
  | Histogram_m _ -> "histogram"

(* Idempotent registration: a second creation under the same name
   returns the first metric, so independent modules can share a metric
   by name.  Re-registering under a different kind is a programming
   error. *)
let register name help make match_kind =
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (m, _) -> begin
        match match_kind m with
        | Some v -> v
        | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %S already registered as a %s" name
               (kind_name m))
      end
      | None ->
        let v, m = make () in
        Hashtbl.replace registry name (m, help);
        v)

let counter ?(help = "") name =
  register name help
    (fun () ->
      let c =
        { c_name = name; cells = Array.init shard_count (fun _ -> Atomic.make 0) }
      in
      (c, Counter_m c))
    (function Counter_m c -> Some c | Gauge_m _ | Histogram_m _ -> None)

let incr ?(by = 1) c =
  ignore (Atomic.fetch_and_add c.cells.(shard_index ()) by)

let counter_value c =
  Array.fold_left (fun acc cell -> acc + Atomic.get cell) 0 c.cells

let counter_name c = c.c_name

let gauge ?(help = "") name =
  register name help
    (fun () ->
      let g = { g_name = name; cell = Atomic.make 0. } in
      (g, Gauge_m g))
    (function Gauge_m g -> Some g | Counter_m _ | Histogram_m _ -> None)

let gauge_set g v = Atomic.set g.cell v

let rec atomic_add_float cell v =
  let cur = Atomic.get cell in
  if not (Atomic.compare_and_set cell cur (cur +. v)) then atomic_add_float cell v

let gauge_add g v = atomic_add_float g.cell v
let gauge_value g = Atomic.get g.cell
let gauge_name g = g.g_name

(* Log-spaced decades from 1 µs to 10 s: wide enough for both a single
   MNA solve and a whole batch, cheap to scan linearly. *)
let default_buckets = [ 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.; 10. ]

let histogram ?(help = "") ?(buckets = default_buckets) name =
  let bounds = Array.of_list buckets in
  Array.iteri
    (fun i b ->
      if i > 0 && bounds.(i - 1) >= b then
        invalid_arg
          (Printf.sprintf "Metrics.histogram %S: buckets must be increasing"
             name))
    bounds;
  register name help
    (fun () ->
      let h =
        {
          h_name = name;
          bounds;
          bucket_cells =
            Array.init shard_count (fun _ ->
                Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0));
          count_cells = Array.init shard_count (fun _ -> Atomic.make 0);
          sum_cells = Array.init shard_count (fun _ -> Atomic.make 0.);
        }
      in
      (h, Histogram_m h))
    (function Histogram_m h -> Some h | Counter_m _ | Gauge_m _ -> None)

let bucket_of h v =
  let n = Array.length h.bounds in
  let rec find i = if i >= n then n else if v <= h.bounds.(i) then i else find (i + 1) in
  find 0

let observe h v =
  let s = shard_index () in
  ignore (Atomic.fetch_and_add h.bucket_cells.(s).(bucket_of h v) 1);
  ignore (Atomic.fetch_and_add h.count_cells.(s) 1);
  atomic_add_float h.sum_cells.(s) v

let time h f =
  let t0 = Unix.gettimeofday () in
  let finally () = observe h (Unix.gettimeofday () -. t0) in
  Fun.protect ~finally f

let histogram_count h =
  Array.fold_left (fun acc c -> acc + Atomic.get c) 0 h.count_cells

let histogram_sum h =
  Array.fold_left (fun acc c -> acc +. Atomic.get c) 0. h.sum_cells

(* Per-bucket (non-cumulative) counts; the +inf overflow bucket is the
   pair whose bound is [infinity]. *)
let histogram_buckets h =
  let n = Array.length h.bounds in
  List.init (n + 1) (fun i ->
      let bound = if i = n then infinity else h.bounds.(i) in
      let count =
        Array.fold_left
          (fun acc shard -> acc + Atomic.get shard.(i))
          0 h.bucket_cells
      in
      (bound, count))

let histogram_name h = h.h_name

type value =
  | Counter of int
  | Gauge of float
  | Histogram of { buckets : (float * int) list; count : int; sum : float }

type sample = { name : string; help : string; value : value }

let sample_of (m, help) =
  match m with
  | Counter_m c -> { name = c.c_name; help; value = Counter (counter_value c) }
  | Gauge_m g -> { name = g.g_name; help; value = Gauge (gauge_value g) }
  | Histogram_m h ->
    {
      name = h.h_name;
      help;
      value =
        Histogram
          {
            buckets = histogram_buckets h;
            count = histogram_count h;
            sum = histogram_sum h;
          };
    }

let snapshot () =
  let items =
    with_registry (fun () -> Hashtbl.fold (fun _ m acc -> m :: acc) registry [])
  in
  List.map sample_of items
  |> List.sort (fun a b -> String.compare a.name b.name)

let reset () =
  let items =
    with_registry (fun () -> Hashtbl.fold (fun _ (m, _) acc -> m :: acc) registry [])
  in
  List.iter
    (function
      | Counter_m c -> Array.iter (fun cell -> Atomic.set cell 0) c.cells
      | Gauge_m g -> Atomic.set g.cell 0.
      | Histogram_m h ->
        Array.iter (Array.iter (fun cell -> Atomic.set cell 0)) h.bucket_cells;
        Array.iter (fun cell -> Atomic.set cell 0) h.count_cells;
        Array.iter (fun cell -> Atomic.set cell 0.) h.sum_cells)
    items
