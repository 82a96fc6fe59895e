(** Process-global metrics registry: named counters, gauges and
    fixed-bucket histograms.

    Writes are lock-free and domain-safe: counters and histograms keep a
    small array of atomic shards indexed by the writing domain's id and
    merge them on read, so concurrent {!Flames_engine.Pool} workers do
    not contend.  Creation is idempotent — asking twice for the same
    name returns the same metric — and takes the only lock in the
    module, so metrics are typically created once at module
    initialisation and used forever.

    Metrics are always on: an increment costs one atomic fetch-and-add
    on a private shard.  Span-level tracing, which costs more, lives in
    {!Trace} behind an enable flag. *)

(** {1 Counters} *)

type counter

val counter : ?help:string -> string -> counter
(** Find-or-create the monotonically increasing counter [name].
    @raise Invalid_argument if [name] exists with a different kind. *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int
val counter_name : counter -> string

(** {1 Gauges} *)

type gauge

val gauge : ?help:string -> string -> gauge
val gauge_set : gauge -> float -> unit
val gauge_add : gauge -> float -> unit
val gauge_value : gauge -> float
val gauge_name : gauge -> string

(** {1 Histograms} *)

type histogram

val default_buckets : float list
(** Log-spaced latency bounds in seconds: [1e-6 … 10.]. *)

val histogram : ?help:string -> ?buckets:float list -> string -> histogram
(** Find-or-create a histogram with the given inclusive upper-bound
    buckets (Prometheus [le] semantics); an overflow (+infinity) bucket
    is implicit.  [buckets] of a pre-existing histogram are ignored.
    @raise Invalid_argument on non-increasing [buckets] or a kind
    mismatch. *)

val observe : histogram -> float -> unit

val time : histogram -> (unit -> 'a) -> 'a
(** Run the thunk and observe its wall-clock duration in seconds (also
    on exception). *)

val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val histogram_buckets : histogram -> (float * int) list
(** Per-bucket (non-cumulative) counts as [(upper_bound, count)]; the
    overflow bucket's bound is [infinity]. *)

val histogram_name : histogram -> string

(** {1 Registry snapshot} *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of { buckets : (float * int) list; count : int; sum : float }

type sample = { name : string; help : string; value : value }

val snapshot : unit -> sample list
(** Every registered metric, merged across shards, sorted by name.
    Concurrent writers may be mid-update; each individual cell read is
    atomic but the snapshot as a whole is not (a histogram's [sum] can
    be momentarily ahead of its [count]). *)

val reset : unit -> unit
(** Zero every registered metric (the metrics stay registered).  Meant
    for tests; resetting while another domain writes loses no structure
    but the lost increments are unspecified. *)
