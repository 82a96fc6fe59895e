(** Memoization of {!Flames_core.Schedule.compile} keyed by a
    structural fingerprint of [(netlist, config)].

    Repeated diagnoses of the same topology — fault dictionaries,
    parameter sweeps, fig-7 reruns — recompile an identical constraint
    model every time; this cache makes the second and later compilations
    free.  The cached value is the {e compiled schedule} (the flat
    preplanned form the fast propagation path executes), so every
    consumer — [Diagnose.run], sessions, batches, the service — rides
    the compiled path and shares the schedule's memoized sensitivity
    report and consistency memo.  Schedules are safely shared by
    concurrent {!Pool} workers.  The cache itself is thread-safe and
    evicts least-recently-used entries beyond its capacity. *)

module Model = Flames_core.Model
module Schedule = Flames_core.Schedule
module Netlist = Flames_circuit.Netlist

type t

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;  (** entries currently resident *)
  capacity : int;
}

val create : ?capacity:int -> unit -> t
(** Fresh cache holding at most [capacity] compiled models
    (default 64).
    @raise Invalid_argument if [capacity < 1]. *)

val schema_version : int
(** Version tag of the cached value representation, mixed into every
    fingerprint.  Bumped when the representation changes (v1: compiled
    models, v2: compiled schedules), so entries written under an older
    representation live under disjoint keys — they can never be
    returned to a consumer expecting the new one, and age out via LRU
    eviction. *)

val fingerprint : ?schema:int -> ?config:Model.config -> Netlist.t -> string
(** Structural fingerprint of the compilation input: an MD5 digest over
    the {!schema_version} tag, the netlist name, ground, ports, every
    component (name, kind, hex-exact parameter fuzzy intervals,
    terminal wiring) in netlist order, and every {!Model.config} field.
    Two inputs with equal fingerprints compile to structurally
    identical schedules; any fault injection, tolerance change, config
    change or representation change yields a different fingerprint.
    [?schema] (default {!schema_version}) exists for tests probing the
    mismatch path. *)

val compile : t -> ?config:Model.config -> Netlist.t -> Schedule.t
(** [compile cache netlist] returns the cached compiled schedule for
    the input's fingerprint, compiling (and caching) it on a miss.
    Single flight: one compile per key, however many domains ask at
    once; the others wait for it and count as hits.  If that compile
    raises, every waiter gets the same exception and nothing is cached.
    Drop-in replacement for [Schedule.compile]. *)

val stats : t -> stats

val clear : t -> unit
(** Evict everything; counters are kept. *)

val pp_stats : Format.formatter -> stats -> unit
