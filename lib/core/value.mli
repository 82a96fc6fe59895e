(** Propagated values.

    A value attached to a quantity carries the fuzzy interval itself, the
    assumption environment under which it was derived, a believability
    degree (min over the certainty degrees of the clauses used), its
    provenance, and an {e observational} flag — whether a measurement
    participates in its derivation.  The flag orients the degree of
    consistency: at a coincidence, [Dc] is taken with the observational
    value as [Vm] and the model-side value as [Vn] (paper section 6.1.2);
    between two values of the same side, the worst of both directions is
    used, following the paper's coincidence-resolution rule. *)

module Interval = Flames_fuzzy.Interval
module Env = Flames_atms.Env

type origin =
  | Measured  (** an observation entered by the user or the test bench *)
  | Given  (** a nominal parameter value from the component database *)
  | Bound  (** a model inequality such as the diode current bound *)
  | Derived of string  (** computed by the named constraint *)

module History : Set.S with type elt = string
(** Names of the constraints used in a value's derivation.  A constraint
    never fires on an antecedent whose history already contains it: this
    blocks "echo" derivations where a value is pushed through a relation
    and back, which would otherwise manufacture spurious self-conflicts. *)

type t = {
  interval : Interval.t;
  env : Env.t;
  degree : float;
  origin : origin;
  observational : bool;
  history : History.t;
}

val measured : Interval.t -> t

val given : ?degree:float -> Interval.t -> Env.t -> t
(** [degree] defaults to 1; simulator-derived predictions pass a lower
    degree because they are linearisations at the nominal operating
    point (see {!Diagnose.run}). *)

val bound : Interval.t -> Env.t -> t

val derived :
  string ->
  Interval.t ->
  Env.t ->
  float ->
  observational:bool ->
  history:History.t ->
  t

val is_measured : t -> bool

val strength : t -> t -> int
(** Preference order used when a cell overflows: measured values first,
    then tighter intervals, then smaller environments.  [strength a b < 0]
    when [a] is preferred. *)

val subsumes : t -> t -> bool
(** [subsumes a b] when [a] makes [b] redundant: same-or-tighter interval
    under a subset environment and a subset history, with at least the
    degree, on the same side (observational or model). *)

val tightest : ?observational:bool -> t list -> t option
(** The narrowest value of the list, the earliest among equally narrow
    ones; with [~observational] restricted to that side ([true] =
    measurement-derived, [false] = model predictions). *)

val pp : names:(int -> string) -> Format.formatter -> t -> unit
