(** Dense linear algebra for the MNA solver. *)

exception Singular
(** Raised when the system matrix is (numerically) singular. *)

val solve : float array array -> float array -> float array
(** [solve a b] solves [a x = b] by {!Lu.factor} then {!Lu.resolve}:
    Gaussian elimination with partial pivoting under a scale-relative
    pivot threshold.  [a] and [b] are not modified.  The exception is
    for use inside [lib/sim]; library boundaries convert it (see
    [Flames_core.Err.of_exn]).
    @raise Singular when no acceptable pivot can be found.
    @raise Invalid_argument on dimension mismatch. *)
