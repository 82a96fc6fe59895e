(** LU factors: the dense elimination behind {!Linalg.solve}, kept
    reusable for right-hand-side sweeps.

    {!factor} runs Gaussian elimination with partial pivoting under a
    {e scale-relative} pivot threshold, [1e-12 * max 1 ‖a‖∞]: MNA
    matrices mix conductances that span many decades, so an absolute
    threshold would call a regular all-gigaohm system singular and
    accept a garbage pivot in an all-milliohm one.  {!resolve} applies
    the recorded elimination to a right-hand side, so a sweep that
    re-solves many vectors against one matrix returns the same floats
    it would have returned solving each system from scratch.

    {!rank1_refresh} additionally answers small single-parameter matrix
    perturbations (A + u·vᵀ) from the same factors via
    Sherman–Morrison.  It is {e approximate} (not bit-identical to a
    fresh factorisation) and self-checks its residual; callers fall
    back to a full solve when it declines. *)

type t

val factor : float array array -> (t, [ `Singular ]) result
(** Factorise once; [Error `Singular] when no acceptable pivot can be
    found.
    @raise Invalid_argument when [a] is not square. *)

val resolve : t -> float array -> float array
(** Solve for one right-hand side against stored factors.
    @raise Invalid_argument on a right-hand side of the wrong length. *)

val rank1_refresh :
  t ->
  u:float array ->
  v:float array ->
  a':float array array ->
  float array ->
  float array option
(** [rank1_refresh t ~u ~v ~a' b] solves [(A + u·vᵀ) x = b] from the
    factors of [A] by Sherman–Morrison, where [a'] is the perturbed
    matrix (used only to verify the residual).  [None] when the update
    denominator is degenerate or the verified residual is too large —
    the caller must then factorise [a'] itself. *)

val residual_norm : float array array -> float array -> float array -> float
(** Infinity norm of [a x - b]. *)
