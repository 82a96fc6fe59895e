(** The reference propagation engine: the interpreter that walks the
    constraint network directly (paper section 6.1), kept as the oracle
    the compiled {!Flames_core.Propagate} is diffed against.  It
    discovers the firing order per run, recomputes every consistency
    and guard degree from scratch and re-fires unconditionally, with
    the same enumeration orders, float-operation orders and budget
    charge points as the compiled engine. *)

type t

val diagnose :
  ?config:Flames_core.Model.config ->
  ?limits:Flames_core.Propagate.limits ->
  ?model:Flames_core.Model.t ->
  ?budget:Flames_core.Budget.t ->
  ?prediction_floor:float ->
  ?sensitivity_threshold:float ->
  ?prediction_degree:float ->
  ?simulate_predictions:bool ->
  Flames_circuit.Netlist.t ->
  Flames_core.Diagnose.observation list ->
  t Flames_core.Diagnose.outcome
(** {!Flames_core.Diagnose.run} with this engine in the prediction,
    first and guard passes, under one [budget], concluded by
    {!Flames_core.Diagnose.conclude}.  Nothing is cached: the
    sensitivity sweep and the prediction pass run on every call. *)
