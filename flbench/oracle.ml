(* The correctness side of the benchmark: every answer the program gives
   is compared against a reference the benchmark computes itself with
   the sequential library API.

   A served diagnosis arrives as JSON with 12-digit numbers, so served
   answers are compared on the same rendering: the reference result is
   rendered field by field into the reply's shape (everything but the
   timing field), and the reply is parsed and re-rendered over the same
   fields.  In-process results are compared on the library's bit-exact
   fingerprint instead. *)

module Json = Flames_serve.Json
module Diagnose = Flames_core.Diagnose
module Model = Flames_core.Model
module Q = Flames_circuit.Quantity
module Interval = Flames_fuzzy.Interval

let fingerprint = Flames_check.Oracle.result_fingerprint

let compared_fields =
  [ "healthy"; "degraded"; "symptoms"; "suspects"; "diagnoses"; "single_faults"; "summary" ]

let interval_json (v : Interval.t) =
  Json.Obj
    [
      ("m1", Json.Num v.Interval.m1);
      ("m2", Json.Num v.Interval.m2);
      ("alpha", Json.Num v.Interval.alpha);
      ("beta", Json.Num v.Interval.beta);
    ]

let served_shape (r : Diagnose.result) =
  let opt = function Some f -> Json.Num f | None -> Json.Null in
  let strs xs = Json.Arr (List.map (fun s -> Json.Str s) xs) in
  Json.to_string
    (Json.Obj
       [
         ("healthy", Json.Bool (Diagnose.healthy r));
         ("degraded", Json.Bool r.Diagnose.degraded);
         ( "symptoms",
           Json.Arr
             (List.map
                (fun (s : Diagnose.symptom) ->
                  Json.Obj
                    [
                      ("quantity", Json.Str (Q.to_string s.Diagnose.quantity));
                      ("dc", opt s.Diagnose.signed_dc);
                      ("measured", interval_json s.Diagnose.measured);
                    ])
                r.Diagnose.symptoms) );
         ( "suspects",
           Json.Arr
             (List.map
                (fun (s : Diagnose.suspect) ->
                  Json.Obj
                    [
                      ("component", Json.Str s.Diagnose.component);
                      ("suspicion", Json.Num s.Diagnose.suspicion);
                      ("explains", Json.Bool s.Diagnose.explains);
                    ])
                r.Diagnose.suspects) );
         ( "diagnoses",
           Json.Arr
             (List.map
                (fun (cs, rank) ->
                  Json.Obj [ ("components", strs cs); ("rank", Json.Num rank) ])
                r.Diagnose.diagnoses) );
         ( "single_faults",
           Json.Arr
             (List.map
                (fun (c, rank) ->
                  Json.Obj [ ("component", Json.Str c); ("rank", Json.Num rank) ])
                r.Diagnose.single_faults) );
         ("summary", Json.Str (Flames_core.Report.summary r));
       ])

(* The reply body re-rendered over [compared_fields]; [None] when the
   body is not a diagnosis. *)
let reply_shape body =
  match Json.parse_result body with
  | Error _ -> None
  | Ok j ->
    let fields = List.map (fun k -> (k, Json.mem k j)) compared_fields in
    if List.exists (fun (_, v) -> v = None) fields then None
    else
      Some
        (Json.to_string
           (Json.Obj (List.map (fun (k, v) -> (k, Option.get v)) fields)))

let reference ~trusted netlist observations =
  let config = { Model.default_config with trusted } in
  Diagnose.run ~config netlist observations

(* Propagation steps past which a diagnosis counts as runaway.  The
   generated ladders need at most a few hundred steps, except a rare few
   whose propagation runs on to the library's 100 000-step limit: tens
   of seconds, after which even the library's own answer is degraded.
   The service cuts such a request at its wall budget. *)
let step_cap = 2_000

(* [reference] when its propagation stays within [step_cap] steps, so
   that the cap never binds and the result is the uncapped one; [None]
   for a runaway input. *)
let bounded_reference ~trusted netlist observations =
  let config = { Model.default_config with trusted } in
  let limits = { Flames_core.Propagate.default_limits with max_steps = step_cap } in
  let r = Diagnose.run ~config ~limits netlist observations in
  if r.Diagnose.degraded then None else Some r

(* Whether a reply body is a diagnosis marked degraded. *)
let reply_degraded body =
  match Json.parse_result body with
  | Ok j -> Json.mem "degraded" j = Some (Json.Bool true)
  | Error _ -> false
