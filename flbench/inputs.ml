(* Seeded input generation for the three workloads.  Everything here is
   a pure function of the seed (plus the simulator, which is
   deterministic): the same seed gives byte-identical inputs, and the
   program under test only ever sees what these functions return. *)

module Rng = Flames_check.Rng
module Gen = Flames_check.Gen
module Netlist = Flames_circuit.Netlist
module Component = Flames_circuit.Component
module Fault = Flames_circuit.Fault
module Library = Flames_circuit.Library
module Parser = Flames_circuit.Parser
module Q = Flames_circuit.Quantity
module Interval = Flames_fuzzy.Interval
module Json = Flames_serve.Json
module Batch = Flames_engine.Batch
module Mna = Flames_sim.Mna
module Measure = Flames_sim.Measure

(* Fisher-Yates, in place. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* The instrument of the paper's fig-7 bench and of the service's
   simulated probes. *)
let instrument = { Measure.relative = 0.002; floor = 5e-4 }

(* A float as the service will see it after its trip through a JSON body
   (numbers are rendered with 12 significant digits). *)
let wire f = Json.num (Json.parse (Json.to_string (Json.Num f)))

let wire_interval (v : Interval.t) =
  Interval.make ~m1:(wire v.Interval.m1) ~m2:(wire v.Interval.m2)
    ~alpha:(wire v.Interval.alpha) ~beta:(wire v.Interval.beta)

let interval_fields (v : Interval.t) =
  [
    ("m1", Json.Num v.Interval.m1);
    ("m2", Json.Num v.Interval.m2);
    ("alpha", Json.Num v.Interval.alpha);
    ("beta", Json.Num v.Interval.beta);
  ]

let node_voltages quantities =
  List.filter_map
    (fun (q, v) -> match q with Q.Node_voltage n -> Some (n, v) | _ -> None)
    quantities

let simulate ?(probes = []) nominal faulty =
  let quantities =
    match probes with
    | [] ->
      List.filter
        (function Q.Node_voltage _ -> true | _ -> false)
        (Library.probe_points nominal)
    | ps -> List.map Q.voltage ps
  in
  Measure.probe_all ~instrument (Mna.solve faulty) quantities

(* {1 fig7-batch} *)

let fig7_probes = [ "vs"; "n2"; "v1" ]

(* The seeded part of the batch: catalog modes, whose faulty values are
   fixed by the mode, and parametric drifts on fixed components and
   directions whose size (2.5-3.5 %) the seed draws.  The design is fixed
   so that the cost of the job set, which sets every latency of the
   workload, stays put from seed to seed while the inputs differ. *)
let fig7_catalog =
  [ ("r1", "R", Fault.Low); ("r3", "R", Fault.Short); ("r4", "R", Fault.Low); ("r3", "R", Fault.Open); ("r5", "R", Fault.High) ]

let fig7_drifts = [ ("r1", "R", 1.); ("r3", "R", -1.); ("r4", "R", 1.); ("r2", "R", -1.); ("t2", "beta", -1.); ("r5", "R", 1.) ]
let fig7_seeded = List.length fig7_catalog + List.length fig7_drifts

(* The paper's defects come first in the job array. *)
let fig7_paper = List.length Flames_experiments.Fig7.scenarios

let fault_label (f : Fault.t) = Format.asprintf "%a" Fault.pp f

(* The five paper defects plus [fig7_seeded] seeded faults on the same
   amplifier (tolerance, trust and probes of the fig-7 bench). *)
let fig7_jobs ~seed =
  let paper = Flames_experiments.Fig7.jobs () in
  let first = List.hd paper in
  let nominal = first.Batch.netlist in
  let config = Option.get first.Batch.config in
  let rng = Rng.make (Rng.case_seed ~seed ~case:7) in
  let drift (component, parameter, sign) =
    let c = Netlist.find nominal component in
    let v = Interval.centroid (Component.nominal_parameter c parameter) in
    Fault.make ~component ~parameter
      (Fault.Shifted (v *. (1. +. (sign *. Rng.range rng 0.025 0.035))))
  in
  let faults =
    List.map (fun (component, parameter, mode) -> Fault.make ~component ~parameter mode) fig7_catalog
    @ List.map drift fig7_drifts
  in
  let seeded =
    List.map
      (fun fault ->
        let obs = simulate ~probes:fig7_probes nominal (Fault.inject nominal fault) in
        Batch.job ~label:(fault_label fault) ~config nominal obs)
      faults
  in
  Array.of_list (paper @ seeded)

(* {1 The serve-layer stream} *)

type cls = Catalog | Ladder | Amp

let cls_name = function Catalog -> "catalog" | Ladder -> "ladder" | Amp -> "amp"

type request = {
  cls : cls;
  body : string;
  nominal : Netlist.t;
  observations : (Q.t * Interval.t) list;
      (** what the service will diagnose: simulated from the fault, or
          the posted observations as the service parses them *)
  trusted : string list;
}

(* Requests per second of the stream; the serve layer pass takes the
   first requests of a 4-second stream (see METRICS.md). *)
let serve_rate = 15.

(* Every block of 40 consecutive requests holds exactly these counts, in
   a seeded order, so the class mix of a run does not vary with the
   seed.  The shares follow the service's own load generator
   ([Loadgen.request_body]: a quarter ladders, the rest catalog), with
   one catalog request per block given to the amplifier class, which the
   load generator does not send. *)
let block = [ (Catalog, 29); (Ladder, 10); (Amp, 1) ]
let block_size = List.fold_left (fun a (_, k) -> a + k) 0 block
let shares = List.map (fun (c, k) -> (c, float_of_int k /. float_of_int block_size)) block

(* [Loadgen]'s catalog. *)
let catalog_faults =
  [
    ("divider", Some "r2.R=short");
    ("divider", Some "r1.R=high");
    ("divider", Some "r2.R=3300");
    ("divider", None);
    ("diode", Some "r1.R=open");
    ("diode", None);
  ]

let amp_faults = [ "r2.R=short"; "r3.R=open"; "r5.R=low"; "t2.beta=low"; "r4.R=high" ]

let builtin name = (List.assoc name Library.builtins) ()

(* Every request asks for a 5 s wall budget instead of the service's
   2 s default: on a busy host an amplifier diagnosis has taken 2 s, and
   a request cut by its budget is answered degraded, which no reference
   matches.  Runaway inputs (see [Oracle.step_cap]) are still cut. *)
let budget = ("budget_ms", Json.Num 5000.)

let builtin_request cls ~circuit ~fault ~probes ~trusted =
  let nominal = builtin circuit in
  let faulty =
    match fault with
    | None -> nominal
    | Some spec -> Fault.inject nominal (Result.get_ok (Fault.of_spec spec))
  in
  let strs xs = Json.Arr (List.map (fun s -> Json.Str s) xs) in
  let body =
    Json.Obj
      (List.concat
         [
           [ ("circuit", Json.Str circuit) ];
           (match fault with Some f -> [ ("fault", Json.Str f) ] | None -> []);
           (if probes = [] then [] else [ ("probes", strs probes) ]);
           (if trusted = [] then [] else [ ("trusted", strs trusted) ]);
           [ budget ];
         ])
  in
  {
    cls;
    body = Json.to_string body;
    nominal;
    observations = simulate ~probes nominal faulty;
    trusted;
  }

(* {2 Design ladders}

   A Gen ladder's diagnosis cost grows a hundredfold from one rung to
   four, and severalfold more with its tolerances, instrument and fault.
   Drawn freely, a few heavy ladders decide a run's latencies and the
   figures move with the seed.  Both served workloads therefore build
   their ladders on a fixed design that keeps Gen's distribution: the
   [k]-th ladder takes the [k]-th of the shapes below, (rungs, shunts),
   one to four rungs equally often with about Gen's 70 % shunt rate (the
   last rung always has one), and its tolerance, imprecision and fault
   mode cycle through Gen's values; the seed draws the resistor values,
   the source and the faulty rung. *)

let ladder_shapes = [ (1, 1); (2, 2); (3, 2); (4, 3); (1, 1); (2, 1); (3, 3); (4, 4) ]
let resistor_values = [ 100.; 220.; 470.; 1000.; 2200.; 4700.; 10_000.; 22_000. ]
let source_values = [ 1.5; 3.3; 5.; 9.; 12.; 15. ]
let tolerance_values = [ 0.001; 0.005; 0.01; 0.02; 0.05 ]
let imprecision_values = [ 0.; 0.002; 0.005; 0.01 ]
let fault_modes = [ None; Some `Short; Some `Open; Some `Low; Some `High; Some `Shifted ]
let nth l i = List.nth l (i mod List.length l)

let design_ladder rng (rungs, shunts) i =
  {
    Gen.source = Rng.choose rng source_values;
    tolerance = nth tolerance_values i;
    imprecision = nth imprecision_values i;
    rungs =
      List.init rungs (fun r ->
          {
            Gen.series = Rng.choose rng resistor_values;
            shunt = (if r >= rungs - shunts then Some (Rng.choose rng resistor_values) else None);
          });
  }

let design_fault rng (ladder : Gen.ladder) k =
  Option.map
    (fun m ->
      let rung = Rng.int rng (List.length ladder.Gen.rungs) in
      let target = List.nth ladder.Gen.rungs rung in
      let on_shunt = target.Gen.shunt <> None && Rng.bool rng in
      let nominal = if on_shunt then Option.get target.Gen.shunt else target.Gen.series in
      let mode =
        match m with
        | `Short -> Fault.Short
        | `Open -> Fault.Open
        | `Low -> Fault.Low
        | `High -> Fault.High
        | `Shifted -> Fault.Shifted (Float.round (nominal *. (0.3 +. Rng.float rng 2.7)))
      in
      { Gen.rung; on_shunt; mode })
    (nth fault_modes k)

(* The [k]-th ladder request: a fresh design ladder shipped as netlist
   text with client-side simulated observations of every node, a
   guaranteed cache miss on the service. *)
let ladder_request rng k =
  let ladder = design_ladder rng (nth ladder_shapes k) (k / List.length ladder_shapes) in
  let nodes = List.length ladder.Gen.rungs + 1 in
  let spec = { Gen.ladder; fault = design_fault rng ladder k; probes = List.init nodes Fun.id } in
  let nominal, _ = Gen.scenario_netlists spec in
  let text = Parser.to_string nominal in
  let nominal = Result.get_ok (Parser.parse text) in
  let observations =
    node_voltages (Gen.scenario_observations spec)
    |> List.map (fun (n, v) -> (n, wire_interval v))
  in
  let body =
    Json.Obj
      [
        ("netlist", Json.Str text);
        ( "observations",
          Json.Arr
            (List.map
               (fun (n, v) -> Json.Obj (("node", Json.Str n) :: interval_fields v))
               observations) );
        budget;
      ]
  in
  {
    cls = Ladder;
    body = Json.to_string body;
    nominal;
    observations = List.map (fun (n, v) -> (Q.voltage n, v)) observations;
    trusted = [];
  }

let request cls ~index rng =
  match cls with
  | Catalog ->
    let circuit, fault = Rng.choose rng catalog_faults in
    builtin_request Catalog ~circuit ~fault ~probes:[] ~trusted:[]
  | Amp ->
    builtin_request Amp ~circuit:"amplifier"
      ~fault:(Some (nth amp_faults index))
      ~probes:fig7_probes ~trusted:[ "vcc" ]
  | Ladder -> ladder_request rng index

(* The requests of a [seconds]-long run: [serve_rate * seconds] of them,
   one in each [1 / serve_rate] slot at a seeded offset within the slot
   (seconds from the start).  Poisson arrivals would let the seed decide
   the bursts, and with them the median latency (4.7 to 7.2 ms over five
   seeds at 50 requests/s).  Amp requests cycle through [amp_faults], ladder requests
   through the ladder design. *)
let serve_requests ~seed ~seconds =
  let n = int_of_float (serve_rate *. seconds) in
  let order = Rng.make (Rng.case_seed ~seed ~case:1_000_004) in
  let classes =
    Array.concat
      (List.init ((n / block_size) + 1) (fun _ ->
           shuffle order (Array.of_list (List.concat_map (fun (c, k) -> List.init k (fun _ -> c)) block))))
  in
  let arrivals = Rng.make (Rng.case_seed ~seed ~case:1_000_003) in
  let times = Array.init n (fun i -> (float_of_int i +. Rng.float arrivals 1.) /. serve_rate) in
  let seen = Hashtbl.create 3 in
  Array.init n (fun i ->
      let cls = classes.(i) in
      let index = Option.value (Hashtbl.find_opt seen cls) ~default:0 in
      Hashtbl.replace seen cls (index + 1);
      (times.(i), request cls ~index (Rng.make (Rng.case_seed ~seed ~case:i))))

(* {1 session-journal} *)

type op =
  | Add of { node : string; iv : Interval.t; mid : int }
  | Retract of int
  | Refine of { mid : int; iv : Interval.t }
  | Diagnoses of (Q.t * Interval.t) list
      (** the surviving measurements at this point, insertion order *)
  | Next

type source = Builtin of string | Inline of string

type script = {
  label : string;
  source : source;
  netlist : Netlist.t;
  ops : op list;  (** ends with a [Diagnoses] and a [Next] *)
}

let create_body s =
  Json.to_string
    (Json.Obj
       [
         (match s.source with
         | Builtin n -> ("circuit", Json.Str n)
         | Inline t -> ("netlist", Json.Str t));
       ])

let op_body = function
  | Add { node; iv; _ } -> Json.to_string (Json.Obj (("node", Json.Str node) :: interval_fields iv))
  | Retract mid -> Json.to_string (Json.Obj [ ("id", Json.Num (float_of_int mid)) ])
  | Refine { mid; iv } ->
    Json.to_string (Json.Obj (("id", Json.Num (float_of_int mid)) :: interval_fields iv))
  | Diagnoses _ | Next -> "{}"

let op_path = function
  | Add _ -> "measure"
  | Retract _ -> "retract"
  | Refine _ -> "refine"
  | Diagnoses _ -> "diagnoses"
  | Next -> "next"

(* The writes of a script of [n] writes, in a fixed order that never
   retracts or refines an empty session. *)
let write_pattern = [| `Add; `Add; `Refine; `Add; `Retract; `Add; `Refine |]

(* Build a script's ops against a measurement pool exactly as the
   service will interpret them: ids are assigned 1, 2, ... in order;
   retract and refine address a seeded survivor.  A [Diagnoses] follows
   every second write and the last one, then one [Next]: every
   diagnoses step therefore follows a write, and the op mix of a script
   depends only on its number of writes. *)
let script_ops rng pool n_writes =
  let survivors = ref [] and next_id = ref 1 and ops = ref [] in
  let emit op = ops := op :: !ops in
  let pick () = List.nth !survivors (Rng.int rng (List.length !survivors)) in
  for w = 0 to n_writes - 1 do
    (match write_pattern.(w) with
    | `Add ->
      let node, iv = List.nth pool (Rng.int rng (List.length pool)) in
      let mid = !next_id in
      incr next_id;
      survivors := !survivors @ [ (mid, Q.voltage node, iv) ];
      emit (Add { node; iv; mid })
    | `Retract ->
      let mid, _, _ = pick () in
      survivors := List.filter (fun (m, _, _) -> m <> mid) !survivors;
      emit (Retract mid)
    | `Refine ->
      let mid, q, (v : Interval.t) = pick () in
      let iv =
        wire_interval
          (Interval.make ~m1:v.Interval.m1 ~m2:v.Interval.m2 ~alpha:(v.Interval.alpha /. 2.)
             ~beta:(v.Interval.beta /. 2.))
      in
      survivors := List.map (fun (m, q', w) -> if m = mid then (m, q, iv) else (m, q', w)) !survivors;
      emit (Refine { mid; iv }));
    if w mod 2 = 1 || w = n_writes - 1 then
      emit (Diagnoses (List.map (fun (_, q, v) -> (q, v)) !survivors))
  done;
  emit Next;
  List.rev !ops

let builtin_scripts =
  [ ("divider", None); ("divider", Some "r2.R=short"); ("divider", Some "r1.R=high"); ("diode", None); ("diode", Some "r1.R=open") ]

(* Session ladders keep to one and two rungs, so that session and store
   work, not propagation, dominates the steps.  With the full cycle of
   [ladder_shapes] a [diagnoses] step took 27 ms at the median instead
   of 4 ms, and over five seeds [p50_ms] and [recover_s] spread by 0.28
   and 0.31 of their medians (see METRICS.md). *)
let session_shapes = [ (1, 1); (2, 1); (2, 2) ]

(* The session set: [ladders_per_shape] design ladders of each shape,
   each carrying [variants] scripts whose fault mode and length cycle
   through all modes (and none) and 1-7 writes; the seed draws the
   values, the faulty rungs and every measurement.
   Two four-write scripts per builtin board complete the set.  There are
   more distinct ladders than the service's compiled-schedule cache
   holds, so ladder sessions mostly compile afresh; for ladders this
   small that costs well under a millisecond. *)
let ladders_per_shape = 60
let variants = 3

let session_scripts ~seed =
  let rng = Rng.make (Rng.case_seed ~seed ~case:2_000_003) in
  (* one ladder of a shape, and its [variants] scripts *)
  let ladder_scripts shape i =
    let ladder = design_ladder rng shape i in
    List.init variants (fun v ->
        let k = (variants * i) + v in
        let scenario = { Gen.ladder; fault = design_fault rng ladder k; probes = [ 0 ] } in
        let nominal, _ = Gen.scenario_netlists scenario in
        let text = Parser.to_string nominal in
        let pool =
          node_voltages (Gen.session_pool scenario) |> List.map (fun (n, v) -> (n, wire_interval v))
        in
        {
          label = "ladder";
          source = Inline text;
          netlist = Result.get_ok (Parser.parse text);
          ops = script_ops rng pool (1 + (k mod 7));
        })
  in
  let board (circuit, fault) =
    let nominal = builtin circuit in
    let faulty =
      match fault with
      | None -> nominal
      | Some spec -> Fault.inject nominal (Result.get_ok (Fault.of_spec spec))
    in
    let pool = node_voltages (simulate nominal faulty) |> List.map (fun (n, v) -> (n, wire_interval v)) in
    { label = circuit; source = Builtin circuit; netlist = nominal; ops = script_ops rng pool 4 }
  in
  let ladders =
    List.concat_map
      (fun shape -> List.concat (List.init ladders_per_shape (ladder_scripts shape)))
      session_shapes
  in
  let boards = List.concat_map (fun b -> [ board b; board b ]) builtin_scripts in
  (* interleave so that every stretch of the loop sees every kind *)
  shuffle rng (Array.of_list (ladders @ boards))

(* {1 Fingerprints for the determinism test} *)

let digest_fig7 jobs =
  Array.to_list jobs
  |> List.map (fun (j : Batch.job) ->
         j.Batch.label ^ "|" ^ Parser.to_string j.Batch.netlist ^ "|"
         ^ String.concat ";"
             (List.map
                (fun (q, (v : Interval.t)) ->
                  Printf.sprintf "%s=%h,%h,%h,%h" (Q.to_string q) v.Interval.m1
                    v.Interval.m2 v.Interval.alpha v.Interval.beta)
                j.Batch.observations))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let digest_serve reqs =
  Array.to_list reqs
  |> List.map (fun (t, r) -> Printf.sprintf "%h %s %s" t (cls_name r.cls) r.body)
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let digest_sessions scripts =
  Array.to_list scripts
  |> List.map (fun s ->
         create_body s ^ " "
         ^ String.concat " "
             (List.map (fun op -> op_path op ^ op_body op) s.ops))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex
