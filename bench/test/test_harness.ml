(* The bench harness: its statistics on fixed inputs, the ABBA order of
   the paired protocol, and the checker — every committed BENCH_*.json
   passes it, and a copy doctored against any one gate is rejected with
   that gate's message. *)

open Flames_bench
module Json = Flames_serve.Json

let load series =
  let path = "../../BENCH_" ^ series ^ ".json" in
  Json.parse (In_channel.with_open_bin path In_channel.input_all)

let stats () =
  let s = Harness.stats [ 5.; 1.; 4.; 2.; 3. ] in
  Alcotest.(check (pair (float 0.) (float 0.))) "odd" (3., 2.) (s.median, s.iqr);
  let s = Harness.stats [ 4.; 1.; 3.; 2. ] in
  Alcotest.(check (pair (float 1e-12) (float 1e-12)))
    "even" (2.5, 1.5) (s.median, s.iqr)

let abba () =
  let order = ref [] in
  let side tag ns i =
    order := Printf.sprintf "%s%d" tag i :: !order;
    ns
  in
  let p = Harness.paired ~pairs:4 (side "a" 10.) (side "b" 20.) in
  Alcotest.(check (list string))
    "ABBA" [ "a0"; "b0"; "b1"; "a1"; "a2"; "b2"; "b3"; "a3" ] (List.rev !order);
  Alcotest.(check (float 0.)) "ratio b/a" 2. p.ratio.median

(* {1 Doctoring} *)

let set k v = function
  | Json.Obj fs -> Json.Obj (List.map (fun (k', v') -> (k', if k' = k then v else v')) fs)
  | j -> j

let get k j = Option.get (Json.mem k j)
let num k j = Json.num (get k j)
let counter k v r = set "counters" (set k (Json.Num v) (get "counters" r)) r
let rows f j = set "rows" (Json.Arr (List.concat_map f (Option.get (Json.list_opt (get "rows" j))))) j
let edit p f = rows (fun r -> [ (if p r then f r else r) ])
let drop p = rows (fun r -> if p r then [] else [ r ])

let is ?variant ?n series r =
  Json.str (get "series" r) = series
  && Option.fold ~none:true ~some:(fun v -> Json.str (get "variant" r) = v) variant
  && Option.fold ~none:true ~some:(fun n -> num "n" r = float_of_int n) n

(* a speedup of [x] with its baseline moved to match *)
let speedup baseline x r = counter baseline (x *. num "ns_median" r) (counter "speedup" x r)

let doctored =
  [
    ("engine", "missing host record", (function
      | Json.Obj fs -> Json.Obj (List.remove_assoc "host" fs) | j -> j), "\"host\"");
    ("engine", "malformed row", edit (is "batch" ~n:1) (function
      | Json.Obj fs -> Json.Obj (fs @ [ ("extra", Json.Null) ]) | j -> j), "malformed row");
    ("atms", "missing cell", drop (is "nogood-churn" ~n:12), "one row per");
    ("atms", "skipped outside hitting-chain",
     edit (is "label-update" ~n:8) (set "variant" (Json.Str "skipped")), "only hitting-chain");
    ("atms", "no skipped row past n=20", (fun j ->
       drop (fun r -> num "n" r > 20.) j
       |> set "sizes" (Json.Arr (List.map (fun n -> Json.Num n) [ 8.; 12.; 16.; 20. ]))),
     "past n=20");
    ("atms", "speedup not naive/indexed", edit (is "label-update" ~n:8) (counter "speedup" 99.),
     "speedup is not");
    ("session", "sessions slower than cold", edit (fun _ -> true) (fun r ->
       counter "cold_ns" (0.5 *. num "ns_median" r) r), "slower than cold");
    ("session", "fig6 scenario missing", drop (is "fig6-amplifier-r2-short"), "fig6");
    ("session", "step list length", edit (is "fig7-diode-vf-high") (fun r ->
       set "counters" (set "session_step_ns" (Json.Arr [ Json.Num 1. ]) (get "counters" r)) r),
     "step count");
    ("obs", "overhead over 3%", edit (fun _ -> true) (counter "overhead_pct" 3.5), "3% budget");
    ("compile", "warm speedup floor",
     edit (is "fig7" ~variant:"warm") (speedup "interp_ns" 2.9), "below 3.0x");
    ("compile", "no fingerprint check", edit (is "fig7" ~n:1 ~variant:"cold")
       (counter "fingerprint_checks" 0.), "fingerprint");
    ("compile", "four fig-7 cases", drop (is "fig7" ~n:5), "five fig-7");
    ("compile", "speedup not interp/compiled", edit (is "amplifier-chain" ~n:2 ~variant:"cold")
       (counter "speedup" 99.), "speedup is not");
    ("store", "interval overhead over 15%", edit (is "append" ~variant:"interval")
       (counter "overhead_pct" 15.5), "breaches 15%");
    ("store", "always mode missing", drop (is "append" ~variant:"always"), "append modes");
    ("store", "recovery ops not increasing", edit (is "recovery" ~n:1024)
       (set "n" (Json.Num 8.)), "not increasing");
    ("store", "two sessions recovered", edit (is "recovery" ~n:16) (counter "sessions" 2.),
     "one session");
    ("store", "zero recovery time", edit (is "recovery" ~n:16) (set "ns_median" (Json.Num 0.)),
     "no positive timing");
    ("serve", "client levels", drop (is "serve" ~n:2), "client levels");
    ("serve", "errors", edit (is "serve" ~n:1) (counter "errors" 1.), "errors");
    ("serve", "protocol errors", edit (is "serve" ~n:1) (counter "protocol_errors" 1.), "errors");
    ("serve", "requests <> ok + shed", edit (is "serve" ~n:1) (counter "shed" 1e9), "ok + shed");
    ("serve", "percentiles out of order", edit (is "serve" ~n:1) (counter "p95_ns" 0.),
     "out of order");
  ]

let contains ~sub s =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let committed () =
  List.iter
    (fun s -> Alcotest.(check (result unit string)) s (Ok ()) (Check.doc (load s)))
    [ "engine"; "atms"; "session"; "obs"; "compile"; "store"; "serve" ]

let rejected (series, _, doctor, message) () =
  match Check.doc (doctor (load series)) with
  | Ok () -> Alcotest.fail "doctored file passed"
  | Error m -> if not (contains ~sub:message m) then Alcotest.failf "wrong gate: %s" m

let () =
  Alcotest.run "bench_harness"
    [
      ( "harness",
        [ Alcotest.test_case "median/iqr" `Quick stats; Alcotest.test_case "abba" `Quick abba ] );
      ( "check",
        Alcotest.test_case "committed files pass" `Quick committed
        :: List.map
             (fun ((series, what, _, _) as case) ->
               Alcotest.test_case (series ^ ": " ^ what) `Quick (rejected case))
             doctored );
    ]
