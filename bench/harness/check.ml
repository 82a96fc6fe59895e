(* The schema and gate checker behind [bench/main.exe --check FILE...].
   Every BENCH_*.json must carry the host record and well-formed rows;
   each series then has its own structural and gate assertions.  The
   thresholds live here, never in the file being checked. *)

module Json = Flames_serve.Json

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt
let need ok fmt = Printf.ksprintf (fun m -> if not ok then raise (Bad m)) fmt

type row = {
  series : string;
  variant : string;
  n : int;
  median : float;
  counters : (string * Json.t) list;
}

let field k j = match Json.mem k j with Some v -> v | None -> bad "missing %S" k
let num k j = match field k j with Json.Num x -> x | _ -> bad "%S: not a number" k
let str k j = match field k j with Json.Str s -> s | _ -> bad "%S: not a string" k
let is_num = function Json.Num _ -> true | _ -> false
let where r = Printf.sprintf "%s/%s n=%d" r.series r.variant r.n

let row j =
  let keys = match j with Json.Obj fs -> List.map fst fs | _ -> [] in
  need
    (keys = [ "series"; "variant"; "n"; "ns_median"; "ns_iqr"; "counters" ])
    "malformed row %s" (Json.to_string j);
  let counters =
    match field "counters" j with Json.Obj cs -> cs | _ -> bad "counters: not an object"
  in
  List.iter
    (function
      | _, Json.Num _ -> ()
      | _, Json.Arr xs when List.for_all is_num xs -> ()
      | k, _ -> bad "counter %S: not a number or number list" k)
    counters;
  let n = num "n" j in
  let r =
    { series = str "series" j; variant = str "variant" j; n = int_of_float n;
      median = num "ns_median" j; counters }
  in
  need (Float.is_integer n && n >= 0.) "%s: n is not a count" (where r);
  need
    (num "ns_iqr" j >= 0. && (r.median > 0. || r.variant = "skipped"))
    "%s: no positive timing" (where r);
  r

let counter r k =
  match List.assoc_opt k r.counters with
  | Some (Json.Num x) -> x
  | _ -> bad "%s: no counter %S" (where r) k

let length r k =
  match List.assoc_opt k r.counters with
  | Some (Json.Arr xs) -> List.length xs
  | _ -> bad "%s: no list %S" (where r) k

(* the tolerance of the two-decimal speedups the files used to print *)
let ratio_is r ~baseline =
  need
    (Float.abs (counter r "speedup" -. (counter r baseline /. r.median)) < 0.02)
    "%s: speedup is not %s / ns_median" (where r) baseline

(* {1 Series gates} *)

let atms doc rows =
  let sizes =
    match field "sizes" doc with
    | Json.Arr l when List.for_all is_num l -> List.map (fun s -> int_of_float (Json.num s)) l
    | _ -> bad "sizes: not a number list"
  in
  let names = [ "label-update"; "nogood-churn"; "hitting-chain" ] in
  let cells = List.concat_map (fun s -> List.map (fun n -> (s, n)) sizes) names in
  need
    (List.sort compare (List.map (fun r -> (r.series, r.n)) rows) = List.sort compare cells)
    "atms: expected exactly one row per (series, size) cell";
  List.iter
    (fun r ->
      if r.variant <> "skipped" then ratio_is r ~baseline:"naive_ns"
      else need (r.series = "hitting-chain") "%s: only hitting-chain skips" (where r))
    rows;
  need
    (List.exists (fun r -> r.variant = "skipped" && r.n > 20) rows)
    "atms: expected the hitting-chain skipped row past n=20"

let session rows =
  List.iter
    (fun r ->
      need
        (r.n > 0 && length r "cold_step_ns" = r.n && length r "session_step_ns" = r.n)
        "%s: step count differs from its per-step lists" (where r))
    rows;
  List.iter
    (fun s -> need (List.exists (fun r -> r.series = s) rows) "session: no %s row" s)
    [ "fig6-amplifier-r2-short"; "fig7-diode-vf-high" ];
  let total f = List.fold_left (fun acc r -> acc +. f r) 0. rows in
  let speedup = total (fun r -> counter r "cold_ns") /. total (fun r -> r.median) in
  need (speedup > 1.0) "session: sessions slower than cold rebuilds (%.2fx)" speedup

let obs rows =
  List.iter
    (fun r ->
      let o = counter r "overhead_pct" in
      need (o < 3.0) "obs: overhead %.2f%% breaches the 3%% budget" o)
    rows

(* The floor catches a fast path that stopped being fast.  The >= 5x
   claim of a full-protocol file is read off it, not gated: on a 2-core
   host the same code's fig-7 median warm speedup spreads over
   4.6-5.6x from run to run. *)
let compile rows =
  need
    (List.sort_uniq compare (List.map (fun r -> r.series) rows) = [ "amplifier-chain"; "fig7" ])
    "compile: expected the fig7 and amplifier-chain series";
  List.iter
    (fun r ->
      need (counter r "fingerprint_checks" >= 1.)
        "%s: timed without a fingerprint check against the reference" (where r);
      ratio_is r ~baseline:"interp_ns")
    rows;
  let warm =
    List.filter_map
      (fun r ->
        if r.series = "fig7" && r.variant = "warm" then Some (counter r "speedup") else None)
      rows
  in
  need (List.length warm = 5) "compile: expected five fig-7 warm rows";
  let med = Harness.median warm in
  need (med >= 3.0) "compile: fig-7 median warm speedup %.2fx below 3.0x" med

(* 15 % is the ceiling for noisy runners; the <= 5 % claim is read off
   the committed file, not gated. *)
let store rows =
  let part s = List.filter (fun r -> r.series = s) rows in
  let append = part "append" and recovery = part "recovery" in
  need
    (List.length append + List.length recovery = List.length rows)
    "store: rows outside the append and recovery series";
  need
    (List.map (fun r -> r.variant) append = [ "never"; "interval"; "always" ])
    "store: expected the never, interval and always append modes";
  List.iter
    (fun r ->
      let o = counter r "overhead_pct" in
      need (r.variant <> "interval" || o < 15.0)
        "store: interval-mode journal overhead %.2f%% breaches 15%%" o)
    append;
  let ops = List.map (fun r -> r.n) recovery in
  need (ops <> [] && ops = List.sort_uniq compare ops) "store: recovery ops not increasing";
  List.iter
    (fun r ->
      need (counter r "sessions" = 1. && counter r "bytes" > 0.)
        "%s: expected one session in a non-empty journal" (where r))
    recovery

let serve rows =
  let clients = List.map (fun r -> r.n) rows in
  need
    (List.filteri (fun i _ -> i < 3) clients = [ 1; 2; 4 ]
    && clients = List.sort_uniq compare clients)
    "serve: client levels must rise from 1,2,4";
  List.iter
    (fun r ->
      let c = counter r in
      need (c "errors" = 0. && c "protocol_errors" = 0.) "%s: errors" (where r);
      need
        (c "requests" > 0. && c "requests" = c "ok" +. c "shed")
        "%s: requests <> ok + shed" (where r);
      need
        (r.median <= c "p95_ns" && c "p95_ns" <= c "p99_ns" && c "p99_ns" <= c "max_ns")
        "%s: percentiles out of order" (where r))
    rows

(* {1 Documents} *)

let doc j =
  match
    let host = field "host" j in
    need
      (num "cores" host >= 1. && str "ocaml" host <> "" && str "git_rev" host <> "")
      "host: empty record";
    (match field "smoke" j with Json.Bool _ -> () | _ -> bad "smoke: not a bool");
    let rows =
      match field "rows" j with Json.Arr (_ :: _ as l) -> List.map row l | _ -> bad "rows: none"
    in
    match str "series" j with
    | "engine" -> ()
    | "atms" -> atms j rows
    | "session" -> session rows
    | "obs" -> obs rows
    | "compile" -> compile rows
    | "store" -> store rows
    | "serve" -> serve rows
    | s -> bad "unknown series %S" s
  with
  | () -> Ok ()
  | exception Bad m -> Error m

let file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> Error m
  | text -> ( match Json.parse_result text with Ok j -> doc j | Error m -> Error m)
