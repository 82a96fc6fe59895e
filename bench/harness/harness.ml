(* The one timing path of every BENCH_*.json series: a monotonic clock,
   two protocols (a sample of reps, and ABBA-ordered pairs), median +
   IQR statistics, the host record and the row schema

     {series, variant, n, ns_median, ns_iqr, counters}

   written with the service's JSON printer.  [Check] reads the files
   back and enforces each series' gates. *)

module Json = Flames_serve.Json

let now_ns () = Int64.to_float (Monotonic_clock.now ())

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () -. t0)

(* {1 Statistics} *)

type stats = { median : float; iqr : float }

(* Linear interpolation between the closest ranks of a sorted array. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = Int.min (n - 1) (lo + 1) in
    sorted.(lo) +. ((h -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let stats xs =
  let a = sorted xs in
  { median = quantile a 0.5; iqr = quantile a 0.75 -. quantile a 0.25 }

let median xs = (stats xs).median

(* {1 Protocols} *)

(* [reps] timed calls of [f]; the statistics are over nanoseconds. *)
let sample ~reps f =
  stats
    (List.init reps (fun _ -> snd (time (fun () -> Sys.opaque_identity (f ())))))

type paired = { a : stats; b : stats; ratio : stats  (** b / a per pair *) }

(* ABBA: even pairs run [a] first, odd pairs [b] first, so a drift of
   the host over the run lands on both sides alike. *)
let a_first i = i mod 2 = 0

(* [a i] and [b i] measure one side of pair [i] in nanoseconds.  The
   ratio's median is the claim: a host stall spoils one ratio, not the
   estimate, and slow drift cancels inside each pair. *)
let paired ~pairs a b =
  let pair i =
    if a_first i then
      let x = a i in
      (x, b i)
    else
      let y = b i in
      (a i, y)
  in
  let xs = List.init pairs pair in
  {
    a = stats (List.map fst xs);
    b = stats (List.map snd xs);
    ratio = stats (List.map (fun (x, y) -> y /. x) xs);
  }

(* {1 Host record and rows} *)

let git_rev () =
  match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
  | exception Unix.Unix_error _ -> "unknown"
  | ic ->
    let rev = try input_line ic with End_of_file -> "unknown" in
    ignore (Unix.close_process_in ic);
    rev

let host () =
  Json.Obj
    [
      ("cores", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("git_rev", Json.Str (git_rev ()));
    ]

(* [counters] are numbers or number lists: work done, the baseline a
   variant is compared with, derived ratios. *)
type row = {
  series : string;
  variant : string;
  n : int;
  stats : stats;
  counters : (string * Json.t) list;
}

(* A row timing a variant against a baseline: the baseline's median and
   the speedup (baseline / variant) lead the counters. *)
let versus ~baseline:(name, (b : stats)) ?(counters = []) series variant n
    stats =
  let speedup = b.median /. Float.max stats.median 1. in
  {
    series;
    variant;
    n;
    stats;
    counters =
      (name, Json.Num b.median) :: ("speedup", Json.Num speedup) :: counters;
  }

let row_json r =
  Json.Obj
    [
      ("series", Json.Str r.series);
      ("variant", Json.Str r.variant);
      ("n", Json.Num (float_of_int r.n));
      ("ns_median", Json.Num (Float.round r.stats.median));
      ("ns_iqr", Json.Num (Float.round r.stats.iqr));
      ("counters", Json.Obj r.counters);
    ]

let print_row r =
  let counters =
    List.filter_map
      (function k, Json.Num x -> Some (Printf.sprintf "%s=%.4g" k x) | _ -> None)
      r.counters
  in
  Printf.printf "  %-24s %-9s n=%-4d %13.0f ns (iqr %.0f)  %s\n" r.series
    r.variant r.n r.stats.median r.stats.iqr (String.concat " " counters)

(* Writes [path] (default BENCH_<series>.json): the header fields on
   the first line, then one row per line so a regenerated file diffs
   row by row. *)
let write ?(extra = []) ?path ~smoke series rows =
  let path = Option.value path ~default:("BENCH_" ^ series ^ ".json") in
  let head =
    Json.to_string
      (Json.Obj
         ([ ("series", Json.Str series); ("smoke", Json.Bool smoke);
            ("host", host ()) ]
         @ extra))
  in
  let lines = List.map (fun r -> Json.to_string (row_json r)) rows in
  (* the header object, reopened before its closing brace for the rows *)
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (String.sub head 0 (String.length head - 1));
      output_string oc (",\"rows\":[\n  " ^ String.concat ",\n  " lines ^ "\n]}\n"));
  List.iter print_row rows;
  Printf.printf "wrote %s\n%!" path
