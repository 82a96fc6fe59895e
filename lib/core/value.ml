module Interval = Flames_fuzzy.Interval
module Env = Flames_atms.Env
module History = Set.Make (String)

type origin = Measured | Given | Bound | Derived of string

type t = {
  interval : Interval.t;
  env : Env.t;
  degree : float;
  origin : origin;
  observational : bool;
  history : History.t;
}

let measured interval =
  { interval; env = Env.empty; degree = 1.; origin = Measured;
    observational = true; history = History.empty }

let given ?(degree = 1.) interval env =
  { interval; env; degree; origin = Given; observational = false;
    history = History.empty }

let bound interval env =
  { interval; env; degree = 1.; origin = Bound; observational = false;
    history = History.empty }

let derived name interval env degree ~observational ~history =
  { interval; env; degree; origin = Derived name; observational;
    history = History.add name history }

let is_measured v = v.origin = Measured

(* Preference when a cell overflows: keep measurements, then the tightest
   intervals (the informative ones), then small environments.  Width
   before environment size matters: a precise estimate reached through a
   long chain must not be evicted by wide junk with a short pedigree. *)
let strength a b =
  let rank v = if is_measured v then 0 else 1 in
  let c = Int.compare (rank a) (rank b) in
  if c <> 0 then c
  else
    let c =
      Float.compare (Interval.width a.interval) (Interval.width b.interval)
    in
    if c <> 0 then c
    else
      let c = Int.compare (Env.cardinal a.env) (Env.cardinal b.env) in
      if c <> 0 then c
      else Int.compare (History.cardinal a.history) (History.cardinal b.history)

let subsumes a b =
  a.observational = b.observational
  && Env.subset a.env b.env
  && History.subset a.history b.history
  && a.degree >= b.degree
  && Interval.contains b.interval a.interval

let pp_origin ppf = function
  | Measured -> Format.pp_print_string ppf "measured"
  | Given -> Format.pp_print_string ppf "given"
  | Bound -> Format.pp_print_string ppf "bound"
  | Derived c -> Format.fprintf ppf "via %s" c

let tightest ?observational vs =
  let vs =
    match observational with
    | None -> vs
    | Some side -> List.filter (fun v -> v.observational = side) vs
  in
  let narrower best v =
    match best with
    | None -> Some v
    | Some b ->
      if Interval.width v.interval < Interval.width b.interval then Some v
      else best
  in
  List.fold_left narrower None vs

let pp ~names ppf v =
  Format.fprintf ppf "%a %a@@%.2g (%a)" Interval.pp v.interval
    (Env.pp ~names) v.env v.degree pp_origin v.origin
