(* Before/after series for the interned-bitset environment work
   (DESIGN.md section 8): the naive reference below reproduces the
   pre-interning representation and algorithms — environments as
   [Set.Make(Int)] values, dominance stores as linear-scan association
   lists, hitting-set subsumption as a walk over the completed list —
   and is raced against the production [Env]/[Envindex]-backed paths on
   identical deterministic workloads.  Every cell asserts that both
   sides produce the same answers before it is timed.

   Median + IQR of [reps] on the harness clock; written to
   BENCH_atms.json as one row per (series, n) cell: the indexed side's
   timing, with the naive side's median and the speedup as counters.
   Absolute numbers depend on the host, the speedup is the point. *)

module Harness = Flames_bench.Harness
module Env = Flames_atms.Env
module Envindex = Flames_atms.Envindex
module Nogood = Flames_atms.Nogood
module Hitting = Flames_atms.Hitting
module IS = Set.Make (Int)
module Json = Flames_serve.Json

(* {1 Deterministic workloads}

   A fixed-seed LCG (Knuth MMIX multiplier) so the series is identical
   across runs and hosts; native-int wraparound is the modulus. *)

type rng = { mutable s : int }

let rng seed = { s = seed }

let below r n =
  (* 48-bit LCG (Knuth/POSIX drand48 constants): fits native ints *)
  r.s <- ((r.s * 0x5DEECE66D) + 0xB) land 0xFFFFFFFFFFFF;
  (r.s lsr 17) mod n

(* weighted environments over [n] assumptions: the insert/query mix the
   ATMS label and nogood paths see — mostly small sets, lattice degrees *)
let weighted_envs ~n ~count ~max_size r =
  List.init count (fun _ ->
      let size = 2 + below r (max_size - 1) in
      let ids = List.init size (fun _ -> below r n) in
      let degree = float_of_int (1 + below r 16) /. 16. in
      (ids, degree))

(* {1 Naive reference (pre-interning seed behaviour)} *)

(* dominance store: minimal (env, degree) list, linear subsumption scan *)
type naive_store = { mutable items : (IS.t * float) list }

let naive_record st env degree =
  if List.exists (fun (e, d) -> IS.subset e env && d >= degree) st.items then
    false
  else begin
    st.items <-
      (env, degree)
      :: List.filter
           (fun (e, d) -> not (IS.subset env e && degree >= d))
           st.items;
    true
  end

let naive_max_subset st env =
  List.fold_left
    (fun acc (e, d) -> if d > acc && IS.subset e env then d else acc)
    0. st.items

(* minimal hitting sets exactly as the seed computed them: breadth-first
   over Set.Make(Int) environments, completed-set minimality by scanning
   the completed list, O(n) frontier bookkeeping *)
let naive_hitting ?(limit = 10_000) conflicts =
  let conflicts = List.sort_uniq IS.compare conflicts in
  if conflicts = [] then [ IS.empty ]
  else if List.exists IS.is_empty conflicts then []
  else begin
    let complete = ref [] in
    let is_subsumed env = List.exists (fun c -> IS.subset c env) !complete in
    let rec first_missed env = function
      | [] -> None
      | c :: rest ->
        if IS.disjoint env c then Some c else first_missed env rest
    in
    let queue = Queue.create () in
    Queue.add IS.empty queue;
    let seen = Hashtbl.create 256 in
    while (not (Queue.is_empty queue)) && List.length !complete < limit do
      let env = Queue.pop queue in
      if not (is_subsumed env) then
        match first_missed env conflicts with
        | None -> complete := env :: !complete
        | Some c ->
          IS.iter
            (fun a ->
              let env' = IS.add a env in
              let key = IS.elements env' in
              if not (Hashtbl.mem seen key) then begin
                Hashtbl.add seen key ();
                Queue.add env' queue
              end)
            c
    done;
    let by_size a b =
      let c = Int.compare (IS.cardinal a) (IS.cardinal b) in
      if c <> 0 then c else IS.compare a b
    in
    List.sort by_size !complete
  end

(* {1 Series} *)

(* A cell that cannot run at some size (the exponential hitting
   enumeration past ~20 assumptions) is written as an explicit
   [skipped] row rather than silently omitted: a missing row is
   indistinguishable from a forgotten one, a skipped row is a documented
   decision. *)
let timed ~reps series n naive indexed =
  let naive = Harness.sample ~reps naive in
  Harness.versus ~baseline:("naive_ns", naive) series "indexed" n
    (Harness.sample ~reps indexed)

(* canonical form both representations can reach: sorted id lists *)
let canon_weighted kvs =
  List.sort compare (List.map (fun (ids, d) -> (List.sort compare ids, d)) kvs)

let assert_same series n a b =
  if a <> b then
    failwith
      (Printf.sprintf "BENCH_atms: naive/indexed divergence in %s at n=%d"
         series n)

(* label-update: the Atms.insert_label pattern — reject dominated
   insertions, evict dominated incumbents — over a churny env stream *)
let label_series ~reps n =
  let script = weighted_envs ~n ~count:(60 * n) ~max_size:6 (rng (0x1abe1 + n)) in
  let naive () =
    let st = { items = [] } in
    List.iter
      (fun (ids, d) -> ignore (naive_record st (IS.of_list ids) d))
      script;
    canon_weighted (List.map (fun (e, d) -> (IS.elements e, d)) st.items)
  in
  let indexed () =
    let idx : unit Envindex.t = Envindex.create () in
    List.iter
      (fun (ids, d) ->
        let env = Env.of_list ids in
        if not (Envindex.is_dominated idx env d) then begin
          ignore (Envindex.remove_dominated idx env d);
          Envindex.add idx env d ()
        end)
      script;
    canon_weighted
      (List.map
         (fun it -> (Env.to_list it.Envindex.env, it.Envindex.degree))
         (Envindex.to_list idx))
  in
  assert_same "label-update" n (naive ()) (indexed ());
  timed ~reps "label-update" n naive indexed

(* nogood-churn: record a nogood stream, then answer inconsistency
   queries over wider environments (the propagation-side read pattern) *)
let nogood_series ~reps n =
  let r = rng (0x906d + n) in
  let records = weighted_envs ~n ~count:(40 * n) ~max_size:5 r in
  let queries =
    List.map fst (weighted_envs ~n ~count:(40 * n) ~max_size:9 r)
  in
  let naive () =
    let st = { items = [] } in
    List.iter (fun (ids, d) -> ignore (naive_record st (IS.of_list ids) d)) records;
    let total =
      List.fold_left
        (fun acc ids -> acc +. naive_max_subset st (IS.of_list ids))
        0. queries
    in
    (total, canon_weighted (List.map (fun (e, d) -> (IS.elements e, d)) st.items))
  in
  let indexed () =
    let db = Nogood.create () in
    List.iter (fun (ids, d) -> ignore (Nogood.record db (Env.of_list ids) d)) records;
    let total =
      List.fold_left
        (fun acc ids -> acc +. Nogood.inconsistency db (Env.of_list ids))
        0. queries
    in
    ( total,
      canon_weighted
        (List.map
           (fun e -> (Env.to_list e.Nogood.env, e.Nogood.degree))
           (Nogood.entries db)) )
  in
  assert_same "nogood-churn" n (naive ()) (indexed ());
  timed ~reps "nogood-churn" n naive indexed

(* hitting-chain: overlapping triple conflicts over n assumptions — the
   candidate-explosion shape (DESIGN.md experiment A2/explosion).  The
   minimal-family enumeration is exponential in n on both sides; past
   [hitting_max_n] assumptions BFS breadth dominates even the indexed
   run, so larger sizes emit an explicit [skipped] row. *)
let hitting_max_n = 20

let hitting_series ~reps n =
  let chains = List.init (n - 2) (fun i -> [ i; i + 1; i + 2 ]) in
  let naive () =
    List.map IS.elements (naive_hitting (List.map IS.of_list chains))
  in
  let indexed () =
    List.map Env.to_list
      (Hitting.minimal_hitting_sets (List.map Env.of_list chains))
  in
  let sets = indexed () in
  assert_same "hitting-chain" n (naive ()) sets;
  (* the comparison is only meaningful when the enumeration completed:
     under the candidate limit both sides return the full minimal family *)
  if List.length sets >= 10_000 then
    failwith "BENCH_atms: hitting-chain hit the candidate limit";
  timed ~reps "hitting-chain" n naive indexed

(* {1 Emission} *)

let full_sizes = [ 8; 12; 16; 20; 24 ]

(* smoke includes one size past [hitting_max_n] so the skipped-row
   emission path is exercised by CI, not only by the full run *)
let smoke_sizes = [ 8; 12; 24 ]

let emit ~smoke =
  let sizes = if smoke then smoke_sizes else full_sizes in
  let reps = if smoke then 1 else 3 in
  let skipped n =
    let none = { Harness.median = 0.; iqr = 0. } in
    { Harness.series = "hitting-chain"; variant = "skipped"; n; stats = none;
      counters = [] }
  in
  Harness.write "atms" ~smoke
    ~extra:[ ("sizes", Json.Arr (List.map (fun n -> Json.Num (float_of_int n)) sizes)) ]
    (List.concat_map
       (fun n ->
         [ label_series ~reps n; nogood_series ~reps n;
           (if n <= hitting_max_n then hitting_series ~reps n else skipped n) ])
       sizes)
