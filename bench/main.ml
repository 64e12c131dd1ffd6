(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (plus the illustrative figures), printing the same rows/series
   the paper reports.

   Usage:
     dune exec bench/main.exe                 # all experiments
     dune exec bench/main.exe -- fig7d fig6   # a subset
     dune exec bench/main.exe -- micro        # Bechamel micro-benchmarks
     dune exec bench/main.exe -- --quick      # reduced sizes (CI-friendly)
     dune exec bench/main.exe -- --json F.json  # also dump per-solve timings
     dune exec bench/main.exe -- --jobs 4       # batch solves across 4 domains

   Absolute times differ from the paper (different machine, OCaml solver vs
   clingo); the reproduction targets are the *shapes*: cluster structure,
   preset ordering, reuse counts, CDF shifts with buildcache size. *)

let quick = ref false
let json_file : string option ref = ref None

(* --e4s-target N: how many installed specs the full-scale fig7e-g
   experiment grows its buildcache to (the paper's E4S cache holds 63,099) *)
let e4s_target = ref 63099

(* Scalar results (factgen p50s, cache sizes, RSS highs) surfaced to the
   JSON dump so CI can assert on them without scraping stdout. *)
let metrics : (string * float) list ref = ref []
let metric k v = metrics := (k, v) :: !metrics

(* --jobs N: concretize each experiment's batch of solves across a domain
   pool ({!Concretize.Concretizer.solve_many}).  [pool] is set once in main
   and shared by every experiment. *)
let jobs = ref 1
let pool : Asp.Pool.t option ref = ref None

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subsection title = Printf.printf "\n--- %s ---\n" title

let repo = Pkg.Repo_core.repo

(* ------------------------------------------------------------------ *)
(* Small statistics helpers                                            *)
(* ------------------------------------------------------------------ *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

let print_cdf name times =
  let a = Array.of_list times in
  Array.sort Float.compare a;
  Printf.printf "%-32s n=%-4d" name (Array.length a);
  List.iter
    (fun p -> Printf.printf "  p%02.0f=%8.4fs" (p *. 100.) (percentile a p))
    [ 0.10; 0.25; 0.50; 0.75; 0.90 ];
  if Array.length a > 0 then Printf.printf "  max=%8.4fs" a.(Array.length a - 1);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Table I: spec sigils                                                *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table I: spec sigils (parser demonstration)";
  Printf.printf "%-46s %s\n" "input" "parsed constraint";
  List.iter
    (fun s ->
      let a = Specs.Spec_parser.parse s in
      Printf.printf "%-46s %s\n" s (Specs.Spec.abstract_to_string a))
    [
      "hdf5%gcc";
      "hdf5@1.10.2";
      "hdf5%gcc@10.3.1";
      "hdf5+mpi";
      "hdf5~mpi";
      "hdf5 mpi=true";
      "hdf5 api=default";
      "hdf5 target=skylake";
      "hdf5@1.10.2 ^zlib%gcc ^cmake target=thunderx2";
    ]

(* ------------------------------------------------------------------ *)
(* Fig. 3: grounding and solving                                       *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  section "Fig. 3: grounding and solving in ASP";
  let src =
    {|depends_on(a, c).
depends_on(b, d).
depends_on(c, d).
node(D) :- node(P), depends_on(P, D).
1 { node(a); node(b) }.|}
  in
  print_endline "Program:";
  print_endline src;
  let prog = Asp.Parser.parse src in
  let ground, stats = Asp.Grounder.ground prog in
  Printf.printf "\nGround instances (%d atoms, %d rules):\n"
    stats.Asp.Grounder.possible_atoms stats.Asp.Grounder.ground_rules;
  Printf.printf "%s" (Format.asprintf "%a" Asp.Ground.pp ground);
  let models = Asp.Naive.stable_models prog in
  Printf.printf "Stable models (%d):\n" (List.length models);
  List.iter
    (fun m ->
      let nodes =
        List.filter_map
          (fun (a : Asp.Gatom.t) ->
            if a.Asp.Gatom.pred = "node" then Some (Format.asprintf "%a" Asp.Gatom.pp a)
            else None)
          m
      in
      Printf.printf "  { %s }\n" (String.concat " " nodes))
    models

(* ------------------------------------------------------------------ *)
(* Table II: optimization criteria                                     *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "Table II: optimization criteria (priority order)";
  List.iter (fun (i, name) -> Printf.printf "%4d  %s\n" i name) Concretize.Criteria.names;
  subsection "objective vector of hdf5@1.10.2%gcc@8.5.0 (forces old version + compiler)";
  match Concretize.Concretizer.solve_spec ~repo "hdf5@1.10.2%gcc@8.5.0" with
  | Concretize.Concretizer.Unsatisfiable _ -> print_endline "UNSAT"
  | Concretize.Concretizer.Interrupted _ -> print_endline "INTERRUPTED"
  | Concretize.Concretizer.Concrete s ->
    Printf.printf "%s"
      (Format.asprintf "%a" Concretize.Criteria.pp_costs s.Concretize.Concretizer.costs)

(* ------------------------------------------------------------------ *)
(* Figs. 4-6: reuse                                                    *)
(* ------------------------------------------------------------------ *)

let reuse_cache roots =
  let db = Pkg.Database.create () in
  ignore
    (Pkg.Buildcache_gen.populate ~repo ~combos:Pkg.Buildcache_gen.default_combos
       ~roots db
      : Pkg.Buildcache_gen.stats);
  db

let fig6 () =
  section "Fig. 6: concretization with and without reuse optimization";
  let db = reuse_cache [ "hdf5"; "cmake"; "openmpi"; "zlib" ] in
  Printf.printf "buildcache: %d installed specs\n" (Pkg.Database.size db);
  (* a toolchain/target combination absent from the cache: exact-hash reuse
     gets nothing, while the solver can still mix in installed nodes *)
  let request = "hdf5+szip %gcc@8.5.0 target=skylake" in
  Printf.printf "request: %s\n" request;
  (* 6a: hash-based reuse on the greedy result *)
  (match Concretize.Greedy.concretize_spec ~repo request with
  | Concretize.Greedy.Error e ->
    Printf.printf "greedy failed: %s\n" e.Concretize.Greedy.message
  | Concretize.Greedy.Ok c ->
    let nodes = Specs.Spec.concrete_nodes c in
    let hits =
      List.length
        (List.filter
           (fun (n : Specs.Spec.concrete_node) ->
             Pkg.Database.find db (Specs.Spec.node_hash c n.Specs.Spec.name) <> None)
           nodes)
    in
    Printf.printf "(a) hash-based reuse : %d/%d hits -> %d to install\n" hits
      (List.length nodes)
      (List.length nodes - hits));
  (* 6b: solving for reuse *)
  match Concretize.Concretizer.solve_spec ~repo ~installed:db request with
  | Concretize.Concretizer.Unsatisfiable _ -> print_endline "UNSAT"
  | Concretize.Concretizer.Interrupted _ -> print_endline "INTERRUPTED"
  | Concretize.Concretizer.Concrete s ->
    Printf.printf "(b) solving for reuse: %d reused, %d to build (%s)\n"
      (List.length s.Concretize.Concretizer.reused)
      (List.length s.Concretize.Concretizer.built)
      (String.concat ", " s.Concretize.Concretizer.built)

let fig5 () =
  section "Fig. 5: two-bucket objective vector of a mixed solve";
  let db = reuse_cache [ "zlib"; "cmake" ] in
  match Concretize.Concretizer.solve_spec ~repo ~installed:db "h5utils" with
  | Concretize.Concretizer.Unsatisfiable _ -> print_endline "UNSAT"
  | Concretize.Concretizer.Interrupted _ -> print_endline "INTERRUPTED"
  | Concretize.Concretizer.Concrete s ->
    Printf.printf "%d reused, %d built; objective vector (highest priority first):\n"
      (List.length s.Concretize.Concretizer.reused)
      (List.length s.Concretize.Concretizer.built);
    Printf.printf "%s"
      (Format.asprintf "%a"
         (fun ppf costs ->
           List.iter (fun pv -> Format.fprintf ppf "  %a@." Concretize.Criteria.pp_cost pv) costs)
         s.Concretize.Concretizer.costs)

(* ------------------------------------------------------------------ *)
(* Fig. 7a-c: solve times vs. possible dependencies                    *)
(* ------------------------------------------------------------------ *)

type row = {
  pkg : string;
  possible : int;
  ground_t : float;
  solve_t : float;
  total_t : float;
  wall_t : float;
      (* caller-observed wall-clock: the single solve for jobs=1, the whole
         batch for jobs>1 (same value on every row of that batch) *)
  jobs : int;
  outcome : string;  (* "optimal" | "degraded" | "interrupted" *)
  verified : bool;  (* independent model verification passed *)
  cache : string;  (* "hit" | "miss" (caching on) | "off" (no cache) *)
  peak_rss_mb : float;  (* process high-water RSS when the row was made *)
}

(* Every solve performed by any experiment is recorded here, tagged with the
   experiment currently running, and dumped at exit when --json was given. *)
let current_experiment = ref ""
let recorded_rows : (string * row) list ref = ref []

let solve_rows ?config ?installed ?cache ?(repo = repo) names =
  (* With a cache, label each row before its solve: a key already present is
     a [hit] (served without solving), anything else a [miss] that the solve
     below will populate.  Status is computed against the cache state at
     dispatch time, so a warm second pass over the same names reports hits. *)
  let status_of pkg =
    match cache with
    | None -> "off"
    | Some c ->
      let key =
        Concretize.Concretizer.request_key ?config ?installed ~repo
          [ Specs.Spec_parser.parse pkg ]
      in
      if Server.Cache.mem c key then "hit" else "miss"
  in
  let hook = Option.map Server.Cache.hook cache in
  let row_of pkg status wall result =
    match result with
    | Concretize.Concretizer.Concrete s ->
      let p = s.Concretize.Concretizer.phases in
      Some
        {
          pkg;
          possible = s.Concretize.Concretizer.n_possible;
          ground_t = p.Concretize.Concretizer.ground_time;
          solve_t = p.Concretize.Concretizer.solve_time;
          total_t = Concretize.Concretizer.total p;
          wall_t = wall;
          jobs = !jobs;
          outcome =
            (match s.Concretize.Concretizer.quality with
            | `Optimal -> "optimal"
            | `Degraded _ -> "degraded");
          verified = s.Concretize.Concretizer.verified;
          cache = status;
          peak_rss_mb = Rss.peak_mb ();
        }
    | Concretize.Concretizer.Interrupted { phases = p; n_possible; _ } ->
      (* only reachable when a budget is configured; keep the row so
         --json accounts for every attempted solve *)
      Some
        {
          pkg;
          possible = n_possible;
          ground_t = p.Concretize.Concretizer.ground_time;
          solve_t = p.Concretize.Concretizer.solve_time;
          total_t = Concretize.Concretizer.total p;
          wall_t = wall;
          jobs = !jobs;
          outcome = "interrupted";
          verified = false;
          cache = status;
          peak_rss_mb = Rss.peak_mb ();
        }
    | Concretize.Concretizer.Unsatisfiable _ -> None
  in
  let rows =
    match !pool with
    | Some p when !jobs > 1 ->
      (* batch parallelism: every solve of the experiment dispatched across
         the pool at once; the per-batch wall-clock against the sum of
         per-solve totals is the honest speedup number *)
      let statuses = List.map status_of names in
      let t0 = Unix.gettimeofday () in
      let batch =
        Concretize.Concretizer.solve_many ~pool:p ?config ?installed ?cache:hook ~repo
          (List.map (fun pkg -> [ Specs.Spec_parser.parse pkg ]) names)
      in
      let wall = Unix.gettimeofday () -. t0 in
      let rows =
        List.filter_map Fun.id
          (List.map2
             (fun (pkg, status) r -> row_of pkg status wall r)
             (List.combine names statuses) batch)
      in
      let cpu = List.fold_left (fun a r -> a +. r.total_t) 0. rows in
      Printf.printf "[batch: %d solves on %d domains, wall %.3fs, cpu-sum %.3fs]\n"
        (List.length rows) !jobs wall cpu;
      rows
    | _ ->
      List.filter_map
        (fun pkg ->
          let status = status_of pkg in
          let t0 = Unix.gettimeofday () in
          match
            Concretize.Concretizer.solve_spec ?config ?installed ?cache:hook ~repo pkg
          with
          | r -> row_of pkg status (Unix.gettimeofday () -. t0) r
          | exception Concretize.Facts.Unknown_package _ -> None)
        names
  in
  if !json_file <> None then
    recorded_rows :=
      List.rev_append (List.map (fun r -> (!current_experiment, r)) rows) !recorded_rows;
  rows

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Per-experiment digests: spread (p50/p99) of full solve times plus the
   process RSS high-water observed across the experiment's rows. *)
let summaries rows =
  let tbl : (string, row list ref) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (exp, r) ->
      match Hashtbl.find_opt tbl exp with
      | Some l -> l := r :: !l
      | None ->
        Hashtbl.add tbl exp (ref [ r ]);
        order := exp :: !order)
    rows;
  List.rev_map
    (fun exp ->
      let rs = !(Hashtbl.find tbl exp) in
      let a = Array.of_list (List.map (fun r -> r.total_t) rs) in
      Array.sort Float.compare a;
      let rss = List.fold_left (fun m r -> Float.max m r.peak_rss_mb) 0. rs in
      (exp, List.length rs, percentile a 0.50, percentile a 0.99, rss))
    !order

let write_json path =
  let oc = open_out path in
  output_string oc "{\n  \"quick\": ";
  output_string oc (if !quick then "true" else "false");
  output_string oc ",\n  \"rows\": [\n";
  let rows = List.rev !recorded_rows in
  List.iteri
    (fun i (exp, r) ->
      Printf.fprintf oc
        "    {\"experiment\": \"%s\", \"pkg\": \"%s\", \"possible\": %d, \
         \"ground_s\": %.6f, \"solve_s\": %.6f, \"total_s\": %.6f, \
         \"wall_s\": %.6f, \"jobs\": %d, \"outcome\": \"%s\", \"verified\": %b, \
         \"cache\": \"%s\", \"peak_rss_mb\": %.1f}%s\n"
        (json_escape exp) (json_escape r.pkg) r.possible r.ground_t r.solve_t r.total_t
        r.wall_t r.jobs (json_escape r.outcome) r.verified (json_escape r.cache)
        r.peak_rss_mb
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  ],\n  \"summaries\": [\n";
  let sums = summaries rows in
  List.iteri
    (fun i (exp, n, p50, p99, rss) ->
      Printf.fprintf oc
        "    {\"experiment\": \"%s\", \"n\": %d, \"p50_total_s\": %.6f, \
         \"p99_total_s\": %.6f, \"peak_rss_mb\": %.1f}%s\n"
        (json_escape exp) n p50 p99 rss
        (if i = List.length sums - 1 then "" else ","))
    sums;
  output_string oc "  ],\n  \"metrics\": {\n";
  let ms = List.rev !metrics in
  List.iteri
    (fun i (k, v) ->
      Printf.fprintf oc "    \"%s\": %.6f%s\n" (json_escape k) v
        (if i = List.length ms - 1 then "" else ","))
    ms;
  output_string oc "  },\n";
  Printf.fprintf oc "  \"peak_rss_mb\": %.1f\n}\n" (Rss.peak_mb ());
  close_out oc;
  Printf.printf "wrote %d timing rows to %s\n" (List.length rows) path

let sample names = if !quick then List.filteri (fun i _ -> i mod 4 = 0) names else names

let fig7abc () =
  section "Fig. 7a-c: ground/solve/total times vs. number of possible dependencies";
  let rows = solve_rows (sample (Pkg.Repo.package_names repo)) in
  Printf.printf "%-20s %10s %10s %10s %10s\n" "package" "poss.deps" "ground(s)" "solve(s)"
    "total(s)";
  List.iter
    (fun r ->
      Printf.printf "%-20s %10d %10.3f %10.3f %10.3f\n" r.pkg r.possible r.ground_t
        r.solve_t r.total_t)
    (List.sort (fun a b -> Int.compare a.possible b.possible) rows);
  (* the paper's observation: a bimodal split between packages that can
     reach the MPI hub and those that cannot *)
  let small = List.filter (fun r -> r.possible < 20) rows in
  let large = List.filter (fun r -> r.possible >= 20) rows in
  let avg f l =
    List.fold_left (fun a r -> a +. f r) 0.0 l /. float_of_int (max 1 (List.length l))
  in
  subsection "cluster summary (the paper's bimodal split)";
  Printf.printf
    "cluster A (cannot reach MPI): %3d packages, avg poss.deps %5.1f, avg total %6.3fs\n"
    (List.length small)
    (avg (fun r -> float_of_int r.possible) small)
    (avg (fun r -> r.total_t) small);
  Printf.printf
    "cluster B (can reach MPI)   : %3d packages, avg poss.deps %5.1f, avg total %6.3fs\n"
    (List.length large)
    (avg (fun r -> float_of_int r.possible) large)
    (avg (fun r -> r.total_t) large);
  let amax = List.fold_left (fun acc r -> max acc r.possible) 0 small in
  let bmin = List.fold_left (fun acc r -> min acc r.possible) max_int large in
  Printf.printf "gap between clusters        : %d .. %d possible dependencies\n" amax bmin

(* ------------------------------------------------------------------ *)
(* Fig. 7d: preset comparison (tweety / trendy / handy)                *)
(* ------------------------------------------------------------------ *)

let fig7d () =
  section "Fig. 7d: cumulative distribution of full solve times per preset";
  let names = sample (Pkg.Repo.package_names repo) in
  List.iter
    (fun preset ->
      let config = Asp.Config.make ~preset () in
      let rows = solve_rows ~config names in
      print_cdf (Asp.Config.preset_name preset) (List.map (fun r -> r.total_t) rows))
    [ Asp.Config.Tweety; Asp.Config.Trendy; Asp.Config.Handy ];
  subsection "ground times are preset-independent";
  List.iter
    (fun preset ->
      let config = Asp.Config.make ~preset () in
      let rows = solve_rows ~config names in
      print_cdf
        (Asp.Config.preset_name preset ^ " (ground only)")
        (List.map (fun r -> r.ground_t) rows))
    [ Asp.Config.Tweety; Asp.Config.Trendy; Asp.Config.Handy ];
  if !quick then begin
    (* quick suite only: run the default preset twice against a shared solve
       cache — the cold pass populates it, the warm pass should be served
       entirely from memory (every row labelled [hit], near-zero wall time) *)
    subsection "warm-cache second pass (content-addressed solve cache)";
    let cache = Server.Cache.create ~mem_capacity:1024 () in
    let config = Asp.Config.make () in
    let saved = !current_experiment in
    current_experiment := saved ^ "-cold";
    let cold = solve_rows ~config ~cache names in
    current_experiment := saved ^ "-warm";
    let warm = solve_rows ~config ~cache names in
    current_experiment := saved;
    let hits l = List.length (List.filter (fun r -> r.cache = "hit") l) in
    (* jobs>1: every row of a batch carries the same whole-batch wall clock,
       so summing would overcount by the batch size *)
    let wall = function
      | r :: _ when !jobs > 1 -> r.wall_t
      | l -> List.fold_left (fun a r -> a +. r.wall_t) 0.0 l
    in
    Printf.printf "cold pass: %d/%d cache hits, wall %.3fs\n" (hits cold)
      (List.length cold) (wall cold);
    Printf.printf "warm pass: %d/%d cache hits, wall %.3fs\n" (hits warm)
      (List.length warm) (wall warm)
  end

(* ------------------------------------------------------------------ *)
(* Fig. 7e-g: reuse with growing buildcaches                           *)
(* ------------------------------------------------------------------ *)

let fig7efg () =
  section "Fig. 7e-g: solve times of E4S roots with increasing buildcache";
  let db = Pkg.Database.create () in
  let variations = if !quick then 2 else 3 in
  ignore
    (Pkg.Buildcache_gen.populate ~variations ~repo
       ~combos:Pkg.Buildcache_gen.default_combos ~roots:Pkg.Repo_core.e4s_roots db
      : Pkg.Buildcache_gen.stats);
  let is_family fam (r : Pkg.Database.record) =
    match Specs.Target.find r.Pkg.Database.target with
    | Some t -> String.equal t.Specs.Target.family fam
    | None -> false
  in
  let slices =
    [
      ("full buildcache", db);
      ("x86_64 only", Pkg.Database.filter db ~f:(is_family "x86_64"));
      ("rhel8 only", Pkg.Database.filter db ~f:(fun r -> r.Pkg.Database.os = "rhel8"));
      ( "x86_64 + rhel8",
        Pkg.Database.filter db ~f:(fun r ->
            is_family "x86_64" r && r.Pkg.Database.os = "rhel8") );
    ]
  in
  let roots =
    if !quick then List.filteri (fun i _ -> i mod 3 = 0) Pkg.Repo_core.e4s_roots
    else Pkg.Repo_core.e4s_roots
  in
  List.iter
    (fun (name, slice) ->
      let label = Printf.sprintf "%s (%d specs)" name (Pkg.Database.size slice) in
      let rows = solve_rows ~installed:slice roots in
      print_cdf label (List.map (fun r -> r.total_t) rows);
      let setup = List.map (fun r -> r.total_t -. r.ground_t -. r.solve_t) rows in
      let solve = List.map (fun r -> r.solve_t) rows in
      let avg l = List.fold_left ( +. ) 0. l /. float_of_int (max 1 (List.length l)) in
      Printf.printf "%-32s      avg setup=%.3fs avg solve=%.3fs\n" "" (avg setup)
        (avg solve))
    slices

(* ------------------------------------------------------------------ *)
(* Fig. 7e-g at full paper scale (E4S buildcache, 63,099 specs)        *)
(* ------------------------------------------------------------------ *)

(* The paper's §VII-C stress test: reuse solves against the real E4S
   buildcache (63,099 specs).  A synthetic repository stands in for E4S;
   [Buildcache_gen.scale_to] grows variation combinations until the cache
   holds [--e4s-target] distinct DAG hashes.  Reuse facts flow through the
   streaming pipeline (no materialized per-spec atom lists), and the four
   paper slices are arena-sharing views of one packed database. *)
let fig7efg_full () =
  let target = if !quick then min 5000 !e4s_target else !e4s_target in
  section
    (Printf.sprintf
       "Fig. 7e-g at full E4S scale: %d-spec buildcache, streamed reuse facts"
       target);
  let sr = Pkg.Repo_synth.repo (Pkg.Repo_synth.scaled 600) in
  let apps =
    List.filter
      (fun p -> String.length p > 3 && String.sub p 0 3 = "app")
      (Pkg.Repo.package_names sr)
  in
  let t0 = Unix.gettimeofday () in
  let db, st =
    Pkg.Buildcache_gen.scale_to
      ~log:(fun m -> Printf.printf "  %s\n%!" m)
      ~repo:sr ~roots:apps target
  in
  let gen_s = Unix.gettimeofday () -. t0 in
  Printf.printf "buildcache: %d specs in %.1fs (%s), peak rss %.0f MB\n%!"
    (Pkg.Database.size db) gen_s
    (Pkg.Buildcache_gen.stats_to_string st)
    (Rss.peak_mb ());
  metric "e4s_specs" (float_of_int (Pkg.Database.size db));
  metric "e4s_gen_s" gen_s;
  metric "e4s_gen_peak_rss_mb" (Rss.peak_mb ());
  (* fact generation, streamed vs materialized, over the full cache: the
     streamed path never builds per-spec statement lists — atoms go
     straight into a ground-atom store sink *)
  let froots = [ Specs.Spec_parser.parse (List.nth apps 0) ] in
  let reps = if !quick then 3 else 5 in
  let time_of f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let p50_of f =
    let a = Array.init reps (fun _ -> time_of f) in
    Array.sort Float.compare a;
    percentile a 0.50
  in
  (* both legs deliver every fact into a ground-atom store — that is what
     the grounder does with them — so the measured difference is exactly
     the intermediate AST statement list the streamed path never builds *)
  let intern_statements store (f : Concretize.Facts.t) =
    List.iter
      (fun st ->
        match st with
        | Asp.Ast.Rule { head = Asp.Ast.Head_atom { pred; args }; body = []; _ } ->
          let rec csts acc = function
            | [] -> Some (List.rev acc)
            | Asp.Ast.Cst t :: rest -> csts (t :: acc) rest
            | _ -> None
          in
          (match csts [] args with
          | Some ts ->
            ignore (Asp.Gatom.Store.intern store (Asp.Gatom.make pred ts))
          | None -> ())
        | _ -> ())
      f.Concretize.Facts.statements
  in
  let mat_p50 =
    p50_of (fun () ->
        let f =
          Concretize.Facts.generate ~installed:db ~reuse_mode:`Materialize
            ~repo:sr froots
        in
        intern_statements (Asp.Gatom.Store.create ()) f)
  in
  let stream_p50 =
    p50_of (fun () ->
        let f =
          Concretize.Facts.generate ~installed:db ~reuse_mode:`Stream ~repo:sr
            froots
        in
        let store = Asp.Gatom.Store.create () in
        intern_statements store f;
        match f.Concretize.Facts.reuse_stream with
        | Some stream ->
          stream (fun ga -> ignore (Asp.Gatom.Store.intern store ga))
        | None -> ())
  in
  Printf.printf
    "factgen over %d specs: materialized p50 %.3fs, streamed p50 %.3fs (%.2fx)\n%!"
    (Pkg.Database.size db) mat_p50 stream_p50
    (mat_p50 /. Float.max 1e-9 stream_p50);
  metric "factgen_materialized_p50_s" mat_p50;
  metric "factgen_streamed_p50_s" stream_p50;
  (* the four paper slices, as views sharing the packed arena *)
  let is_family fam (r : Pkg.Database.record) =
    match Specs.Target.find r.Pkg.Database.target with
    | Some t -> String.equal t.Specs.Target.family fam
    | None -> false
  in
  let slices =
    [
      ("full buildcache", db);
      ("x86_64 only", Pkg.Database.filter db ~f:(is_family "x86_64"));
      ("rhel8 only", Pkg.Database.filter db ~f:(fun r -> r.Pkg.Database.os = "rhel8"));
      ( "x86_64 + rhel8",
        Pkg.Database.filter db ~f:(fun r ->
            is_family "x86_64" r && r.Pkg.Database.os = "rhel8") );
    ]
  in
  (* a handful of E4S-style roots per slice keeps the full run tractable
     while still exercising every slice at full cache size *)
  let n_roots = if !quick then 3 else 6 in
  let roots =
    List.filteri (fun i _ -> i mod (max 1 (List.length apps / n_roots)) = 0) apps
    |> List.filteri (fun i _ -> i < n_roots)
  in
  let saved = !current_experiment in
  List.iter
    (fun (name, slice) ->
      let tag =
        match name with
        | "full buildcache" -> "full"
        | "x86_64 only" -> "x86_64"
        | "rhel8 only" -> "rhel8"
        | _ -> "x86_64-rhel8"
      in
      current_experiment := saved ^ "-" ^ tag;
      let label = Printf.sprintf "%s (%d specs)" name (Pkg.Database.size slice) in
      let rows = solve_rows ~installed:slice ~repo:sr roots in
      print_cdf label (List.map (fun r -> r.total_t) rows);
      Printf.printf "%-32s      peak rss %.0f MB\n%!" ""
        (List.fold_left (fun m r -> Float.max m r.peak_rss_mb) 0. rows))
    slices;
  current_experiment := saved;
  metric "e4s_peak_rss_mb" (Rss.peak_mb ())

(* ------------------------------------------------------------------ *)
(* Fig. 7h: old (greedy) vs. new (ASP) concretizer                     *)
(* ------------------------------------------------------------------ *)

let fig7h () =
  section "Fig. 7h: cumulative distribution, old concretizer vs clingo-style solver";
  let names = sample (Pkg.Repo.package_names repo) in
  let greedy_times =
    List.filter_map
      (fun pkg ->
        let t0 = Unix.gettimeofday () in
        match Concretize.Greedy.concretize_spec ~repo pkg with
        | Concretize.Greedy.Ok _ -> Some (Unix.gettimeofday () -. t0)
        | Concretize.Greedy.Error _ -> None)
      names
  in
  let asp_rows = solve_rows names in
  print_cdf "old concretizer (greedy)" greedy_times;
  print_cdf "ASP solver (tweety)" (List.map (fun r -> r.total_t) asp_rows);
  Printf.printf "\nnote: greedy solved %d/%d packages; the ASP solver solved %d/%d\n"
    (List.length greedy_times) (List.length names) (List.length asp_rows)
    (List.length names)

(* ------------------------------------------------------------------ *)
(* Usability scenarios of §V-B (completeness demonstrations)           *)
(* ------------------------------------------------------------------ *)

let usability () =
  section "Section V-B: usability improvements (greedy vs ASP)";
  let scenarios =
    [
      (repo, "conditional dependency (V-B.1)", "hpctoolkit ^mpich");
      (repo, "conflict handling (V-B.2)", "example target=thunderx2");
      (repo, "provider specialization (V-B.3)", "berkeleygw+openmp");
    ]
  in
  (* III-C.2's bzip2 anecdote needs two dependents with crossing version
     bounds; reconstructed on a minimal repository *)
  let mini =
    Pkg.Repo.make
      [
        Pkg.Package.make "dep" [ Pkg.Package.version "1.0.8"; Pkg.Package.version "1.0.7" ];
        Pkg.Package.make "liba"
          [ Pkg.Package.version "1.0"; Pkg.Package.depends_on "dep@1.0.7:" ];
        Pkg.Package.make "libb"
          [ Pkg.Package.version "1.0"; Pkg.Package.depends_on "dep@:1.0.7" ];
        Pkg.Package.make "app"
          [
            Pkg.Package.version "1.0";
            Pkg.Package.depends_on "liba";
            Pkg.Package.depends_on "libb";
          ];
      ]
  in
  let scenarios = scenarios @ [ (mini, "backtracking versions (III-C.2)", "app") ] in
  Printf.printf "%-36s %-28s %s\n" "scenario" "greedy" "ASP";
  List.iter
    (fun (repo, name, spec) ->
      let greedy =
        match Concretize.Greedy.concretize_spec ~repo spec with
        | Concretize.Greedy.Ok _ -> "solved"
        | Concretize.Greedy.Error _ -> "FAILED (asks user to fix)"
      in
      let asp =
        match Concretize.Concretizer.solve_spec ~repo spec with
        | Concretize.Concretizer.Concrete _ -> "solved"
        | Concretize.Concretizer.Unsatisfiable _ -> "proven unsatisfiable"
        | Concretize.Concretizer.Interrupted _ -> "interrupted"
      in
      Printf.printf "%-36s %-28s %s\n" name greedy asp)
    scenarios

(* ------------------------------------------------------------------ *)
(* Scaling on synthetic repositories (supplementary)                   *)
(* ------------------------------------------------------------------ *)

let scaling () =
  section "Scaling: unified environment solves on synthetic repositories";
  Printf.printf "%-12s %8s %7s %9s %10s %10s %10s %8s\n" "target size" "pkgs" "roots"
    "facts" "ground(s)" "solve(s)" "total(s)" "nodes";
  let sizes = if !quick then [ 100; 300 ] else [ 100; 300; 600; 1200 ] in
  List.iter
    (fun n ->
      let sr = Pkg.Repo_synth.repo (Pkg.Repo_synth.scaled n) in
      (* a whole-stack solve: every application root concretized in one DAG,
         like a large Spack environment *)
      let roots =
        List.filter
          (fun p -> String.length p > 3 && String.sub p 0 3 = "app")
          (Pkg.Repo.package_names sr)
        |> List.map Specs.Spec_parser.parse
      in
      match Concretize.Concretizer.solve ~repo:sr roots with
      | Concretize.Concretizer.Concrete s ->
        let p = s.Concretize.Concretizer.phases in
        Printf.printf "%-12d %8d %7d %9d %10.3f %10.3f %10.3f %8d\n" n
          (Pkg.Repo.size sr) (List.length roots) s.Concretize.Concretizer.n_facts
          p.Concretize.Concretizer.ground_time p.Concretize.Concretizer.solve_time
          (Concretize.Concretizer.total p)
          (List.length (Specs.Spec.concrete_nodes s.Concretize.Concretizer.spec))
      | Concretize.Concretizer.Unsatisfiable _ -> Printf.printf "%-12d UNSAT\n" n
      | Concretize.Concretizer.Interrupted _ -> Printf.printf "%-12d INTERRUPTED\n" n)
    sizes

(* ------------------------------------------------------------------ *)
(* Multi-shot vs unified stack concretization                          *)
(* ------------------------------------------------------------------ *)

let multishot () =
  section "Multi-shot vs unified concretization (the paper's closing remark)";
  let roots = List.map Specs.Spec_parser.parse Pkg.Repo_core.e4s_roots in
  (* unified: one combinatorial solve, globally optimal *)
  (match Concretize.Concretizer.solve ~repo roots with
  | Concretize.Concretizer.Concrete s ->
    let p = s.Concretize.Concretizer.phases in
    Printf.printf
      "unified   : %d roots -> %d nodes in %.2fs (one configuration per package)\n"
      (List.length roots)
      (List.length (Specs.Spec.concrete_nodes s.Concretize.Concretizer.spec))
      (Concretize.Concretizer.total p)
  | Concretize.Concretizer.Unsatisfiable _ -> print_endline "unified: UNSAT"
  | Concretize.Concretizer.Interrupted _ -> print_endline "unified: INTERRUPTED");
  (* multi-shot: divide and conquer, later shots reuse earlier results *)
  let ms = Concretize.Multishot.solve_stack ~repo roots in
  let solved =
    List.length
      (List.filter
         (fun sh ->
           match sh.Concretize.Multishot.shot_result with
           | Concretize.Concretizer.Concrete _ -> true
           | Concretize.Concretizer.Unsatisfiable _
           | Concretize.Concretizer.Interrupted _ -> false)
         ms.Concretize.Multishot.shots)
  in
  Printf.printf "multi-shot: %d/%d roots -> %d installed specs in %.2fs\n" solved
    (List.length roots)
    (Pkg.Database.size ms.Concretize.Multishot.db)
    ms.Concretize.Multishot.total_time;
  (match ms.Concretize.Multishot.distinct_configs with
  | [] -> print_endline "            no duplicated configurations (as good as unified)"
  | dups ->
    Printf.printf
      "            'slightly less optimal': %d package(s) got several configs: %s\n"
      (List.length dups)
      (String.concat ", " (List.map (fun (n, k) -> Printf.sprintf "%s(%d)" n k) dups)));
  (* how the trade-off looks at scale: one big combinatorial solve vs a sum
     of many small reuse solves *)
  subsection "at scale (synthetic repository)";
  let n = if !quick then 300 else 900 in
  let sr = Pkg.Repo_synth.repo (Pkg.Repo_synth.scaled n) in
  let roots =
    List.filter
      (fun p -> String.length p > 3 && String.sub p 0 3 = "app")
      (Pkg.Repo.package_names sr)
    |> List.map Specs.Spec_parser.parse
  in
  (match Concretize.Concretizer.solve ~repo:sr roots with
  | Concretize.Concretizer.Concrete s ->
    Printf.printf "unified   : %d roots, %d packages -> %.2fs\n" (List.length roots)
      (Pkg.Repo.size sr)
      (Concretize.Concretizer.total s.Concretize.Concretizer.phases)
  | Concretize.Concretizer.Unsatisfiable _ -> print_endline "unified: UNSAT"
  | Concretize.Concretizer.Interrupted _ -> print_endline "unified: INTERRUPTED");
  let ms = Concretize.Multishot.solve_stack ~repo:sr roots in
  Printf.printf "multi-shot: %.2fs, %d package(s) with several configs\n"
    ms.Concretize.Multishot.total_time
    (List.length ms.Concretize.Multishot.distinct_configs)

(* ------------------------------------------------------------------ *)
(* Ablation: optimization strategy (bb vs usc,one)                     *)
(* ------------------------------------------------------------------ *)

let ablation () =
  section "Ablation: model-guided (bb) vs core-guided (usc,one) optimization";
  let names = sample (Pkg.Repo.package_names repo) in
  List.iter
    (fun (label, strategy) ->
      let config = Asp.Config.make ~strategy () in
      let rows = solve_rows ~config names in
      print_cdf label (List.map (fun r -> r.total_t) rows))
    [ ("bb (branch-and-bound)", Asp.Config.Bb); ("usc,one (core-guided)", Asp.Config.Usc) ];
  print_endline
    "(the paper selects clingo's unsatisfiable-core-guided strategy usc,one;\n\
    \ the same ordering shows here)"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "Bechamel micro-benchmarks (hot kernels)";
  let open Bechamel in
  let lp = Concretize.Logic_program.text in
  let facts =
    lazy
      (Concretize.Facts.generate ~repo [ Specs.Spec_parser.parse "hdf5" ])
        .Concretize.Facts.statements
  in
  let full_program = lazy (Asp.Parser.parse lp @ Lazy.force facts) in
  let ground = lazy (fst (Asp.Grounder.ground (Lazy.force full_program))) in
  let tests =
    [
      Test.make ~name:"spec-parse"
        (Staged.stage (fun () ->
             ignore
               (Specs.Spec_parser.parse
                  "hdf5@1.10.2+mpi%gcc@10.3.1 ^zlib@1.2.8: target=skylake")));
      Test.make ~name:"version-compare"
        (Staged.stage (fun () ->
             ignore
               (Specs.Version.compare
                  (Specs.Version.of_string "1.10.2")
                  (Specs.Version.of_string "1.9.30"))));
      Test.make ~name:"lp-parse (load)"
        (Staged.stage (fun () -> ignore (Asp.Parser.parse lp)));
      Test.make ~name:"fact-gen hdf5 (setup)"
        (Staged.stage (fun () ->
             ignore (Concretize.Facts.generate ~repo [ Specs.Spec_parser.parse "hdf5" ])));
      Test.make ~name:"ground hdf5 (ground)"
        (Staged.stage (fun () -> ignore (Asp.Grounder.ground (Lazy.force full_program))));
      Test.make ~name:"solve hdf5 (solve)"
        (Staged.stage (fun () ->
             let t = Asp.Translate.translate (Lazy.force ground) in
             ignore (Asp.Optimize.run t ~on_model:(Asp.Stable.hook t))));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let benchmark test =
    let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 1.0) () in
    Benchmark.all cfg [ instance ] test
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  List.iter
    (fun t ->
      let results = benchmark t in
      let a = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name o ->
          match Analyze.OLS.estimates o with
          | Some [ est ] -> Printf.printf "%-32s %14.0f ns/run\n" name est
          | _ -> Printf.printf "%-32s (no estimate)\n" name)
        a)
    tests

(* ------------------------------------------------------------------ *)
(* CUDF: Linux-distro package universes on the same engine             *)
(* ------------------------------------------------------------------ *)

(* Synthetic Debian-like universes (satisfiable by construction) solved
   end-to-end under both user-objective stacks.  Every solve must reach a
   verified proven optimum; p50/p99 of the full pipeline, ground size and
   peak RSS land in the JSON dump per (size, stack). *)
let cudf_bench () =
  section "CUDF: Debian-like package universes on the Spack ASP engine";
  let sizes = if !quick then [ (1000, 3) ] else [ (1000, 5); (10000, 3) ] in
  List.iter
    (fun (n, reps) ->
      List.iter
        (fun stack ->
          let sname = Cudf.Criteria.name stack in
          let tag = Printf.sprintf "cudf-%d-%s" n sname in
          current_experiment := tag;
          let times = ref [] in
          let max_rules = ref 0 in
          for seed = 1 to reps do
            let d = Cudf.Synth.universe ~seed ~n () in
            let t0 = Unix.gettimeofday () in
            match Cudf.Solver.solve ~stack d with
            | Cudf.Solver.Solution s ->
              let wall = Unix.gettimeofday () -. t0 in
              let p = s.Cudf.Solver.phases in
              let g = s.Cudf.Solver.ground_stats in
              if not (s.Cudf.Solver.verified && s.Cudf.Solver.quality = `Optimal)
              then failwith (tag ^ ": solve did not reach a verified optimum");
              times := Cudf.Solver.total p :: !times;
              max_rules := max !max_rules g.Asp.Grounder.ground_rules;
              Printf.printf
                "  %-8s n=%-6d seed=%d  ground %6.2fs  solve %6.2fs  costs %-14s \
                 %d atoms %d rules\n%!"
                sname n seed p.Cudf.Solver.ground_time p.Cudf.Solver.solve_time
                (String.concat ","
                   (List.map
                      (fun (pr, v) -> Printf.sprintf "%d@%d" v pr)
                      s.Cudf.Solver.costs))
                g.Asp.Grounder.possible_atoms g.Asp.Grounder.ground_rules;
              if !json_file <> None then
                recorded_rows :=
                  ( tag,
                    {
                      pkg = Printf.sprintf "synth-%d-%d" n seed;
                      possible = g.Asp.Grounder.possible_atoms;
                      ground_t = p.Cudf.Solver.ground_time;
                      solve_t = p.Cudf.Solver.solve_time;
                      total_t = Cudf.Solver.total p;
                      wall_t = wall;
                      jobs = 1;
                      outcome = "optimal";
                      verified = s.Cudf.Solver.verified;
                      cache = "off";
                      peak_rss_mb = Rss.peak_mb ();
                    } )
                  :: !recorded_rows
            | Cudf.Solver.Unsatisfiable _ ->
              failwith (tag ^ ": synthetic universe unexpectedly unsatisfiable")
            | Cudf.Solver.Interrupted _ -> failwith (tag ^ ": interrupted")
          done;
          let a = Array.of_list !times in
          Array.sort Float.compare a;
          metric (Printf.sprintf "%s_p50_s" tag) (percentile a 0.50);
          metric (Printf.sprintf "%s_p99_s" tag) (percentile a 0.99);
          metric (Printf.sprintf "%s_ground_rules" tag) (float_of_int !max_rules);
          Printf.printf "  %-8s n=%-6d p50 %.2fs  p99 %.2fs  peak rss %.0f MB\n"
            sname n (percentile a 0.50) (percentile a 0.99) (Rss.peak_mb ()))
        Cudf.Criteria.all)
    sizes;
  current_experiment := "cudf"

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", table1);
    ("fig3", fig3);
    ("table2", table2);
    ("fig5", fig5);
    ("fig6", fig6);
    ("usability", usability);
    ("fig7abc", fig7abc);
    ("fig7d", fig7d);
    ("fig7efg", fig7efg);
    ("fig7efg-full", fig7efg_full);
    ("fig7h", fig7h);
    ("scaling", scaling);
    ("cudf", cudf_bench);
    ("multishot", multishot);
    ("ablation", ablation);
    ("micro", micro);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse = function
    | [] -> []
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--json" :: path :: rest ->
      json_file := Some path;
      parse rest
    | [ "--json" ] ->
      prerr_endline "--json requires a file argument";
      exit 2
    | "--e4s-target" :: n :: rest -> (
      match int_of_string_opt n with
      | Some k when k >= 1 ->
        e4s_target := k;
        parse rest
      | _ ->
        prerr_endline "--e4s-target requires a positive integer";
        exit 2)
    | [ "--e4s-target" ] ->
      prerr_endline "--e4s-target requires a positive integer";
      exit 2
    | "--jobs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some k when k >= 1 ->
        jobs := k;
        parse rest
      | _ ->
        prerr_endline "--jobs requires a positive integer";
        exit 2)
    | [ "--jobs" ] ->
      prerr_endline "--jobs requires a positive integer";
      exit 2
    | a :: rest -> a :: parse rest
  in
  let args = parse args in
  (* the full-scale E4S run only happens when asked for by name: growing a
     63k-spec buildcache is a deliberate stress test, not a default *)
  let to_run =
    match args with
    | [] -> List.filter (( <> ) "fig7efg-full") (List.map fst experiments)
    | names -> names
  in
  let t0 = Unix.gettimeofday () in
  let run_all () =
    List.iter
      (fun name ->
        match List.assoc_opt name experiments with
        | Some f ->
          current_experiment := name;
          f ()
        | None ->
          Printf.eprintf "unknown experiment %s (available: %s)\n" name
            (String.concat ", " (List.map fst experiments));
          exit 2)
      to_run
  in
  if !jobs > 1 then
    Asp.Pool.with_pool ~domains:!jobs (fun p ->
        pool := Some p;
        Fun.protect ~finally:(fun () -> pool := None) run_all)
  else run_all ();
  Printf.printf "\nall experiments completed in %.1fs\n" (Unix.gettimeofday () -. t0);
  match !json_file with Some path -> write_json path | None -> ()
