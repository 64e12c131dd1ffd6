type phases = {
  setup_time : float;
  load_time : float;
  ground_time : float;
  ground_base_time : float;
  ground_extend_time : float;
  solve_time : float;
}

let total p = p.setup_time +. p.load_time +. p.ground_time +. p.solve_time

type success = {
  spec : Specs.Spec.concrete;
  reused : (string * string) list;
  built : string list;
  costs : (int * int) list;
  quality : Asp.Optimize.quality;
  phases : phases;
  n_facts : int;
  n_possible : int;
  ground_stats : Asp.Grounder.stats;
  sat_stats : Asp.Sat.stats;
  verified : bool;
}

type result =
  | Concrete of success
  | Unsatisfiable of {
      phases : phases;
      n_facts : int;
      n_possible : int;
      reasons : string list;
    }
  | Interrupted of {
      info : Asp.Budget.info;
      phases : phases;
      n_facts : int;
      n_possible : int;
    }

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* Content-addressed solve caching.

   The key digests everything the answer depends on: the normalized request
   (order-insensitive per-spec constraint digests, root order preserved —
   extraction roots the DAG at the first spec), the repository fingerprint,
   the installed-database fingerprint, the solver configuration that can
   change the answer (preset, strategy, verify — budgets are excluded
   because only [`Optimal] results are stored, and those are
   limit-independent), the environment roster and the preferences.  The
   cache itself lives outside this library ([Server.Cache] provides an LRU +
   on-disk implementation); here it is just a pair of closures. *)
(* ------------------------------------------------------------------ *)

type cache = {
  lookup : string -> result option;
  store : string -> result -> unit;
}

let request_key ?(config = Asp.Config.default) ?(env = Facts.default_env)
    ?(prefs = Preferences.empty) ?installed ~repo roots =
  let b = Buffer.create 512 in
  let add s =
    Buffer.add_string b s;
    Buffer.add_char b '\x00'
  in
  add "request.v2";
  List.iter (fun r -> add (Specs.Spec.abstract_digest r)) roots;
  add (Pkg.Repo.fingerprint repo);
  (match installed with
  | Some db -> (
    (* narrowed install invalidation: key on the reuse-visible slice of the
       DB, not the whole DB — installing a package outside the request's
       closure leaves the key intact.  Unknown packages fall back to the
       whole-DB fingerprint (the solve itself will raise on them anyway). *)
    match Facts.reuse_digest ~installed:db ~repo roots with
    | d -> add d
    | exception Facts.Unknown_package _ -> add (Pkg.Database.fingerprint db))
  | None -> add "no-db");
  add (Asp.Config.preset_name config.Asp.Config.preset);
  add (Asp.Config.strategy_name config.Asp.Config.strategy);
  add (string_of_bool config.Asp.Config.verify);
  List.iter (fun c -> add (Specs.Compiler.to_string c)) env.Facts.compilers;
  List.iter add env.Facts.oses;
  add env.Facts.target_family;
  List.iter
    (fun (name, (p : Preferences.package_prefs)) ->
      add name;
      (match p.Preferences.pref_version with
      | Some r -> add (Specs.Vrange.canonical r)
      | None -> add "");
      List.iter (fun (k, v) -> add (k ^ "=" ^ v)) (List.sort compare p.Preferences.pref_variants))
    (List.sort compare prefs.Preferences.packages);
  List.iter
    (fun (v, ps) -> add (v ^ "->" ^ String.concat "," ps))
    (List.sort compare prefs.Preferences.providers);
  (match prefs.Preferences.compilers with
  | Some cs -> List.iter (fun c -> add ("pc:" ^ Specs.Compiler.to_string c)) cs
  | None -> add "no-pref-compilers");
  Specs.Spec.digest_strings [ Buffer.contents b ]

(* Only proven-optimal concrete results enter the cache: degraded or
   interrupted outcomes depend on the budget that produced them, and UNSAT
   diagnoses depend on [explain]. *)
let cacheable = function
  | Concrete { quality = `Optimal; _ } -> true
  | Concrete { quality = `Degraded _; _ } | Unsatisfiable _ | Interrupted _ -> false

(* Seed the solver's polarity toward the default configuration (newest
   version, default variants, best target, preferred compiler/OS/provider) so
   that the first model found is already close to optimal and the
   optimization descent mostly just proves optimality.  This plays the role
   of the domain heuristics (clasp's #heuristic) Spack uses. *)
let apply_phase_hints (t : Asp.Translate.t) =
  let store = t.Asp.Translate.ground.Asp.Ground.store in
  let fact_holds pred args =
    match Asp.Gatom.Store.find store (Asp.Gatom.make pred args) with
    | Some id -> Asp.Gatom.Store.is_fact store id
    | None -> false
  in
  let zero = Asp.Term.int 0 in
  for id = 0 to Asp.Gatom.Store.count store - 1 do
    let a = Asp.Gatom.Store.atom store id in
    let preferred =
      match (a.Asp.Gatom.pred, a.Asp.Gatom.args) with
      | "attr", [ { Asp.Term.node = Asp.Term.Str "version"; _ }; p; v ] ->
        fact_holds "version_declared" [ p; v; zero ]
      | "attr", [ { Asp.Term.node = Asp.Term.Str "variant_value"; _ }; p; var; value ] ->
        fact_holds "variant_default" [ p; var; value ]
      | "attr", [ { Asp.Term.node = Asp.Term.Str "node_target"; _ }; _; tgt ] ->
        fact_holds "target_weight" [ tgt; zero ]
      | "attr", [ { Asp.Term.node = Asp.Term.Str "node_os"; _ }; _; os ] ->
        fact_holds "os_weight" [ os; zero ]
      | "attr", [ { Asp.Term.node = Asp.Term.Str "node_compiler_version"; _ }; _; c; v ] ->
        fact_holds "compiler_weight" [ c; v; zero ]
      | "provider", [ v; p ] -> fact_holds "provider_weight" [ v; p; zero ]
      | _ -> false
    in
    if preferred then
      match Asp.Translate.atom_lit t id with
      | Some l -> Asp.Sat.suggest_phase t.Asp.Translate.sat l
      | None -> ()
  done

let solve_uncached ?(config = Asp.Config.default) ?params ?(env = Facts.default_env)
    ?(prefs = Preferences.empty) ?installed ?reuse_mode ?budget ?pool ?(racers = 1)
    ?(explain = false) ~repo roots =
  let budget =
    match budget with
    | Some b -> b
    | None -> Asp.Budget.start config.Asp.Config.limits
  in
  (* setup: generate the problem-instance facts *)
  let facts, setup_time =
    time (fun () -> Facts.generate ~env ~prefs ?installed ?reuse_mode ~repo roots)
  in
  let n_facts = facts.Facts.n_facts in
  let n_possible = List.length facts.Facts.possible in
  (* load: parse the logic program (not memoized: the paper times this) *)
  let lp, load_time = time (fun () -> Asp.Parser.parse Logic_program.text) in
  let phases ~ground_time solve_time =
    {
      setup_time;
      load_time;
      ground_time;
      ground_base_time = 0.;
      ground_extend_time = 0.;
      solve_time;
    }
  in
  (* ground: from scratch, every request *)
  let t0 = Unix.gettimeofday () in
  match
    Asp.Grounder.ground ~budget ?facts_stream:facts.Facts.reuse_stream
      (lp @ facts.Facts.statements)
  with
  | exception Asp.Budget.Exhausted info ->
    let ground_time = Unix.gettimeofday () -. t0 in
    Interrupted { info; phases = phases ~ground_time 0.; n_facts; n_possible }
  | ground, ground_stats -> (
    let ground_time = Unix.gettimeofday () -. t0 in
    (* solve: translate, search, optimize *)
    let params =
      match params with
      | Some p -> p
      | None -> Asp.Config.params config.Asp.Config.preset
    in
    let t1 = Unix.gettimeofday () in
    let strategy =
      match config.Asp.Config.strategy with
      | Asp.Config.Bb -> `Bb
      | Asp.Config.Usc -> `Usc
    in
    (* the verified sequential runner: translate, seed phase hints, optimize,
       then independently re-check the winning model ({!Asp.Verify}) with a
       reseeded retry on failure *)
    let run_sequential params =
      match
        Asp.Solve.solve_ground_verified ~hints:apply_phase_hints
          ~verify:config.Asp.Config.verify ~params ~strategy ~budget ground
      with
      | None -> None
      | Some (t, costs, quality, _models, verified) ->
        Some
          ( Asp.Translate.answer t,
            costs,
            quality,
            Asp.Sat.stats t.Asp.Translate.sat,
            verified )
    in
    (* portfolio mode: race diverse configurations over the shared ground
       program, each racer re-seeding the phase hints on its own
       translation.  [?params] (escalation reseeding) only drives the
       sequential path — racers carry their own seed offsets. *)
    let solved =
      match pool with
      | Some p when racers > 1 -> (
        let rs = Asp.Portfolio.racers ~config racers in
        match
          Asp.Portfolio.race ~pool:p ~hints:apply_phase_hints
            ~verify:config.Asp.Config.verify ~racers:rs ~budget ground
        with
        | { Asp.Portfolio.attempt = Asp.Portfolio.Proved_unsat; _ } -> Ok None
        | { attempt = Asp.Portfolio.Gave_up info; _ } -> Error info
        | {
            attempt =
              Asp.Portfolio.Model { answer; costs; quality; sat_stats; verified; _ };
            _;
          } ->
          Ok (Some (answer, costs, quality, sat_stats, verified))
        | { attempt = Asp.Portfolio.Quarantined _; _ } -> (
          (* every racer's model failed verification: sequential reseeded
             re-solve of last resort (which itself retries once and raises
             Solver_error.Verification_failed if that fails too) *)
          match
            run_sequential
              { params with Asp.Sat.seed = params.Asp.Sat.seed + 104729 }
          with
          | exception Asp.Budget.Exhausted info -> Error info
          | r -> Ok r))
      | _ -> (
        match run_sequential params with
        | exception Asp.Budget.Exhausted info -> Error info
        | r -> Ok r)
    in
    match solved with
    | Error info ->
      let phases = phases ~ground_time (Unix.gettimeofday () -. t1) in
      Interrupted { info; phases; n_facts; n_possible }
    | Ok outcome -> (
      let phases = phases ~ground_time (Unix.gettimeofday () -. t1) in
      match outcome with
      | None ->
        let reasons =
          (* provenance-mapped unsat core on demand: re-solves the ground
             program with selector guards, so it is opt-in *)
          if explain then
            Diagnose.explain_core ~params ~budget ~env ~repo ~facts ~ground
              roots
          else Diagnose.explain ~env ~repo roots
        in
        Unsatisfiable { phases; n_facts; n_possible; reasons }
      | Some (answer, costs, quality, sat_stats, verified) ->
        let info = Extract.of_index (Asp.Answer.of_list answer) in
        Concrete
          {
            spec = info.Extract.spec;
            reused = info.Extract.reused;
            built = info.Extract.built;
            costs;
            quality;
            phases;
            n_facts;
            n_possible;
            ground_stats;
            sat_stats;
            verified;
          }))

let solve ?config ?params ?env ?prefs ?installed ?reuse_mode ?budget ?pool
    ?racers ?explain ?cache ~repo roots =
  let run () =
    solve_uncached ?config ?params ?env ?prefs ?installed ?reuse_mode ?budget
      ?pool ?racers ?explain ~repo roots
  in
  match cache with
  | None -> run ()
  | Some c -> (
    let key = request_key ?config ?env ?prefs ?installed ~repo roots in
    match c.lookup key with
    | Some r -> r
    | None ->
      let r = run () in
      if cacheable r then c.store key r;
      r)

let solve_spec ?config ?env ?prefs ?installed ?reuse_mode ?budget ?explain
    ?cache ~repo text =
  solve ?config ?env ?prefs ?installed ?reuse_mode ?budget ?explain ?cache ~repo
    [ Specs.Spec_parser.parse text ]

(* Retry with escalation: each interrupted attempt doubles every finite
   limit and reseeds the search (a different EVSIDS tie-breaking order often
   finds a first model much faster, clasp's restart-on-budget idiom).
   Cancellation is honoured immediately — a SIGINT must not trigger a
   retry. *)
let solve_escalating ?(attempts = 3) ?(config = Asp.Config.default)
    ?env ?prefs ?installed ?reuse_mode ?cancel ?fault ?pool ?racers ?explain
    ?cache ~repo roots =
  let base = Asp.Config.params config.Asp.Config.preset in
  let rec go k limits =
    let budget = Asp.Budget.start ?cancel limits in
    (match fault with Some f -> f k budget | None -> ());
    let params =
      if k = 0 then base
      else { base with Asp.Sat.seed = base.Asp.Sat.seed + (k * 7919) }
    in
    match
      solve ~config ~params ?env ?prefs ?installed ?reuse_mode ~budget ?pool
        ?racers ?explain ?cache ~repo roots
    with
    | Interrupted { info; _ } as r ->
      if info.Asp.Budget.reason = Asp.Budget.Cancelled || k + 1 >= attempts
      then r
      else go (k + 1) (Asp.Budget.double limits)
    | r -> r
  in
  go 0 config.Asp.Config.limits

(* Batch-level parallelism: independent root sets concretized across the
   pool, one full pipeline (setup, load, ground, solve) per job.  Jobs are
   sequential inside — batch parallelism and portfolio racing compose only
   by over-subscribing, so [solve_many] keeps each job single-domain.
   Results are in input order. *)
let solve_many ?pool ?(attempts = 1) ?config ?env ?prefs ?installed ?reuse_mode
    ?cancel ?fault ?explain ?cache ~repo jobs =
  let one roots =
    solve_escalating ~attempts ?config ?env ?prefs ?installed ?reuse_mode
      ?cancel ?fault ?explain ?cache ~repo roots
  in
  (* Dedupe identical requests within the batch before dispatch: duplicate-
     heavy batches (environment refreshes, CI matrices) pay for each unique
     request once and the single result fans back out in input order.  The
     key is the same normalized constraint digest the solve cache uses, so
     two spellings of one spec dedupe too. *)
  let key roots =
    String.concat "\x00" (List.map Specs.Spec.abstract_digest roots)
  in
  let seen = Hashtbl.create 16 in
  let uniques = ref [] in
  let slots =
    List.map
      (fun roots ->
        let k = key roots in
        match Hashtbl.find_opt seen k with
        | Some idx -> idx
        | None ->
          let idx = Hashtbl.length seen in
          Hashtbl.add seen k idx;
          uniques := roots :: !uniques;
          idx)
      jobs
  in
  let uniques = List.rev !uniques in
  let results =
    match pool with
    | Some p when Asp.Pool.size p > 1 -> Asp.Pool.map_list p one uniques
    | _ -> List.map one uniques
  in
  let arr = Array.of_list results in
  List.map (fun idx -> arr.(idx)) slots
