(* End-to-end tests for the concretizer: validity, completeness, optimality,
   the usability scenarios of Section V-B, and reuse (Section VI). *)

open Concretize

let repo = Pkg.Repo_core.repo

let solve ?installed ?env spec =
  Concretizer.solve_spec ?installed ?env ~repo spec

let concrete ?installed ?env spec =
  match solve ?installed ?env spec with
  | Concretizer.Concrete s -> s
  | Concretizer.Interrupted _ -> Alcotest.fail "unexpectedly interrupted"
  | Concretizer.Unsatisfiable _ -> Alcotest.failf "unexpectedly UNSAT: %s" spec

let unsat ?installed spec =
  match solve ?installed spec with
  | Concretizer.Interrupted _ -> Alcotest.fail "unexpectedly interrupted"
  | Concretizer.Unsatisfiable _ -> ()
  | Concretizer.Concrete _ -> Alcotest.failf "expected UNSAT: %s" spec

let node_of s name =
  match
    Specs.Spec.Node_map.find_opt name s.Concretizer.spec.Specs.Spec.nodes
  with
  | Some n -> n
  | None -> Alcotest.failf "package %s not in the solution" name

let has_node s name =
  Specs.Spec.Node_map.mem name s.Concretizer.spec.Specs.Spec.nodes

let version_of s name = Specs.Version.to_string (node_of s name).Specs.Spec.version
let variant_of s name var = List.assoc var (node_of s name).Specs.Spec.variants

(* ------------------------------------------------------------------ *)
(* Validity (§III-C.1)                                                 *)
(* ------------------------------------------------------------------ *)

let check_valid (s : Concretizer.success) =
  (* all nodes fully specified, all edges resolved, no virtuals *)
  List.iter
    (fun (n : Specs.Spec.concrete_node) ->
      Alcotest.(check bool) (n.Specs.Spec.name ^ " not virtual") false
        (Pkg.Repo.is_virtual repo n.Specs.Spec.name);
      let p = Pkg.Repo.find_exn repo n.Specs.Spec.name in
      (* version is one of the declared versions *)
      Alcotest.(check bool) (n.Specs.Spec.name ^ " declared version") true
        (List.exists
           (fun (d : Pkg.Package.version_decl) ->
             Specs.Version.equal d.Pkg.Package.vversion n.Specs.Spec.version)
           p.Pkg.Package.versions);
      (* every declared variant has exactly one value *)
      List.iter
        (fun (v : Pkg.Package.variant_decl) ->
          match List.assoc_opt v.Pkg.Package.var_name n.Specs.Spec.variants with
          | Some value ->
            Alcotest.(check bool)
              (Printf.sprintf "%s %s value valid" n.Specs.Spec.name v.Pkg.Package.var_name)
              true
              (List.mem value v.Pkg.Package.var_values)
          | None ->
            Alcotest.failf "%s: variant %s unassigned" n.Specs.Spec.name
              v.Pkg.Package.var_name)
        p.Pkg.Package.variants;
      (* chosen compiler supports the chosen target *)
      Alcotest.(check bool) (n.Specs.Spec.name ^ " compiler-target ok") true
        (Specs.Compiler.supports_target n.Specs.Spec.compiler
           (Specs.Target.find_exn n.Specs.Spec.target)))
    (Specs.Spec.concrete_nodes s.Concretizer.spec)

let test_validity () =
  List.iter
    (fun spec ->
      let s = concrete spec in
      check_valid s;
      (* and the independent auditor agrees *)
      Alcotest.(check (list string))
        (spec ^ " passes Validate")
        []
        (List.map
           (Format.asprintf "%a" Validate.pp_violation)
           (Validate.check ~repo s.Concretizer.spec)))
    [ "zlib"; "hdf5"; "example"; "petsc"; "cmake" ]

let test_all_dependencies_resolved () =
  let s = concrete "example" in
  (* example depends on zlib, bzip2 (default +bzip) and some MPI *)
  Alcotest.(check bool) "zlib present" true (has_node s "zlib");
  Alcotest.(check bool) "bzip2 present" true (has_node s "bzip2");
  Alcotest.(check bool) "an mpi provider present" true
    (List.exists (has_node s) (Pkg.Repo.providers repo "mpi"))

(* ------------------------------------------------------------------ *)
(* Optimality (Table II)                                               *)
(* ------------------------------------------------------------------ *)

let test_newest_version () =
  let s = concrete "hdf5" in
  Alcotest.(check string) "newest hdf5" "1.13.1" (version_of s "hdf5");
  Alcotest.(check string) "newest zlib" "1.2.12" (version_of s "zlib")

let test_preferred_provider () =
  let s = concrete "hdf5" in
  Alcotest.(check bool) "mpich is the preferred mpi" true (has_node s "mpich");
  Alcotest.(check bool) "openmpi not pulled" false (has_node s "openmpi")

let test_default_variants () =
  let s = concrete "hdf5" in
  Alcotest.(check string) "+mpi default" "true" (variant_of s "hdf5" "mpi");
  Alcotest.(check string) "~szip default" "false" (variant_of s "hdf5" "szip")

let test_best_target_and_compiler () =
  let s = concrete "zlib" in
  let n = node_of s "zlib" in
  Alcotest.(check string) "preferred compiler" "gcc@11.2.0"
    (Specs.Compiler.to_string n.Specs.Spec.compiler);
  Alcotest.(check string) "best supported target" "icelake" n.Specs.Spec.target;
  Alcotest.(check string) "preferred os" "rhel8" n.Specs.Spec.os

let test_compiler_limits_target () =
  (* the paper's gcc-vs-skylake interaction: an old compiler caps the target *)
  let s = concrete "zlib%gcc@8.5.0" in
  Alcotest.(check string) "gcc 8 caps at skylake" "skylake"
    (node_of s "zlib").Specs.Spec.target;
  let s = concrete "zlib%gcc@4.8.5" in
  Alcotest.(check string) "gcc 4.8 caps at sandybridge" "sandybridge"
    (node_of s "zlib").Specs.Spec.target

let test_no_deprecated_by_default () =
  let s = concrete "python" in
  Alcotest.(check bool) "2.7.18 is deprecated, avoid" true (version_of s "python" <> "2.7.18");
  (* but an explicit request may use it (criterion 1 is a preference) *)
  let s = concrete "python@2.7.18~ssl~tkinter~optimizations" in
  Alcotest.(check string) "explicit deprecated ok" "2.7.18" (version_of s "python")

let test_dag_consistency () =
  (* criteria 8/9/14: no mismatches in an unconstrained solve *)
  let s = concrete "hdf5" in
  let root = node_of s "hdf5" in
  List.iter
    (fun (n : Specs.Spec.concrete_node) ->
      Alcotest.(check string) (n.Specs.Spec.name ^ " same compiler")
        (Specs.Compiler.to_string root.Specs.Spec.compiler)
        (Specs.Compiler.to_string n.Specs.Spec.compiler);
      Alcotest.(check string) (n.Specs.Spec.name ^ " same target")
        root.Specs.Spec.target n.Specs.Spec.target)
    (Specs.Spec.concrete_nodes s.Concretizer.spec)

let test_flag_propagation () =
  (* compiler flags (node parameter 5 of §III-A) propagate to built deps *)
  let s = concrete {|zlib cflags="-O2 -fPIC"|} in
  Alcotest.(check (list (pair string string))) "flags on the node"
    [ ("cflags", "-O2 -fPIC") ]
    (node_of s "zlib").Specs.Spec.flags;
  let s = concrete {|example cflags="-O3"|} in
  List.iter
    (fun (n : Specs.Spec.concrete_node) ->
      Alcotest.(check (option string)) (n.Specs.Spec.name ^ " inherits cflags")
        (Some "-O3")
        (List.assoc_opt "cflags" n.Specs.Spec.flags))
    (Specs.Spec.concrete_nodes s.Concretizer.spec)

let test_constraint_propagation () =
  (* constraints flow down the DAG (mismatch minimization) *)
  let s = concrete "hdf5%gcc@8.5.0 target=haswell" in
  List.iter
    (fun (n : Specs.Spec.concrete_node) ->
      Alcotest.(check string) (n.Specs.Spec.name ^ " target") "haswell" n.Specs.Spec.target;
      Alcotest.(check string) (n.Specs.Spec.name ^ " compiler") "gcc@8.5.0"
        (Specs.Compiler.to_string n.Specs.Spec.compiler))
    (Specs.Spec.concrete_nodes s.Concretizer.spec)

(* ------------------------------------------------------------------ *)
(* Constraints / completeness (§III-C.2, §V-B)                         *)
(* ------------------------------------------------------------------ *)

let test_version_constraint () =
  let s = concrete "hdf5@1.10.2 ^zlib@1.2.8" in
  Alcotest.(check string) "hdf5 pinned" "1.10.2" (version_of s "hdf5");
  Alcotest.(check string) "zlib pinned" "1.2.8" (version_of s "zlib")

let test_conditional_version_dep () =
  (* example@1.1.0: requires zlib@1.2.8:, example@1.0.0 does not *)
  let s = concrete "example@1.0.0 ^zlib@1.2.3" in
  Alcotest.(check string) "old zlib ok for 1.0.0" "1.2.3" (version_of s "zlib");
  unsat "example@1.1.0 ^zlib@1.2.3"

let test_conflicts () =
  unsat "example%intel";
  unsat "ucx@1.11.2 target=thunderx2";
  (* mvapich2 conflicts with aarch64 *)
  unsat "mvapich2 target=thunderx2";
  (* but the virtual can still be served on aarch64 by another provider *)
  let s = concrete "hdf5 target=thunderx2" in
  Alcotest.(check bool) "some mpi provider found" true
    (List.exists (has_node s) (Pkg.Repo.providers repo "mpi"));
  Alcotest.(check bool) "not mvapich2" false (has_node s "mvapich2")

let test_conditional_dependency_completeness () =
  (* §V-B.1: hpctoolkit ^mpich — greedy fails, ASP finds variant settings
     that make mpich reachable *)
  (match Greedy.concretize_spec ~repo "hpctoolkit ^mpich" with
  | Greedy.Error e ->
    Alcotest.(check bool) "greedy hints at overconstraining" true
      (e.Greedy.hint <> None)
  | Greedy.Ok _ -> Alcotest.fail "greedy should fail on hpctoolkit ^mpich");
  let s = concrete "hpctoolkit ^mpich" in
  Alcotest.(check bool) "mpich in the DAG" true (has_node s "mpich");
  check_valid s

let test_variant_forcing_on_root () =
  (* forcing via the root's own variant *)
  let s = concrete "hpctoolkit+mpi ^mpich" in
  Alcotest.(check string) "+mpi set" "true" (variant_of s "hpctoolkit" "mpi");
  Alcotest.(check bool) "mpich used" true (has_node s "mpich")

let test_backtracking_version_choice () =
  (* §III-C.2's bzip2 anecdote, reconstructed: dependent A wants dep@1.0.7:
     (greedy picks newest 1.0.8), dependent B (reached later) requires
     exactly dep@1.0.7.  Greedy cannot undo; the ASP solver backtracks. *)
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
  (match Greedy.concretize_spec ~repo:mini "app" with
  | Greedy.Error _ -> ()
  | Greedy.Ok _ -> Alcotest.fail "greedy should hit the 1.0.8 dead end");
  match Concretizer.solve_spec ~repo:mini "app" with
  | Concretizer.Concrete s ->
    Alcotest.(check string) "solver backtracks to 1.0.7" "1.0.7" (version_of s "dep")
  | Concretizer.Interrupted _ -> Alcotest.fail "unexpectedly interrupted"
  | Concretizer.Unsatisfiable _ -> Alcotest.fail "solvable instance reported UNSAT"

let test_provider_specialization () =
  (* §V-B.3: berkeleygw+openmp with openblas as lapack provider forces
     openblas+openmp *)
  let s = concrete "berkeleygw+openmp" in
  Alcotest.(check string) "openblas has openmp" "true" (variant_of s "openblas" "openmp");
  Alcotest.(check string) "fftw has openmp" "true" (variant_of s "fftw" "openmp");
  (* without openmp, openblas keeps its default *)
  let s = concrete "berkeleygw~openmp" in
  Alcotest.(check string) "openblas default" "false" (variant_of s "openblas" "openmp")

let test_multi_root_unification () =
  match Concretizer.solve ~repo
          [ Specs.Spec_parser.parse "h5utils"; Specs.Spec_parser.parse "netcdf-c" ]
  with
  | Concretizer.Concrete s ->
    (* both roots resolve against a single hdf5 node *)
    Alcotest.(check bool) "hdf5 shared" true (has_node s "hdf5")
  | Concretizer.Interrupted _ -> Alcotest.fail "unexpectedly interrupted"
  | Concretizer.Unsatisfiable _ -> Alcotest.fail "multi-root solve failed"

let test_unknown_package () =
  match solve "no-such-package" with
  | exception Facts.Unknown_package p -> Alcotest.(check string) "name" "no-such-package" p
  | _ -> Alcotest.fail "expected Unknown_package"

(* ------------------------------------------------------------------ *)
(* Reuse (Section VI, Figs. 4 and 6)                                   *)
(* ------------------------------------------------------------------ *)

let build_cache ?variations roots =
  let db = Pkg.Database.create () in
  ignore
    (Pkg.Buildcache_gen.populate ?variations ~repo
       ~combos:Pkg.Buildcache_gen.default_combos ~roots db
      : Pkg.Buildcache_gen.stats);
  db

let test_reuse_prefers_installed () =
  let db = build_cache [ "hdf5"; "zlib"; "cmake" ] in
  let s = concrete ~installed:db "hdf5" in
  Alcotest.(check bool) "most packages reused" true
    (List.length s.Concretizer.reused >= 3);
  Alcotest.(check int) "nothing to build" 0 (List.length s.Concretizer.built)

let test_reuse_counts_vs_hash_reuse () =
  (* Fig. 6: hash-based reuse gets 0 hits after a config change; the solver
     still reuses most of the graph *)
  let db = build_cache [ "hdf5" ] in
  (* ask for something slightly different from any cached config *)
  let s = concrete ~installed:db "hdf5+szip" in
  Alcotest.(check bool) "szip must be built" true
    (List.mem "hdf5" s.Concretizer.built || List.mem "szip" s.Concretizer.built);
  Alcotest.(check bool) "but dependencies are reused" true
    (List.length s.Concretizer.reused > 0)

let test_reuse_respects_constraints () =
  (* defaults only: every cached zlib is the newest version *)
  let db = build_cache ~variations:1 [ "zlib" ] in
  (* a constraint no cached entry satisfies forces a build *)
  let s = concrete ~installed:db "zlib@1.2.3" in
  Alcotest.(check string) "requested version" "1.2.3" (version_of s "zlib");
  Alcotest.(check bool) "built, not reused" true (List.mem "zlib" s.Concretizer.built)

let test_new_builds_use_defaults () =
  (* Section VI's cmake/openssl pathology: minimizing builds must not strip
     default variants from packages we do build *)
  let db = build_cache [ "zlib" ] in
  (* cmake is not cached: it must be built with its *default* config, even
     though building ~ncurses would mean fewer builds *)
  let s = concrete ~installed:db "cmake" in
  Alcotest.(check string) "cmake keeps +ncurses" "true" (variant_of s "cmake" "ncurses");
  Alcotest.(check bool) "cmake is built" true (List.mem "cmake" s.Concretizer.built)

let test_empty_cache_same_as_no_cache () =
  let db = Pkg.Database.create () in
  let with_empty = concrete ~installed:db "example" in
  let without = concrete "example" in
  Alcotest.(check string) "same root rendering"
    (Specs.Spec.concrete_node_to_string (Specs.Spec.concrete_root without.Concretizer.spec))
    (Specs.Spec.concrete_node_to_string (Specs.Spec.concrete_root with_empty.Concretizer.spec))

let test_greedy_hash_reuse () =
  (* Fig. 4: the old concretizer reuses only on exact hash match *)
  let db = build_cache [ "hdf5" ] in
  match Greedy.concretize_spec ~repo "hdf5" with
  | Greedy.Ok c ->
    let h = Specs.Spec.node_hash c "hdf5" in
    (* greedy's config may or may not match a cached hash exactly; with the
       default combo list it does for the default environment *)
    ignore (Pkg.Database.find db h)
  | Greedy.Error e -> Alcotest.failf "greedy failed: %s" e.Greedy.message

(* ------------------------------------------------------------------ *)
(* Fact generation, diagnostics, phases                                 *)
(* ------------------------------------------------------------------ *)

let test_fact_generation () =
  let facts = Facts.generate ~repo [ Specs.Spec_parser.parse "example" ] in
  Alcotest.(check bool) "plenty of facts" true (facts.Facts.n_facts > 300);
  Alcotest.(check bool) "closure includes deps" true
    (List.mem "zlib" facts.Facts.possible && List.mem "mpich" facts.Facts.possible);
  Alcotest.(check bool) "closure excludes unrelated" false
    (List.mem "petsc" facts.Facts.possible);
  let has_pred name =
    List.exists
      (function
        | Asp.Ast.Rule { head = Asp.Ast.Head_atom { pred; _ }; body = []; _ } -> pred = name
        | _ -> false)
      facts.Facts.statements
  in
  Alcotest.(check bool) "no optimize_for_reuse" false (has_pred "optimize_for_reuse");
  Alcotest.(check bool) "no installed_hash" false (has_pred "installed_hash");
  Alcotest.(check bool) "conflict ids recorded" true (facts.Facts.conflict_msgs <> [])

let test_fact_generation_with_reuse () =
  let db = build_cache ~variations:1 [ "zlib" ] in
  let roots = [ Specs.Spec_parser.parse "zlib" ] in
  let facts =
    Facts.generate ~installed:db ~reuse_mode:`Materialize ~repo roots
  in
  let count name =
    List.length
      (List.filter
         (function
           | Asp.Ast.Rule { head = Asp.Ast.Head_atom { pred; _ }; body = []; _ } ->
             pred = name
           | _ -> false)
         facts.Facts.statements)
  in
  Alcotest.(check bool) "optimize_for_reuse emitted" true (count "optimize_for_reuse" = 1);
  Alcotest.(check bool) "installed hashes" true (count "installed_hash" > 0);
  Alcotest.(check bool) "hash constraints" true (count "hash_constraint" > 0);
  (* the streaming default delivers the same facts via [reuse_stream]
     instead of statements, with an identical total count *)
  let streamed = Facts.generate ~installed:db ~repo roots in
  let stream =
    match streamed.Facts.reuse_stream with
    | Some s -> s
    | None -> Alcotest.fail "streaming mode produced no reuse stream"
  in
  let by_pred = Hashtbl.create 8 in
  stream (fun (ga : Asp.Gatom.t) ->
      let n =
        Option.value ~default:0 (Hashtbl.find_opt by_pred ga.Asp.Gatom.pred)
      in
      Hashtbl.replace by_pred ga.Asp.Gatom.pred (n + 1));
  let scount p = Option.value ~default:0 (Hashtbl.find_opt by_pred p) in
  Alcotest.(check int) "streamed installed_hash" (count "installed_hash")
    (scount "installed_hash");
  Alcotest.(check int) "streamed hash_constraint" (count "hash_constraint")
    (scount "hash_constraint");
  Alcotest.(check int) "streamed hash_dep" (count "hash_dep") (scount "hash_dep");
  Alcotest.(check int) "n_facts identical across modes" facts.Facts.n_facts
    streamed.Facts.n_facts

let test_phases_measured () =
  let s = concrete "hdf5" in
  let p = s.Concretizer.phases in
  Alcotest.(check bool) "ground > 0" true (p.Concretizer.ground_time > 0.0);
  Alcotest.(check bool) "solve > 0" true (p.Concretizer.solve_time > 0.0);
  Alcotest.(check bool) "total is the sum" true
    (abs_float
       (Concretizer.total p
       -. (p.Concretizer.setup_time +. p.Concretizer.load_time
          +. p.Concretizer.ground_time +. p.Concretizer.solve_time))
    < 1e-9)

let reasons_of spec =
  match solve spec with
  | Concretizer.Interrupted _ -> Alcotest.fail "unexpectedly interrupted"
  | Concretizer.Unsatisfiable { reasons; _ } -> reasons
  | Concretizer.Concrete _ -> Alcotest.failf "expected UNSAT: %s" spec

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_diagnostics () =
  let has reasons fragment = List.exists (fun r -> contains_substring r fragment) reasons in
  Alcotest.(check bool) "bad version explained" true
    (has (reasons_of "zlib@9.9") "no declared version");
  Alcotest.(check bool) "conflict explained" true
    (has (reasons_of "example%intel") "conflicts with");
  Alcotest.(check bool) "bad variant value explained" true
    (has (reasons_of "hdf5 api=nonsense") "admits");
  Alcotest.(check bool) "unknown variant explained" true
    (has (reasons_of "zlib+nonexistent") "no variant");
  Alcotest.(check bool) "unknown compiler explained" true
    (has (reasons_of "zlib%icc") "no compiler");
  Alcotest.(check bool) "dependency constraint explained" true
    (has (reasons_of "hdf5 ^zlib@9.9") "no declared version")

let test_logic_program_size () =
  Alcotest.(check bool) "nontrivial logic program" true (Logic_program.line_count > 120);
  Alcotest.(check bool) "parses" true (List.length (Logic_program.program ()) > 80)

let test_greedy_inherits_toolchain () =
  match Greedy.concretize_spec ~repo "hdf5%gcc@8.5.0" with
  | Greedy.Ok c ->
    List.iter
      (fun (n : Specs.Spec.concrete_node) ->
        Alcotest.(check string) (n.Specs.Spec.name ^ " compiler") "gcc@8.5.0"
          (Specs.Compiler.to_string n.Specs.Spec.compiler))
      (Specs.Spec.concrete_nodes c)
  | Greedy.Error e -> Alcotest.failf "greedy failed: %s" e.Greedy.message

let test_greedy_unknown_variant () =
  match Greedy.concretize_spec ~repo "zlib+nonexistent" with
  | Greedy.Error _ -> ()
  | Greedy.Ok _ -> Alcotest.fail "greedy accepted an unknown variant"

let test_strategies_agree_on_concretization () =
  List.iter
    (fun spec ->
      let render strategy =
        let config = Asp.Config.make ~strategy () in
        match Concretizer.solve_spec ~config ~repo spec with
        | Concretizer.Concrete s -> List.filter (fun (_, v) -> v <> 0) s.Concretizer.costs
        | Concretizer.Interrupted _ -> Alcotest.fail "unexpectedly interrupted"
        | Concretizer.Unsatisfiable _ -> Alcotest.failf "UNSAT: %s" spec
      in
      Alcotest.(check (list (pair int int)))
        ("bb = usc cost vector for " ^ spec)
        (render Asp.Config.Bb) (render Asp.Config.Usc))
    [ "hdf5"; "example"; "hdf5@1.10.2%gcc@8.5.0"; "berkeleygw+openmp" ]

(* ------------------------------------------------------------------ *)
(* Preferences (user configuration, the third input source)             *)
(* ------------------------------------------------------------------ *)

let test_prefs_version () =
  let prefs =
    {
      Preferences.empty with
      Preferences.packages =
        [
          ( "zlib",
            {
              Preferences.pref_version = Some (Specs.Vrange.of_string "1.2.8");
              pref_variants = [];
            } );
        ];
    }
  in
  let s =
    match Concretizer.solve_spec ~prefs ~repo "zlib" with
    | Concretizer.Concrete s -> s
    | Concretizer.Interrupted _ -> Alcotest.fail "unexpectedly interrupted"
    | Concretizer.Unsatisfiable _ -> Alcotest.fail "UNSAT"
  in
  Alcotest.(check string) "preferred version wins over newest" "1.2.8"
    (version_of s "zlib");
  (* a hard requirement still overrides the preference *)
  let s =
    match Concretizer.solve_spec ~prefs ~repo "zlib@1.2.12" with
    | Concretizer.Concrete s -> s
    | Concretizer.Interrupted _ -> Alcotest.fail "unexpectedly interrupted"
    | Concretizer.Unsatisfiable _ -> Alcotest.fail "UNSAT"
  in
  Alcotest.(check string) "spec overrides preference" "1.2.12" (version_of s "zlib")

let test_prefs_variant () =
  let prefs =
    {
      Preferences.empty with
      Preferences.packages =
        [
          ( "hdf5",
            { Preferences.pref_version = None; pref_variants = [ ("szip", "true") ] } );
        ];
    }
  in
  let s =
    match Concretizer.solve_spec ~prefs ~repo "hdf5" with
    | Concretizer.Concrete s -> s
    | Concretizer.Interrupted _ -> Alcotest.fail "unexpectedly interrupted"
    | Concretizer.Unsatisfiable _ -> Alcotest.fail "UNSAT"
  in
  Alcotest.(check string) "szip becomes the default" "true" (variant_of s "hdf5" "szip");
  Alcotest.(check bool) "szip node pulled in" true (has_node s "szip")

let test_prefs_greedy_agrees () =
  (* the old concretizer honored configuration preferences too *)
  let prefs =
    {
      Concretize.Preferences.empty with
      Concretize.Preferences.providers = [ ("mpi", [ "openmpi" ]) ];
      packages =
        [
          ( "hdf5",
            {
              Concretize.Preferences.pref_version = Some (Specs.Vrange.of_string "1.12");
              pref_variants = [];
            } );
        ];
    }
  in
  match Greedy.concretize_spec ~prefs ~repo "hdf5" with
  | Greedy.Ok c ->
    let hdf5 = Specs.Spec.Node_map.find "hdf5" c.Specs.Spec.nodes in
    Alcotest.(check string) "greedy prefers 1.12" "1.12.2"
      (Specs.Version.to_string hdf5.Specs.Spec.version);
    Alcotest.(check bool) "greedy uses openmpi" true
      (Specs.Spec.Node_map.mem "openmpi" c.Specs.Spec.nodes)
  | Greedy.Error e -> Alcotest.failf "greedy failed: %s" e.Greedy.message

let test_prefs_provider () =
  let prefs =
    { Preferences.empty with Preferences.providers = [ ("mpi", [ "openmpi" ]) ] }
  in
  let s =
    match Concretizer.solve_spec ~prefs ~repo "hdf5" with
    | Concretizer.Concrete s -> s
    | Concretizer.Interrupted _ -> Alcotest.fail "unexpectedly interrupted"
    | Concretizer.Unsatisfiable _ -> Alcotest.fail "UNSAT"
  in
  Alcotest.(check bool) "openmpi chosen" true (has_node s "openmpi");
  Alcotest.(check bool) "mpich not pulled" false (has_node s "mpich")

(* ------------------------------------------------------------------ *)
(* Independent validation (§III-C.1's validity checklist)               *)
(* ------------------------------------------------------------------ *)

let test_validator_accepts_solver_answers () =
  List.iter
    (fun spec ->
      let s = concrete spec in
      let vs = Validate.check ~repo s.Concretizer.spec in
      Alcotest.(check (list string))
        ("no violations for " ^ spec)
        []
        (List.map (Format.asprintf "%a" Validate.pp_violation) vs))
    [ "hdf5"; "example"; "petsc"; "berkeleygw+openmp"; "hpctoolkit ^mpich"; "trilinos" ]

let test_validator_catches_greedy_unsoundness () =
  (* greedy merges the user's ^hdf5+mpi over netcdf-c~mpi's requirement for
     hdf5~mpi without noticing the contradiction; the ASP solver proves the
     request unsatisfiable *)
  let spec = "netcdf-c~mpi ^hdf5+mpi" in
  unsat spec;
  match Greedy.concretize_spec ~repo spec with
  | Greedy.Error _ -> () (* also acceptable: refusing is sound *)
  | Greedy.Ok c ->
    Alcotest.(check bool) "validator flags the greedy answer" false
      (Validate.is_valid ~repo c)

let test_validator_catches_corruption () =
  let s = concrete "example" in
  let spec = s.Concretizer.spec in
  (* tamper: flip the root version to an undeclared one *)
  let root = Specs.Spec.concrete_root spec in
  let tampered =
    Specs.Spec.make_concrete ~root:spec.Specs.Spec.root
      ({ root with Specs.Spec.version = Specs.Version.of_string "99.9" }
      :: List.filter
           (fun (n : Specs.Spec.concrete_node) ->
             n.Specs.Spec.name <> spec.Specs.Spec.root)
           (Specs.Spec.concrete_nodes spec))
  in
  Alcotest.(check bool) "undeclared version flagged" false (Validate.is_valid ~repo tampered)

let prop_synth_solutions_validate =
  QCheck.Test.make ~count:15 ~name:"synthetic-repo answers pass independent validation"
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_range 1 1000))
    (fun seed ->
      let params = { (Pkg.Repo_synth.scaled 60) with Pkg.Repo_synth.seed } in
      let sr = Pkg.Repo_synth.repo params in
      (* pick an application root deterministically from the seed *)
      let apps =
        List.filter
          (fun p -> String.length p > 3 && String.sub p 0 3 = "app")
          (Pkg.Repo.package_names sr)
      in
      let root = List.nth apps (seed mod List.length apps) in
      match Concretizer.solve_spec ~repo:sr root with
      | Concretizer.Interrupted _ -> Alcotest.fail "unexpectedly interrupted"
      | Concretizer.Unsatisfiable _ -> true (* conflicts can make roots unsolvable *)
      | Concretizer.Concrete s -> Validate.is_valid ~repo:sr s.Concretizer.spec)

let test_multishot () =
  let roots =
    List.map Specs.Spec_parser.parse [ "hdf5"; "h5utils"; "openblas"; "berkeleygw+openmp" ]
  in
  let ms = Multishot.solve_stack ~repo roots in
  List.iter
    (fun (sh : Multishot.shot) ->
      match sh.Multishot.shot_result with
      | Concretizer.Concrete _ -> ()
      | Concretizer.Interrupted _ -> Alcotest.fail "unexpectedly interrupted"
      | Concretizer.Unsatisfiable _ ->
        Alcotest.failf "shot %s failed" sh.Multishot.shot_root)
    ms.Multishot.shots;
  Alcotest.(check bool) "database populated" true (Pkg.Database.size ms.Multishot.db > 10);
  (* later shots must reuse earlier results: the second shot's hdf5 is the
     first shot's hdf5 *)
  (match (List.nth ms.Multishot.shots 1).Multishot.shot_result with
  | Concretizer.Concrete s ->
    Alcotest.(check bool) "h5utils reused the hdf5 shot" true
      (List.exists (fun (p, _) -> p = "hdf5") s.Concretizer.reused)
  | Concretizer.Interrupted _ -> Alcotest.fail "unexpectedly interrupted"
  | Concretizer.Unsatisfiable _ -> Alcotest.fail "h5utils shot failed");
  (* berkeleygw+openmp needs openblas+openmp, but the third shot installed
     openblas~openmp: openblas ends up with two configurations *)
  Alcotest.(check bool) "openblas diverged" true
    (List.mem_assoc "openblas" ms.Multishot.distinct_configs)

(* ------------------------------------------------------------------ *)
(* The service layer's hooks: batch dedup, cache, request keys          *)
(* ------------------------------------------------------------------ *)

let costs_of = function
  | Concretizer.Concrete s -> s.Concretizer.costs
  | _ -> Alcotest.fail "expected a concrete result"

let solve' ~cache spec = Concretizer.solve_spec ~cache ~repo spec

let test_solve_many_dedupes () =
  (* a duplicate-heavy batch: 6 jobs, 2 unique requests (note the second
     zlib spelling differs but normalizes identically) *)
  let batch =
    [ "zlib@1:+shared"; "libiconv"; "zlib+shared@1:"; "zlib@1:+shared";
      "libiconv"; "zlib@1:+shared" ]
  in
  let roots = List.map (fun s -> [ Specs.Spec_parser.parse s ]) batch in
  let dispatches = Atomic.make 0 in
  let fault _round _budget = Atomic.incr dispatches in
  let results = Concretizer.solve_many ~fault ~repo roots in
  Alcotest.(check int) "one result per job" (List.length batch)
    (List.length results);
  Alcotest.(check int) "solved once per unique request" 2
    (Atomic.get dispatches);
  (* the single solve fans out: duplicates get identical results *)
  let r = Array.of_list results in
  Alcotest.(check (list (pair int int))) "zlib fan-out" (costs_of r.(0))
    (costs_of r.(3));
  Alcotest.(check (list (pair int int))) "normalized spelling joins"
    (costs_of r.(0)) (costs_of r.(2));
  Alcotest.(check (list (pair int int))) "libiconv fan-out" (costs_of r.(1))
    (costs_of r.(4))

let test_solve_cache_hook () =
  let store = Hashtbl.create 8 in
  let lookups = ref 0 and stores = ref 0 in
  let cache =
    {
      Concretizer.lookup =
        (fun k ->
          incr lookups;
          Hashtbl.find_opt store k);
      store =
        (fun k r ->
          incr stores;
          Hashtbl.replace store k r);
    }
  in
  let first = solve' ~cache "zlib" in
  Alcotest.(check int) "miss stored" 1 !stores;
  let second = solve' ~cache "zlib" in
  Alcotest.(check int) "two lookups" 2 !lookups;
  Alcotest.(check int) "hit stores nothing" 1 !stores;
  (match (first, second) with
  | Concretizer.Concrete a, Concretizer.Concrete b ->
    Alcotest.(check (list (pair int int))) "identical cost vector"
      a.Concretizer.costs b.Concretizer.costs;
    Alcotest.(check bool) "verified flag intact" a.Concretizer.verified
      b.Concretizer.verified;
    Alcotest.(check (pair (float 0.0) (float 0.0))) "original timings returned"
      ( a.Concretizer.phases.Concretizer.solve_time,
        a.Concretizer.phases.Concretizer.ground_time )
      ( b.Concretizer.phases.Concretizer.solve_time,
        b.Concretizer.phases.Concretizer.ground_time )
  | _ -> Alcotest.fail "expected concrete results");
  (* interrupted results never enter the cache: a budget-starved solve
     under the same key must not poison later solves *)
  let tok = Asp.Budget.token () in
  Asp.Budget.cancel tok;
  let budget = Asp.Budget.start ~cancel:tok Asp.Budget.no_limits in
  (match
     Concretizer.solve ~budget ~cache ~repo [ Specs.Spec_parser.parse "cmake" ]
   with
  | Concretizer.Interrupted _ -> ()
  | _ -> Alcotest.fail "expected an interrupted solve");
  Alcotest.(check int) "interrupted not stored" 1 !stores

let test_request_key () =
  let key ?installed s =
    Concretizer.request_key ?installed ~repo [ Specs.Spec_parser.parse s ]
  in
  Alcotest.(check string) "spelling-invariant" (key "zlib@1:+shared")
    (key "zlib+shared@1:");
  Alcotest.(check bool) "constraint-sensitive" true (key "zlib" <> key "zlib+pic");
  let config = Asp.Config.make ~preset:Asp.Config.Trendy () in
  Alcotest.(check bool) "config-sensitive" true
    (key "zlib"
    <> Concretizer.request_key ~config ~repo [ Specs.Spec_parser.parse "zlib" ]);
  (* budgets are excluded: only proven-optimal results are cached, and those
     do not depend on the limits that produced them *)
  let limits =
    { Asp.Budget.no_limits with Asp.Budget.wall = Some 5.0 }
  in
  let config = Asp.Config.make ~limits () in
  Alcotest.(check string) "budget-insensitive" (key "zlib")
    (Concretizer.request_key ~config ~repo [ Specs.Spec_parser.parse "zlib" ]);
  (* installing a package the request can see moves its key *)
  let db = Pkg.Database.create () in
  let k0 = key ~installed:db "zlib" in
  (match solve "zlib" with
  | Concretizer.Concrete s -> Pkg.Database.add_concrete db s.Concretizer.spec
  | _ -> Alcotest.fail "zlib solve failed");
  Alcotest.(check bool) "install invalidates" true (k0 <> key ~installed:db "zlib")

(* Narrowed install invalidation: the solve-cache key digests only the
   reuse-visible slice of the DB, so installing a package outside a
   request's closure leaves that request's key — and its cached answer —
   intact, while requests that can see the install are re-keyed. *)
let test_request_key_narrowing () =
  let db = Pkg.Database.create () in
  let roots s = [ Specs.Spec_parser.parse s ] in
  (* a root whose closure excludes zlib (verified, not assumed) *)
  let unrelated =
    match
      List.find_opt
        (fun s ->
          not (List.mem "zlib" (Facts.closure_packages ~repo (roots s))))
        [ "bzip2"; "autoconf"; "fftw"; "openblas" ]
    with
    | Some s -> s
    | None -> Alcotest.fail "no zlib-free root in the fixture repo"
  in
  let key s = Concretizer.request_key ~installed:db ~repo (roots s) in
  let unrelated_before = key unrelated and zlib_before = key "zlib" in
  (match Concretizer.solve ~installed:db ~repo (roots "zlib") with
  | Concretizer.Concrete s -> Pkg.Database.add_concrete db s.Concretizer.spec
  | _ -> Alcotest.fail "zlib solve failed");
  Alcotest.(check string) "unrelated key survives the install"
    unrelated_before (key unrelated);
  Alcotest.(check bool) "observing key is re-keyed" true
    (zlib_before <> key "zlib")

(* Every request grounds from scratch, so the base/extend split of
   [ground_time] is always zero; the fields stay in [phases] only for
   readers of the daemon's reply phases. *)
let test_ground_split_is_zero () =
  let p = (concrete "hdf5+szip").Concretizer.phases in
  Alcotest.(check bool) "ground > 0" true (p.Concretizer.ground_time > 0.);
  Alcotest.(check (float 0.)) "no base build" 0. p.Concretizer.ground_base_time;
  Alcotest.(check (float 0.)) "no extension" 0. p.Concretizer.ground_extend_time

let () =
  Alcotest.run "concretize"
    [
      ( "validity",
        [
          Alcotest.test_case "full validity" `Quick test_validity;
          Alcotest.test_case "dependencies resolved" `Quick test_all_dependencies_resolved;
        ] );
      ( "optimality",
        [
          Alcotest.test_case "newest version" `Quick test_newest_version;
          Alcotest.test_case "preferred provider" `Quick test_preferred_provider;
          Alcotest.test_case "default variants" `Quick test_default_variants;
          Alcotest.test_case "best target and compiler" `Quick test_best_target_and_compiler;
          Alcotest.test_case "compiler limits target" `Quick test_compiler_limits_target;
          Alcotest.test_case "avoid deprecated" `Quick test_no_deprecated_by_default;
          Alcotest.test_case "dag consistency" `Quick test_dag_consistency;
          Alcotest.test_case "constraint propagation" `Quick test_constraint_propagation;
          Alcotest.test_case "flag propagation" `Quick test_flag_propagation;
        ] );
      ( "completeness",
        [
          Alcotest.test_case "version constraints" `Quick test_version_constraint;
          Alcotest.test_case "conditional version dep" `Quick test_conditional_version_dep;
          Alcotest.test_case "conflicts" `Quick test_conflicts;
          Alcotest.test_case "conditional dependency (V-B.1)" `Quick
            test_conditional_dependency_completeness;
          Alcotest.test_case "variant forcing" `Quick test_variant_forcing_on_root;
          Alcotest.test_case "backtracking (III-C.2)" `Quick test_backtracking_version_choice;
          Alcotest.test_case "provider specialization (V-B.3)" `Quick
            test_provider_specialization;
          Alcotest.test_case "multi-root unification" `Quick test_multi_root_unification;
          Alcotest.test_case "unknown package" `Quick test_unknown_package;
        ] );
      ( "reuse",
        [
          Alcotest.test_case "prefers installed" `Quick test_reuse_prefers_installed;
          Alcotest.test_case "partial reuse (Fig. 6)" `Quick test_reuse_counts_vs_hash_reuse;
          Alcotest.test_case "respects constraints" `Quick test_reuse_respects_constraints;
          Alcotest.test_case "new builds use defaults" `Quick test_new_builds_use_defaults;
          Alcotest.test_case "empty cache" `Quick test_empty_cache_same_as_no_cache;
          Alcotest.test_case "greedy hash reuse" `Quick test_greedy_hash_reuse;
        ] );
      ( "validation",
        [
          Alcotest.test_case "solver answers validate" `Quick
            test_validator_accepts_solver_answers;
          Alcotest.test_case "greedy unsoundness caught" `Quick
            test_validator_catches_greedy_unsoundness;
          Alcotest.test_case "corruption caught" `Quick test_validator_catches_corruption;
          QCheck_alcotest.to_alcotest prop_synth_solutions_validate;
        ] );
      ( "multishot",
        [ Alcotest.test_case "divide and conquer" `Quick test_multishot ] );
      ( "service hooks",
        [
          Alcotest.test_case "solve_many dedupes" `Quick test_solve_many_dedupes;
          Alcotest.test_case "cache hook" `Quick test_solve_cache_hook;
          Alcotest.test_case "request keys" `Quick test_request_key;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "narrowed request keys" `Quick
            test_request_key_narrowing;
        ] );
      ( "phases",
        [ Alcotest.test_case "base/extend timings" `Quick test_ground_split_is_zero ] );
      ( "preferences",
        [
          Alcotest.test_case "preferred version" `Quick test_prefs_version;
          Alcotest.test_case "preferred variant" `Quick test_prefs_variant;
          Alcotest.test_case "preferred provider" `Quick test_prefs_provider;
          Alcotest.test_case "greedy honors preferences" `Quick test_prefs_greedy_agrees;
        ] );
      ( "internals",
        [
          Alcotest.test_case "fact generation" `Quick test_fact_generation;
          Alcotest.test_case "fact generation with reuse" `Quick
            test_fact_generation_with_reuse;
          Alcotest.test_case "phases measured" `Quick test_phases_measured;
          Alcotest.test_case "unsat diagnostics" `Quick test_diagnostics;
          Alcotest.test_case "logic program size" `Quick test_logic_program_size;
          Alcotest.test_case "greedy toolchain inheritance" `Quick
            test_greedy_inherits_toolchain;
          Alcotest.test_case "greedy unknown variant" `Quick test_greedy_unknown_variant;
          Alcotest.test_case "bb and usc agree" `Quick
            test_strategies_agree_on_concretization;
        ] );
    ]
