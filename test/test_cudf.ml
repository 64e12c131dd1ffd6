(* CUDF frontend tests: parser/printer round-trips, document semantics,
   differential solves against two independent oracles (the brute-force
   {!Cudf.Reference} enumerator and the engine-level {!Asp.Naive}
   all-subsets checker), curated UNSAT diagnoses, and the divergence of
   the paranoid and trendy criterion stacks. *)

open Cudf

let vp ?c name = { Doc.vname = name; Doc.vconstr = c }

let pkg ?(depends = []) ?(conflicts = []) ?(provides = []) ?(recommends = [])
    ?(installed = false) ?(keep = Doc.Knone) name version =
  { Doc.name; version; depends; conflicts; provides; recommends; installed; keep }

let doc ?(install = []) ?(upgrade = []) ?(remove = []) packages =
  { Doc.packages; request = { Doc.req_id = "t"; install; upgrade; remove } }

let costs_str costs =
  String.concat ","
    (List.map (fun (p, v) -> Printf.sprintf "%d@%d" v p) costs)

let state_str state =
  String.concat " " (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) state)

(* engine cost vectors omit levels whose minimize statements ground to
   nothing; compare against the reference with missing levels as 0 *)
let normalize ~against costs =
  List.map
    (fun (p, _) -> (p, Option.value ~default:0 (List.assoc_opt p costs)))
    against

(* ---------- parser / printer ---------- *)

let test_roundtrip_property () =
  let gen = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 500) in
  let t =
    QCheck.Test.make ~count:300 ~name:"print/parse roundtrip (small)" gen
      (fun seed ->
        let d = Synth.small ~seed () in
        Doc.equal d (Doc.parse (Doc.to_string d)))
  in
  QCheck.Test.check_exn t

let test_roundtrip_universe () =
  List.iter
    (fun (seed, n) ->
      let d = Synth.universe ~seed ~n () in
      Alcotest.(check bool)
        (Printf.sprintf "universe %d/%d roundtrips" seed n)
        true
        (Doc.equal d (Doc.parse (Doc.to_string d))))
    [ (0, 50); (1, 120); (7, 300) ]

let test_parse_details () =
  let text =
    "preamble: \nproperty: junk\n\n# comment\npackage: a\nversion: 2\ndepends: \
     b >= 1 | c, d != 3\nconflicts: e, a\nprovides: f = 4, g\nrecommends: \
     h\ninstalled: true\nkeep: version\nunknown-prop: ignored\n\npackage: b\n\
     version: 1\ndepends: true!\n\npackage: c\nversion: 1\ndepends: \
     false!\n\nrequest: r\ninstall: a > 1\nupgrade: b\nremove: c\n"
  in
  let d = Doc.parse text in
  Alcotest.(check int) "three stanzas" 3 (List.length d.Doc.packages);
  let a = List.find (fun p -> p.Doc.name = "a") d.Doc.packages in
  Alcotest.(check int) "cnf" 2 (List.length a.Doc.depends);
  Alcotest.(check int) "disjunction" 2 (List.length (List.hd a.Doc.depends));
  Alcotest.(check bool) "installed" true a.Doc.installed;
  Alcotest.(check bool) "keep" true (a.Doc.keep = Doc.Kversion);
  Alcotest.(check bool)
    "versioned provide" true
    (List.mem ("f", Some 4) a.Doc.provides && List.mem ("g", None) a.Doc.provides);
  let b = List.find (fun p -> p.Doc.name = "b") d.Doc.packages in
  Alcotest.(check bool) "true! is no clause" true (b.Doc.depends = []);
  let c = List.find (fun p -> p.Doc.name = "c") d.Doc.packages in
  Alcotest.(check bool) "false! is the empty clause" true (c.Doc.depends = [ [] ]);
  Alcotest.(check int) "request parsed" 1 (List.length d.Doc.request.Doc.install)

let expect_parse_error name text =
  match Doc.parse text with
  | exception Doc.Parse_error _ -> ()
  | _ -> Alcotest.failf "%s: expected Parse_error" name

let test_parse_errors () =
  expect_parse_error "missing version" "package: a\n\nrequest: r\n";
  expect_parse_error "bad version" "package: a\nversion: x\n\nrequest: r\n";
  expect_parse_error "duplicate stanza"
    "package: a\nversion: 1\n\npackage: a\nversion: 1\n\nrequest: r\n";
  expect_parse_error "two requests" "request: r\n\nrequest: s\n";
  expect_parse_error "provides with range"
    "package: a\nversion: 1\nprovides: f >= 2\n\nrequest: r\n"

let test_satisfies () =
  let p = pkg "a" 3 ~provides:[ ("f", Some 2); ("g", None) ] in
  let checks =
    [
      (vp "a", true);
      (vp "a" ~c:(Doc.Geq, 3), true);
      (vp "a" ~c:(Doc.Gt, 3), false);
      (vp "a" ~c:(Doc.Neq, 3), false);
      (vp "b", false);
      (* versioned feature matches exactly its version *)
      (vp "f", true);
      (vp "f" ~c:(Doc.Eq, 2), true);
      (vp "f" ~c:(Doc.Geq, 3), false);
      (* unversioned feature matches any constraint *)
      (vp "g" ~c:(Doc.Eq, 99), true);
    ]
  in
  List.iter
    (fun (v, expect) ->
      Alcotest.(check bool) (Doc.vpkg_to_string v) expect (Doc.satisfies p v))
    checks

(* ---------- differential: engine vs brute-force reference ---------- *)

let check_against_reference ?(explain = false) label d stack =
  let eng = Solver.solve ~explain ~stack d in
  let oracle = Reference.best ~stack d in
  match (eng, oracle) with
  | Solver.Interrupted _, _ -> Alcotest.failf "%s: interrupted" label
  | Solver.Unsatisfiable _, None -> ()
  | Solver.Solution s, Some (ref_costs, _) ->
    Alcotest.(check bool)
      (label ^ ": engine state valid per reference")
      true
      (Reference.valid_state d s.Solver.state);
    Alcotest.(check string)
      (label ^ ": optimal cost vector")
      (costs_str ref_costs)
      (costs_str (normalize ~against:ref_costs s.Solver.costs));
    Alcotest.(check bool) (label ^ ": verified") true s.Solver.verified;
    Alcotest.(check bool) (label ^ ": optimal") true (s.Solver.quality = `Optimal)
  | Solver.Solution s, None ->
    Alcotest.failf "%s: engine found %s but reference says UNSAT" label
      (state_str s.Solver.state)
  | Solver.Unsatisfiable _, Some (ref_costs, st) ->
    Alcotest.failf "%s: engine UNSAT but reference found %s (%s)" label
      (state_str st) (costs_str ref_costs)

let test_differential_small () =
  for seed = 0 to 80 do
    let d = Synth.small ~seed () in
    List.iter
      (fun stack ->
        check_against_reference
          (Printf.sprintf "small seed=%d stack=%s" seed (Criteria.name stack))
          d stack)
      Criteria.all
  done

(* the unsat-core path must agree with the oracle too (same verdicts), so
   run a slice of the stream with --explain semantics *)
let test_differential_small_explain () =
  for seed = 0 to 15 do
    let d = Synth.small ~seed () in
    check_against_reference ~explain:true
      (Printf.sprintf "small+explain seed=%d" seed)
      d Criteria.Paranoid
  done

(* ---------- differential: whole pipeline vs Asp.Naive ---------- *)

(* Extra-tiny universes (Naive enumerates all subsets of every candidate
   atom, derived ones included), cross-checking the CUDF logic program
   itself against a third, engine-independent implementation. *)
let naive_docs =
  [
    ("upgrade column", doc ~install:[ vp "a" ] [ pkg "a" 1 ~installed:true; pkg "a" 2 ]);
    ( "conflict forces old",
      doc ~install:[ vp "a" ]
        [ pkg "a" 1; pkg "a" 2 ~conflicts:[ vp "b" ]; pkg "b" 1 ~installed:true ] );
  ]

let test_differential_naive () =
  List.iter
    (fun (label, d) ->
      List.iter
        (fun stack ->
          let enc = Encode.generate ~installed_mode:`Materialize d in
          let program =
            Asp.Parser.parse (Logic.text stack) @ enc.Encode.statements
          in
          let naive = Asp.Naive.optimal_models program in
          let eng = Solver.solve ~stack d in
          match (naive, eng) with
          | [], Solver.Unsatisfiable _ -> ()
          | (_, ncosts) :: _, Solver.Solution s ->
            Alcotest.(check string)
              (Printf.sprintf "%s/%s: naive cost vector" label
                 (Criteria.name stack))
              (costs_str (normalize ~against:s.Solver.costs ncosts))
              (costs_str s.Solver.costs)
          | [], Solver.Solution s ->
            Alcotest.failf "%s: naive UNSAT, engine %s" label
              (state_str s.Solver.state)
          | _ :: _, Solver.Unsatisfiable _ ->
            Alcotest.failf "%s: naive SAT, engine UNSAT" label
          | _, Solver.Interrupted _ -> Alcotest.failf "%s: interrupted" label)
        Criteria.all)
    naive_docs

(* ---------- curated UNSAT diagnoses ---------- *)

let reasons_of d =
  match Solver.solve ~explain:true d with
  | Solver.Unsatisfiable { reasons; _ } -> String.concat "\n" reasons
  | Solver.Solution s ->
    Alcotest.failf "expected UNSAT, got %s" (state_str s.Solver.state)
  | Solver.Interrupted _ -> Alcotest.fail "interrupted"

let contains text needle =
  let nt = String.length text and nn = String.length needle in
  let rec go i = i + nn <= nt && (String.sub text i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let assert_mentions label text needles =
  List.iter
    (fun needle ->
      if not (contains text needle) then
        Alcotest.failf "%s: diagnosis does not mention %S:\n%s" label needle text)
    needles

let test_unsat_conflict_named () =
  (* install b, but a=1 (required by b) conflicts with b *)
  let d =
    doc ~install:[ vp "b" ]
      [ pkg "a" 1 ~conflicts:[ vp "b" ]; pkg "b" 1 ~depends:[ [ vp "a" ] ] ]
  in
  assert_mentions "conflict core" (reasons_of d)
    [ "package a=1 conflicts with b"; "b=1 depends on a"; "asks to install b" ]

let test_unsat_rival_providers_named () =
  let d =
    doc
      ~install:[ vp "p"; vp "q" ]
      [
        pkg "p" 1 ~provides:[ ("m", None) ] ~conflicts:[ vp "m" ];
        pkg "q" 1 ~provides:[ ("m", None) ] ~conflicts:[ vp "m" ];
      ]
  in
  assert_mentions "rival providers" (reasons_of d)
    [ "conflicts with m"; "asks to install p"; "asks to install q" ]

let test_unsat_heuristic_fallback () =
  (* without --explain the syntactic diagnosis catches unknown names and
     keep contradictions *)
  let d =
    doc
      ~install:[ vp "nosuch" ]
      ~remove:[ vp "a" ]
      [ pkg "a" 1 ~installed:true ~keep:Doc.Kversion ]
  in
  match Solver.solve d with
  | Solver.Unsatisfiable { reasons; _ } ->
    let text = String.concat "\n" reasons in
    assert_mentions "heuristic" text
      [ "unknown package nosuch"; "keep: version" ]
  | _ -> Alcotest.fail "expected UNSAT"

(* ---------- stack divergence and request semantics ---------- *)

(* editor 2 (newest) drags in a brand-new library: paranoid holds the
   installed world (remove/change nothing), trendy pays one new package
   to reach the all-newest frontier — provably different optima *)
let divergence_doc =
  doc ~install:[ vp "editor" ]
    [
      pkg "editor" 1 ~installed:true ~conflicts:[ vp "editor" ];
      pkg "editor" 2 ~conflicts:[ vp "editor" ] ~depends:[ [ vp "libnew" ] ];
      pkg "libnew" 1;
    ]

let solved_state label d stack =
  match Solver.solve ~stack d with
  | Solver.Solution s -> s
  | Solver.Unsatisfiable _ -> Alcotest.failf "%s: unexpectedly UNSAT" label
  | Solver.Interrupted _ -> Alcotest.failf "%s: interrupted" label

let test_stacks_diverge () =
  let p = solved_state "paranoid" divergence_doc Criteria.Paranoid in
  let t = solved_state "trendy" divergence_doc Criteria.Trendy in
  Alcotest.(check string)
    "paranoid keeps the installed editor" "editor=1"
    (state_str p.Solver.state);
  Alcotest.(check string)
    "trendy upgrades and pays a new package" "editor=2 libnew=1"
    (state_str t.Solver.state);
  Alcotest.(check string) "paranoid optimum" "0@20,0@19" (costs_str p.Solver.costs);
  Alcotest.(check string)
    "trendy optimum" "0@20,1@19"
    (costs_str (normalize ~against:[ (20, 0); (19, 0) ] t.Solver.costs))

let test_upgrade_semantics () =
  (* upgrade: exactly one version, no downgrade below the installed one *)
  let d =
    doc ~upgrade:[ vp "a" ]
      [ pkg "a" 1; pkg "a" 2 ~installed:true; pkg "a" 3 ]
  in
  let s = solved_state "upgrade" d Criteria.Paranoid in
  let versions_of_a = List.filter (fun (n, _) -> n = "a") s.Solver.state in
  Alcotest.(check bool)
    "single version, not below installed" true
    (match versions_of_a with [ (_, v) ] -> v >= 2 | _ -> false);
  (* downgrade-only universe is unsatisfiable under upgrade *)
  let d' = doc ~upgrade:[ vp "b" ] [ pkg "b" 2 ~installed:true ] in
  let d' =
    { d' with Doc.packages = pkg "b" 1 :: d'.Doc.packages }
  in
  let d' =
    {
      d' with
      Doc.packages =
        List.filter (fun p -> not (p.Doc.name = "b" && p.Doc.version = 2)) d'.Doc.packages
        @ [ { (pkg "b" 2 ~installed:true) with Doc.depends = [ [] ] } ];
    }
  in
  match Solver.solve d' with
  | Solver.Unsatisfiable _ -> ()
  | _ -> Alcotest.fail "upgrade with only a broken target must be UNSAT"

let test_keep_semantics () =
  (* keep: version pins the stanza even though trendy wants the newest *)
  let d =
    doc
      [ pkg "a" 1 ~installed:true ~keep:Doc.Kversion ~conflicts:[ vp "a" ];
        pkg "a" 2 ~conflicts:[ vp "a" ] ]
  in
  let s = solved_state "keep" d Criteria.Trendy in
  Alcotest.(check string) "pinned at 1" "a=1" (state_str s.Solver.state);
  Alcotest.(check string)
    "and it counts as outdated" "1@20"
    (costs_str (List.filter (fun (p, _) -> p = 20) s.Solver.costs))

(* ---------- encoder modes and determinism ---------- *)

(* Streamed installed-state facts must ground to the very same program as
   the materialized statements: byte-comparing the printed ground program
   covers atom ids, rules and minimize entries. *)
let test_stream_equals_materialize () =
  let d = Synth.universe ~seed:5 ~n:400 () in
  let em = Encode.generate ~installed_mode:`Materialize d in
  let es = Encode.generate d in
  Alcotest.(check bool) "the universe has installed state" true
    (es.Encode.installed_stream <> None);
  Alcotest.(check int) "same fact count" em.Encode.n_facts es.Encode.n_facts;
  List.iter
    (fun stack ->
      let lp = Asp.Parser.parse (Logic.text stack) in
      let gm, _ = Asp.Grounder.ground (lp @ em.Encode.statements) in
      let gs, _ =
        Asp.Grounder.ground ?facts_stream:es.Encode.installed_stream
          (lp @ es.Encode.statements)
      in
      let pm = Format.asprintf "%a" Asp.Ground.pp gm
      and ps = Format.asprintf "%a" Asp.Ground.pp gs in
      if not (String.equal pm ps) then
        Alcotest.failf "%s: ground programs differ (materialized %d bytes, streamed %d)"
          (Criteria.name stack) (String.length pm) (String.length ps))
    Criteria.all

let test_synth_deterministic () =
  let a = Synth.universe ~seed:3 ~n:200 () in
  let b = Synth.universe ~seed:3 ~n:200 () in
  Alcotest.(check bool) "same doc" true (Doc.equal a b);
  Alcotest.(check int) "exact stanza count" 200 (List.length a.Doc.packages);
  let c = Synth.universe ~seed:4 ~n:200 () in
  Alcotest.(check bool) "seed changes the universe" false (Doc.equal a c)

let test_synth_sat_by_construction () =
  List.iter
    (fun (seed, n) ->
      let d = Synth.universe ~seed ~n () in
      List.iter
        (fun stack ->
          let s =
            solved_state (Printf.sprintf "synth %d/%d" seed n) d stack
          in
          Alcotest.(check bool) "verified optimal" true
            (s.Solver.verified && s.Solver.quality = `Optimal))
        Criteria.all)
    [ (11, 150); (12, 350) ]

let () =
  Alcotest.run "cudf"
    [
      ( "doc",
        [
          Alcotest.test_case "roundtrip property" `Quick test_roundtrip_property;
          Alcotest.test_case "roundtrip universes" `Quick test_roundtrip_universe;
          Alcotest.test_case "parse details" `Quick test_parse_details;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "satisfies" `Quick test_satisfies;
        ] );
      ( "differential",
        [
          Alcotest.test_case "vs reference (81 universes)" `Slow
            test_differential_small;
          Alcotest.test_case "vs reference with unsat cores" `Slow
            test_differential_small_explain;
          Alcotest.test_case "vs Asp.Naive" `Quick test_differential_naive;
        ] );
      ( "diagnose",
        [
          Alcotest.test_case "conflict stanza named" `Quick
            test_unsat_conflict_named;
          Alcotest.test_case "rival providers named" `Quick
            test_unsat_rival_providers_named;
          Alcotest.test_case "heuristic fallback" `Quick
            test_unsat_heuristic_fallback;
        ] );
      ( "stacks",
        [
          Alcotest.test_case "paranoid vs trendy diverge" `Quick
            test_stacks_diverge;
          Alcotest.test_case "upgrade semantics" `Quick test_upgrade_semantics;
          Alcotest.test_case "keep semantics" `Quick test_keep_semantics;
        ] );
      ( "encode",
        [
          Alcotest.test_case "stream = materialize" `Slow
            test_stream_equals_materialize;
          Alcotest.test_case "synth determinism" `Quick test_synth_deterministic;
          Alcotest.test_case "synth satisfiable by construction" `Slow
            test_synth_sat_by_construction;
        ] );
    ]
