(* cudf_solve: solve Linux-distro package universes (CUDF documents, the
   Mancoosi / Debian upgrade-problem exchange format) on the same ASP
   engine that concretizes Spack specs. *)

open Cmdliner

let print_phases (p : Cudf.Solver.phases) =
  Printf.printf
    "Phases: setup %.3fs, load %.3fs, ground %.3fs, solve %.3fs (total %.3fs)\n"
    p.Cudf.Solver.setup_time p.Cudf.Solver.load_time p.Cudf.Solver.ground_time
    p.Cudf.Solver.solve_time (Cudf.Solver.total p)

let print_result ~stack ~show_stats ~show_state result =
  match result with
  | Cudf.Solver.Interrupted { info; phases; n_facts } ->
    Format.printf "INTERRUPTED: %a@." Asp.Budget.pp_info info;
    if show_stats then begin
      Printf.printf "Facts: %d\n" n_facts;
      print_phases phases
    end;
    3
  | Cudf.Solver.Unsatisfiable { reasons; phases; n_facts } ->
    print_endline "UNSATISFIABLE: no state satisfies the request";
    List.iter (Printf.printf "  possible cause: %s\n") reasons;
    if show_stats then begin
      Printf.printf "Facts: %d\n" n_facts;
      print_phases phases
    end;
    1
  | Cudf.Solver.Solution s ->
    Printf.printf "SOLVED (%s): %d packages in the final state\n"
      (Cudf.Criteria.name stack)
      (List.length s.Cudf.Solver.state);
    Printf.printf "  removed %d, new %d, changed %d\n"
      (List.length s.Cudf.Solver.removed)
      (List.length s.Cudf.Solver.installed_new)
      (List.length s.Cudf.Solver.changed);
    List.iter
      (fun pv -> Format.printf "  %a@." (Cudf.Criteria.pp_cost stack) pv)
      s.Cudf.Solver.costs;
    (match s.Cudf.Solver.quality with
    | `Optimal -> print_endline "  optimality proven at every level"
    | `Degraded _ ->
      print_endline
        "  note: budget expired mid-optimization; this state is valid but \
         may be suboptimal");
    if s.Cudf.Solver.verified then
      print_endline "  verified: independent model check passed";
    if show_state then
      List.iter
        (fun (n, v) -> Printf.printf "    %s = %d\n" n v)
        s.Cudf.Solver.state;
    if show_stats then begin
      Printf.printf
        "Universe: %d packages, %d facts, %d satisfier sets, logic program: \
         %d lines\n"
        s.Cudf.Solver.n_packages s.Cudf.Solver.n_facts s.Cudf.Solver.n_sets
        (Cudf.Logic.line_count stack);
      let g = s.Cudf.Solver.ground_stats in
      Printf.printf "Ground: %d atoms, %d rules\n" g.Asp.Grounder.possible_atoms
        g.Asp.Grounder.ground_rules;
      let st = s.Cudf.Solver.sat_stats in
      Printf.printf "Search: %d conflicts, %d decisions, %d restarts\n"
        st.Asp.Sat.conflicts st.Asp.Sat.decisions st.Asp.Sat.restarts;
      print_phases s.Cudf.Solver.phases
    end;
    0

let run file synth seed stack_name preset timeout retries jobs explain
    no_verify show_stats show_state =
  let stack =
    match Cudf.Criteria.of_name stack_name with
    | Some s -> s
    | None ->
      Printf.eprintf "unknown criterion stack %S (use paranoid or trendy)\n"
        stack_name;
      exit 2
  in
  let preset =
    match Asp.Config.preset_of_name preset with
    | Some p -> p
    | None ->
      Printf.eprintf "unknown preset %s\n" preset;
      exit 2
  in
  let doc =
    match (file, synth) with
    | "", 0 ->
      Printf.eprintf "Error: give a CUDF file or --synth N\n";
      exit 2
    | "", n -> Cudf.Synth.universe ~seed ~n ()
    | f, 0 -> (
      let text =
        try
          let ic = open_in_bin f in
          let len = in_channel_length ic in
          let s = really_input_string ic len in
          close_in ic;
          s
        with Sys_error m ->
          Printf.eprintf "Error: %s\n" m;
          exit 2
      in
      match Cudf.Doc.parse text with
      | doc -> doc
      | exception Cudf.Doc.Parse_error (line, msg) ->
        Printf.eprintf "Error: %s:%d: %s\n" f line msg;
        exit 2)
    | _ ->
      Printf.eprintf "Error: give either a file or --synth N, not both\n";
      exit 2
  in
  let limits =
    {
      Asp.Budget.no_limits with
      Asp.Budget.wall = (if timeout > 0. then Some timeout else None);
    }
  in
  let config = Asp.Config.make ~preset ~limits ~verify:(not no_verify) () in
  (* first ^C cancels the solve cooperatively; a second one kills *)
  let tok = Asp.Budget.token () in
  Sys.set_signal Sys.sigint
    (Sys.Signal_handle
       (fun _ ->
         if Asp.Budget.is_cancelled tok then exit 130;
         Asp.Budget.cancel tok));
  let solve ?pool ?racers () =
    Cudf.Solver.solve_escalating ~attempts:(retries + 1) ~config ~cancel:tok
      ?pool ?racers ~explain ~stack doc
  in
  let result =
    if jobs <= 1 then solve ()
    else
      Asp.Pool.with_pool ~domains:jobs (fun pool ->
          solve ~pool ~racers:jobs ())
  in
  exit (print_result ~stack ~show_stats ~show_state result)

let file =
  Arg.(value & pos 0 string "" & info [] ~docv:"FILE"
         ~doc:"CUDF document to solve (stanza format: preamble, package \
               stanzas, one request stanza).")

let synth =
  Arg.(value & opt int 0 & info [ "synth" ] ~docv:"N"
         ~doc:"Solve a deterministic synthetic Debian-like universe of N \
               package stanzas instead of reading a file.")

let seed =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"S"
         ~doc:"Random seed for --synth.")

let stack_name =
  Arg.(value & opt string "paranoid" & info [ "stack" ] ~docv:"STACK"
         ~doc:"User-objective criterion stack: 'paranoid' (minimize removed, \
               then changed) or 'trendy' (minimize outdated, then new, then \
               unmet recommends).")

let preset =
  Arg.(value & opt string "tweety" & info [ "preset" ] ~docv:"PRESET"
         ~doc:"clingo-style solver preset (tweety|trendy|handy|frumpy|jumpy|crafty).")

let timeout =
  Arg.(value & opt float 0. & info [ "timeout" ] ~docv:"SECS"
         ~doc:"Wall-clock budget per solve in seconds (0 = none).")

let retries =
  Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N"
         ~doc:"On an interrupted solve, retry up to N times with doubled \
               limits and a reseeded search.")

let jobs =
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Race N diverse solver configurations on N domains (portfolio).")

let explain =
  Arg.(value & flag & info [ "explain" ]
         ~doc:"On an unsatisfiable universe, extract a provenance-mapped \
               minimal unsat core naming the offending depends:/conflicts: \
               stanzas and request lines (slower than the default syntactic \
               diagnosis).")

let no_verify =
  Arg.(value & flag & info [ "no-verify" ]
         ~doc:"Skip the independent re-verification of the winning model.")

let stats =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print solver phases and statistics.")

let show_state =
  Arg.(value & flag & info [ "state" ] ~doc:"Print the full final installation state.")

let cmd =
  let doc = "solve CUDF package universes with the ASP-based dependency solver" in
  let man =
    [
      `S Manpage.s_examples;
      `P "Solve a 1000-stanza synthetic Debian-like universe:";
      `Pre "  cudf_solve --synth 1000 --stats";
      `P "Trendy upgrade run over a CUDF document, with portfolio racing:";
      `Pre "  cudf_solve --stack trendy -j 4 universe.cudf";
      `P "Name the stanzas behind an unsatisfiable request:";
      `Pre "  cudf_solve --explain broken.cudf";
    ]
  in
  Cmd.v (Cmd.info "cudf_solve" ~doc ~man)
    Term.(
      const run $ file $ synth $ seed $ stack_name $ preset $ timeout
      $ retries $ jobs $ explain $ no_verify $ stats $ show_state)

let () = exit (Cmd.eval cmd)
