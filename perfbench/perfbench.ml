(* The repository benchmark.

   perfbench run --workload W --seed N --seconds S --trace 0|1
                 --golden DIR --out DIR --serve-bin PATH
   perfbench record --workload W --golden DIR

   [run] prints, as its last line, one JSON object with the op counts and
   either the end-to-end metrics (--trace 0) or the per-layer metrics of a
   traced run (--trace 1, which also writes a Chrome trace-event file into
   --out).  [record] regenerates a workload's golden answers. *)

open Harness

let workloads = [ "spack-repo"; "e4s-reuse"; "cudf-mixed"; "serve-mixed" ]

let per_layer =
  [
    ("facts.self_s", "s"); ("facts.n_facts", "count"); ("doc.self_s", "s");
    ("encode.self_s", "s"); ("encode.n_facts", "count"); ("load.self_s", "s");
    ("ground.self_s", "s"); ("ground.rules", "count"); ("ground.atoms", "count");
    ("translate.self_s", "s"); ("translate.vars", "count"); ("search.self_s", "s");
    ("search.conflicts", "count"); ("search.decisions", "count");
    ("search.propagations", "count"); ("search.props_per_s", "1/s");
    ("search.models", "count"); ("stable.self_s", "s"); ("stable.checks", "count");
    ("stable.accept_ratio", "ratio"); ("verify.self_s", "s"); ("extract.self_s", "s");
    ("server.rtt_s.miss_p50", "s"); ("server.rtt_s.hit_p50", "s");
    ("server.rtt_s.install_p50", "s"); ("server.compute_s", "s");
    ("server.wait_s", "s"); ("server.ground_base_s", "s");
    ("server.ground_extend_s", "s"); ("server.cache.hit_ratio", "ratio");
    ("server.substrate.extend_ratio", "ratio"); ("server.substrate.fallbacks", "count");
    ("server.sched.deduped", "count"); ("server.shed", "count");
    ("trace.overhead", "ratio"); ("trace.coverage", "ratio");
    ("trace.counts_match", "count");
  ]

(* Layers a workload does not reach report 0. *)
let layer_metrics values =
  List.map
    (fun (name, unit_) ->
      Measure.metric name unit_ (Option.value (List.assoc_opt name values) ~default:0.))
    per_layer

let setup_reps = 3

(* Set up [setup_reps] times (each with its untimed warm-up op) and keep
   the last; set-up time is their median, each calibrated like an op. *)
let set_up name ~seed =
  let times, s =
    List.fold_left
      (fun (times, _) () ->
        let s, dt =
          calibrated (fun () ->
              let s = Inproc.setup name ~seed in
              s.Inproc.warmup ();
              s)
        in
        (dt :: times, Some s))
      ([], None)
      (List.init setup_reps ignore)
  in
  (Option.get s, Measure.median times)

(* cudf-mixed's pass is the shortest, so it alone fits a second pass in
   the time budget; over eight seeds, the median (the mean) of two passes
   cut its throughput spread from 16% to 11% and its p50 spread from 18%
   to 14%. *)
let min_passes = function "cudf-mixed" -> 2 | _ -> 1

let untraced name ~seed ~seconds golden =
  let s, setup_s = set_up name ~seed in
  let t =
    passes ~min_passes:(min_passes name) ~seconds (fun t ->
        calibrated_pass t (fun o -> attempt golden o.key o.run) s.Inproc.ops)
  in
  (t, end_to_end t ~peak_rss_mb:(Measure.peak_rss_mb "self") ~setup_s)

(* Each op runs untraced and replayed under spans; the replay's search
   statistics are compared with the untraced run's.  Which of the two goes
   first alternates per op, so neither side always gets the warm caches. *)
let traced name ~seed golden =
  let s = Inproc.setup name ~seed in
  s.Inproc.warmup ();
  let t = tally () in
  let untraced_s = ref 0. and traced_s = ref 0. and matched = ref 0 in
  List.iteri
    (fun i o ->
      let untraced () = attempt golden o.key o.run in
      let traced () = attempt golden o.key (fun () -> Trace.span ~op:i "op" (fun () -> o.replay i)) in
      let (du, au), (dt, at) =
        if i mod 2 = 0 then
          let u = untraced () in
          (u, traced ())
        else
          let r = traced () in
          (untraced (), r)
      in
      untraced_s := !untraced_s +. du;
      traced_s := !traced_s +. dt;
      record t (du +. dt, if Option.is_none au then None else at);
      match (au, at) with
      | Some a, Some b when a.sat <> None && a.sat = b.sat -> incr matched
      | _ -> ())
    s.Inproc.ops;
  let self = Trace.self_times () in
  let layers = [ "facts"; "doc"; "encode"; "load"; "ground"; "translate"; "search"; "stable"; "verify"; "extract" ] in
  let op_s = Trace.total "op" in
  let values =
    List.map (fun l -> (l ^ ".self_s", self l)) layers
    @ List.map
        (fun c -> (c, Trace.counter c))
        [
          "facts.n_facts"; "encode.n_facts"; "ground.rules"; "ground.atoms";
          "translate.vars"; "search.conflicts"; "search.decisions";
          "search.propagations"; "search.models"; "stable.checks";
        ]
    @ [
        ("search.props_per_s", Measure.ratio (Trace.counter "search.propagations") (self "search"));
        ("stable.accept_ratio", Measure.ratio (Trace.counter "stable.accepts") (Trace.counter "stable.checks"));
        ("trace.overhead", Measure.ratio !untraced_s !traced_s);
        ("trace.coverage", Measure.ratio (op_s -. self "op") op_s);
        ("trace.counts_match", float_of_int !matched);
      ]
  in
  (t.attempted, t.failed, values)

let () =
  let cmd = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let golden_dir = ref "" and out = ref "" and serve_bin = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the inputs are made from");
      ("--seconds", Arg.Set_float seconds, "S run whole passes until S seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--golden", Arg.Set_string golden_dir, "DIR golden answers");
      ("--out", Arg.Set_string out, "DIR scratch and trace output");
      ("--serve-bin", Arg.Set_string serve_bin, "PATH spack_serve executable");
    ]
  in
  let usage = "perfbench (run|record) --workload NAME [options]" in
  (try Arg.parse_argv ~current:(ref 1) Sys.argv spec (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage
   with Arg.Bad m | Arg.Help m ->
     prerr_string m;
     exit 2);
  if not (List.mem !workload workloads) then begin
    Printf.eprintf "unknown workload %S (one of: %s)\n" !workload (String.concat ", " workloads);
    exit 2
  end;
  match cmd with
  | "record" ->
    let pairs =
      if !workload = "serve-mixed" then Serve.goldens () else Inproc.goldens (Inproc.ops !workload)
    in
    Golden.save !golden_dir !workload pairs
  | "run" ->
    let golden = Golden.load !golden_dir !workload in
    let serve = !workload = "serve-mixed" in
    let attempted, failed, metrics =
      if !trace = 0 then
        let t, metrics =
          if serve then Serve.untraced ~bin:!serve_bin ~out:!out ~seed:!seed ~seconds:!seconds golden
          else untraced !workload ~seed:!seed ~seconds:!seconds golden
        in
        (t.attempted, t.failed, metrics)
      else
        let attempted, failed, values =
          if serve then Serve.traced ~bin:!serve_bin ~out:!out ~seed:!seed golden
          else traced !workload ~seed:!seed golden
        in
        let path = Filename.concat !out (Printf.sprintf "trace-%s-%d.json" !workload !seed) in
        Trace.write_chrome path;
        Printf.eprintf "trace written to %s\n%!" path;
        (attempted, failed, layer_metrics values)
    in
    print_endline
      (Measure.result_line ~correct:(failed = 0) ~attempted ~failed metrics)
  | _ ->
    prerr_endline usage;
    exit 2
