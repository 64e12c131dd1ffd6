(* serve-mixed: [spack_serve --workers 1 -j 1] on a fresh state directory,
   driven by one closed-loop [Server.Client] connection (daemon callers
   block on each reply) through a seeded script.

   The script has one segment per install plus one.  Each segment takes
   its own roots from the pool, so every op's cache outcome is fixed by
   construction: a root's first solve is a miss that builds a substrate
   base, its two constraint variants are misses that extend that base, and
   the segment ends with exact repeats, which are hits.  An install closes
   every segment but the last; it goes through the journal fsync and the
   copy-on-swap database and re-keys the cached answers whose closure sees
   the new records.  The seed picks which roots go into which segment and
   the order inside each segment; the golden of a solve is keyed by its
   segment, because the installed database differs between segments. *)

open Harness

(* Roots whose solves each take about 10 ms in process or less, so a miss
   fits within one tick of the worker's 50 ms poll and the latency
   percentiles sit on that plateau instead of flipping between ticks. *)
let pool =
  [
    "m4"; "libsigsegv"; "libtool"; "gmake"; "zstd"; "bzip2"; "xz"; "readline";
    "expat"; "libbsd"; "libmd"; "gdbm"; "libffi"; "libpng"; "szip"; "libfabric";
    "cuda"; "intel-mkl"; "amdblis"; "swig"; "pcre"; "lz4"; "papi"; "libunwind";
    "libmonitor";
  ]

let installs = [ "zlib"; "ncurses"; "libiconv"; "pkgconf" ]
let warmup_spec = "perl"
let roots_per_segment = List.length pool / (List.length installs + 1)
let repeats_per_root = 2

(* The root, its oldest declared version, and a non-default compiler. *)
let variants name =
  let versions = Pkg.Package.declared_versions (Pkg.Repo.find_exn Inproc.repo name) in
  let oldest = (List.nth versions (List.length versions - 1)).Pkg.Package.vversion in
  [ name; name ^ "@" ^ Specs.Version.to_string oldest; name ^ "%gcc@8.5.0" ]

type kind = First | Variant | Repeat | Install

type req = { kind : kind; spec : string; key : string }

let solve_key k spec = Printf.sprintf "seg%d %s" k spec
let install_key k spec = Printf.sprintf "install%d %s" k spec

let script ~seed =
  let rng = Random.State.make [| seed |] in
  let segment k roots =
    let queues =
      List.map
        (fun r ->
          ref
            (List.mapi
               (fun i spec ->
                 { kind = (if i = 0 then First else Variant); spec; key = solve_key k spec })
               (variants r)))
        roots
    in
    (* interleave the roots, keeping each root's first solve before its
       variants *)
    let rec interleave acc =
      match List.filter (fun q -> !q <> []) queues with
      | [] -> List.rev acc
      | live -> (
        let q = List.nth live (Random.State.int rng (List.length live)) in
        match !q with
        | x :: rest ->
          q := rest;
          interleave (x :: acc)
        | [] -> assert false)
    in
    let solves = interleave [] in
    let repeats =
      List.concat_map
        (fun r ->
          let vs = variants r in
          List.init repeats_per_root (fun _ ->
              let spec = List.nth vs (Random.State.int rng (List.length vs)) in
              { kind = Repeat; spec; key = solve_key k spec }))
        roots
    in
    solves @ shuffle rng repeats
  in
  let roots = Array.of_list (shuffle rng pool) in
  List.concat
    (List.init (List.length installs + 1) (fun k ->
         let seg = segment k (Array.to_list (Array.sub roots (k * roots_per_segment) roots_per_segment)) in
         match List.nth_opt installs k with
         | Some spec -> seg @ [ { kind = Install; spec; key = install_key k spec } ]
         | None -> seg))

let install_value hashes total =
  let hs = List.sort compare (List.map (fun (n, h) -> n ^ "=" ^ h) hashes) in
  Printf.sprintf "new=%d,total=%d,hashes=%s" (List.length hs) total
    (Digest.to_hex (Digest.string (String.concat ";" hs)))

(* Goldens, solved in process against the database each segment sees. *)
let goldens () =
  let db = ref (Pkg.Database.create ()) in
  List.concat
    (List.init (List.length installs + 1) (fun k ->
         let solves =
           List.concat_map
             (fun r ->
               List.map
                 (fun spec ->
                   let a = Inproc.spack_run ~installed:!db spec () in
                   Inproc.golden_entry ~key:(solve_key k spec) a
                     (Inproc.spack_optima ~installed:!db spec a))
                 (variants r))
             pool
         in
         match List.nth_opt installs k with
         | None -> solves
         | Some spec ->
           (* the database every later segment sees depends on this
              answer, so it must be the only optimum *)
           let s = Inproc.concretize ~installed:!db spec in
           if List.length (Inproc.spack_optima ~installed:!db spec (Inproc.spack_run ~installed:!db spec ())) <> 1 then
             failwith ("install with tied optima: " ^ spec);
           let fresh = Pkg.Database.copy !db in
           Pkg.Database.add_concrete fresh s.Concretize.Concretizer.spec;
           let hashes =
             List.filter_map
               (fun (r : Pkg.Database.record) ->
                 match Pkg.Database.find !db r.Pkg.Database.hash with
                 | Some _ -> None
                 | None -> Some (r.Pkg.Database.name, r.Pkg.Database.hash))
               (Pkg.Database.records fresh)
           in
           db := fresh;
           let id = install_value hashes (Pkg.Database.size fresh) in
           solves @ [ (install_key k spec, { Golden.g_costs = ""; g_ids = [ id ] }) ]))

(* ------------------------------------------------------------------ *)
(* The daemon                                                          *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; dir : string; client : Server.Client.t }

(* Daemons started and not yet reaped. *)
let children : (int, unit) Hashtbl.t = Hashtbl.create 4

let reap pid = Hashtbl.remove children pid

(* Never leave a daemon behind, whatever ends the run. *)
let () =
  at_exit (fun () ->
      Hashtbl.iter
        (fun pid () ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        children;
      Hashtbl.reset children)

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let log_tail dir =
  try
    let ic = open_in (Filename.concat dir "daemon.log") in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  with Sys_error _ -> ""

let counter = ref 0

let start ~bin ~out =
  incr counter;
  let dir = Filename.concat out (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) !counter) in
  if Sys.file_exists dir then remove_tree dir;
  Sys.mkdir dir 0o755;
  let socket = Filename.concat dir "s.sock" in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let argv =
    [|
      bin; "--socket"; socket; "--db"; Filename.concat dir "installed.db";
      "--workers"; "1"; "-j"; "1";
    |]
  in
  let pid = Unix.create_process bin argv Unix.stdin log log in
  Unix.close log;
  Hashtbl.replace children pid ();
  (* ready once it answers [stats] *)
  let deadline = Measure.now () +. 60. in
  let rec wait () =
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ ->
      reap pid;
      failwith ("spack_serve exited during start-up:\n" ^ log_tail dir));
    let ready =
      if not (Sys.file_exists socket) then None
      else
        match Server.Client.connect ~retries:0 ~recv_timeout:120. socket with
        | Error _ -> None
        | Ok c -> (
          match Server.Client.request c Server.Protocol.Stats with
          | Ok (Server.Protocol.Stats_reply _) -> Some c
          | _ ->
            Server.Client.close c;
            None)
    in
    match ready with
    | Some c -> c
    | None ->
      if Measure.now () > deadline then failwith "spack_serve did not become ready";
      Unix.sleepf 0.002;
      wait ()
  in
  { pid; dir; client = wait () }

let stats d =
  match Server.Client.request d.client Server.Protocol.Stats with
  | Ok (Server.Protocol.Stats_reply j) -> j
  | _ -> failwith "stats request failed"

let stat j path =
  let rec go j = function
    | [] -> Option.value (Server.Json.to_int j) ~default:0
    | k :: rest -> (
      match Server.Json.member k j with Some v -> go v rest | None -> 0)
  in
  float_of_int (go j path)

(* Clean shutdown: [Shutdown] answered by [Bye], then a zero exit. *)
let finish d =
  (match Server.Client.request d.client Server.Protocol.Shutdown with
  | Ok Server.Protocol.Bye -> ()
  | _ -> failwith "spack_serve did not acknowledge shutdown");
  Server.Client.close d.client;
  let deadline = Measure.now () +. 60. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
      if Measure.now () > deadline then failwith "spack_serve did not exit after shutdown";
      Unix.sleepf 0.01;
      wait ()
    | _, status ->
      reap d.pid;
      status
  in
  (match wait () with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> failwith (Printf.sprintf "spack_serve exited with %d:\n%s" n (log_tail d.dir))
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
    failwith (Printf.sprintf "spack_serve killed by signal %d" n));
  remove_tree d.dir

(* ------------------------------------------------------------------ *)
(* Ops                                                                 *)
(* ------------------------------------------------------------------ *)

type outcome = {
  req : req;
  rtt : float;
  phases : Concretize.Concretizer.phases option;  (** as the daemon reports them *)
  sat : int array option;
}

let request d r =
  let msg =
    match r.kind with
    | Install -> Server.Protocol.install r.spec
    | First | Variant | Repeat -> Server.Protocol.solve r.spec
  in
  match Server.Client.request d.client msg with
  | Error m -> fail "transport: %s" m
  | Ok (Server.Protocol.Error { message; _ }) -> fail "daemon error: %s" message
  | Ok (Server.Protocol.Installed { hashes; total; _ }) when r.kind = Install ->
    ({ costs = ""; id = Lazy.from_val (install_value hashes total); sat = None }, None)
  | Ok (Server.Protocol.Result { result = Concretize.Concretizer.Concrete s; _ })
    when r.kind <> Install ->
    (Inproc.spack_answer s, Some s.Concretize.Concretizer.phases)
  | Ok _ -> fail "unexpected reply"

let run_script ?(traced = false) d golden tally reqs =
  List.mapi
    (fun i r ->
      let phases = ref None in
      let f () =
        let a, p = request d r in
        phases := p;
        a
      in
      let f = if traced then fun () -> Trace.span ~op:i "request" f else f in
      let rtt, ok = attempt golden r.key f in
      record tally (rtt, ok);
      { req = r; rtt; phases = !phases; sat = Option.bind ok (fun a -> a.sat) })
    reqs

let warmup d = ignore (request d { kind = First; spec = warmup_spec; key = "" })

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

let setup_reps = 5

let untraced ~bin ~out ~seed ~seconds golden =
  let reqs = script ~seed in
  let prepare () =
    let d = start ~bin ~out in
    warmup d;
    d
  in
  let rec setups k times prev =
    Option.iter finish prev;
    let d, dt = Measure.time prepare in
    if k = 1 then (d, Measure.median (dt :: times)) else setups (k - 1) (dt :: times) (Some d)
  in
  let d, setup_s = setups setup_reps [] None in
  (* every pass gets a fresh daemon, so it sees the same cache outcomes *)
  let current = ref d and peaks = ref [] in
  let stop () =
    peaks := Measure.peak_rss_mb (string_of_int !current.pid) :: !peaks;
    finish !current
  in
  let between () =
    stop ();
    current := prepare ()
  in
  let t =
    passes ~between ~min_passes:3 ~seconds (fun t -> ignore (run_script !current golden t reqs))
  in
  stop ();
  (t, end_to_end t ~peak_rss_mb:(Measure.median !peaks) ~setup_s)

(* One untraced and one traced pass of the same script, each on a fresh
   daemon; the daemon-side split comes from each reply's phases and from
   the [stats] counters read around the traced pass. *)
let traced ~bin ~out ~seed golden =
  let reqs = script ~seed in
  let one ~traced =
    let d = start ~bin ~out in
    warmup d;
    let s0 = stats d in
    let t = tally () in
    let log, elapsed = Measure.time (fun () -> run_script ~traced d golden t reqs) in
    let s1 = stats d in
    finish d;
    (t, log, elapsed, fun path -> stat s1 path -. stat s0 path)
  in
  let tu, log_u, el_u, _ = one ~traced:false in
  let tt, log_t, el_t, delta = one ~traced:true in
  let rtts kinds = List.filter_map (fun o -> if List.mem o.req.kind kinds then Some o.rtt else None) log_t in
  let misses = List.filter (fun o -> (o.req.kind = First || o.req.kind = Variant) && o.phases <> None) log_t in
  let phase f = List.map (fun o -> f (Option.get o.phases)) misses in
  let compute = phase Concretize.Concretizer.total in
  let miss_rtt = List.map (fun o -> o.rtt) misses in
  let matched =
    List.fold_left2
      (fun n a b -> if a.sat <> None && a.sat = b.sat then n + 1 else n)
      0 log_u log_t
  in
  let hits = delta [ "cache"; "hits" ] and misses_n = delta [ "cache"; "misses" ] in
  let ext = delta [ "substrate"; "extensions" ] and bases = delta [ "substrate"; "base_builds" ] in
  let rps (t : tally) el = Measure.ratio (float_of_int (t.attempted - t.failed)) el in
  let layers =
    [
      ("server.rtt_s.miss_p50", Measure.median (rtts [ First; Variant ]));
      ("server.rtt_s.hit_p50", Measure.median (rtts [ Repeat ]));
      ("server.rtt_s.install_p50", Measure.median (rtts [ Install ]));
      ("server.compute_s", Measure.mean compute);
      ("server.wait_s", Measure.mean (List.map2 ( -. ) miss_rtt compute));
      ("server.ground_base_s", Measure.sum (phase (fun p -> p.Concretize.Concretizer.ground_base_time)));
      ("server.ground_extend_s", Measure.sum (phase (fun p -> p.Concretize.Concretizer.ground_extend_time)));
      ("server.cache.hit_ratio", Measure.ratio hits (hits +. misses_n));
      ("server.substrate.extend_ratio", Measure.ratio ext (ext +. bases));
      ("server.substrate.fallbacks", delta [ "substrate"; "fallbacks" ]);
      ("server.sched.deduped", delta [ "scheduler"; "deduped" ]);
      ("server.shed", delta [ "scheduler"; "shed" ]);
      ("trace.overhead", Measure.ratio (rps tt el_t) (rps tu el_u));
      ("trace.coverage", Measure.ratio (Measure.sum compute) (Measure.sum miss_rtt));
      ("trace.counts_match", float_of_int matched);
    ]
  in
  let attempted = tu.attempted + tt.attempted and failed = tu.failed + tt.failed in
  (attempted, failed, layers)
