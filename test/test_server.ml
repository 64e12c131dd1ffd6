(* Tests for the concretization service: JSON codec, the content-addressed
   solve cache (memory + disk), the request scheduler and the daemon
   end-to-end over a real Unix socket. *)

module C = Concretize.Concretizer
module J = Server.Json

let repo = Pkg.Repo_core.repo

(* a slow instance for the cancellation / overload window *)
let slow_repo = lazy (Pkg.Repo_synth.repo (Pkg.Repo_synth.scaled 4000))

let uid =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "%d-%d" (Unix.getpid ()) !n

let temp_dir () =
  let d = Filename.concat (Filename.get_temp_dir_name ()) ("spack-test-" ^ uid ()) in
  Unix.mkdir d 0o755;
  d

let solve spec = C.solve_spec ~repo spec

let concrete spec =
  match solve spec with
  | C.Concrete s -> s
  | _ -> Alcotest.failf "expected a concrete result for %s" spec

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let values =
    [
      J.Null;
      J.Bool true;
      J.Int (-42);
      J.Float 3.25;
      J.Str "with \"quotes\", back\\slash,\nnewline and \001 control";
      J.List [ J.Int 1; J.Str "two"; J.List []; J.Obj [] ];
      J.Obj [ ("a", J.Bool false); ("nested", J.Obj [ ("b", J.List [ J.Null ]) ]) ];
    ]
  in
  List.iter
    (fun v ->
      match J.of_string (J.to_string v) with
      | Ok v' ->
        Alcotest.(check string) "roundtrip" (J.to_string v) (J.to_string v')
      | Error m -> Alcotest.failf "reparse failed: %s" m)
    values

let test_json_errors () =
  List.iter
    (fun s ->
      match J.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected a parse error for %S" s)
    [ "{"; "[1,"; "\"unterminated"; "1 2"; "{\"a\" 1}"; "truthy"; "" ]

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let codec_roundtrip r =
  let j = Server.Codec.result_to_json r in
  match Server.Codec.result_of_json j with
  | Error m -> Alcotest.failf "decode failed: %s" m
  | Ok r' ->
    Alcotest.(check string) "re-encoding identical"
      (J.to_string j)
      (J.to_string (Server.Codec.result_to_json r'))

let test_codec_concrete () =
  let r = solve "hdf5" in
  codec_roundtrip r;
  match (r, Server.Codec.result_of_json (Server.Codec.result_to_json r)) with
  | C.Concrete s, Ok (C.Concrete s') ->
    Alcotest.(check (list (pair int int))) "cost vector survives" s.C.costs s'.C.costs;
    Alcotest.(check bool) "verified survives" s.C.verified s'.C.verified;
    Alcotest.(check string) "same DAG hash"
      (Specs.Spec.node_hash s.C.spec s.C.spec.Specs.Spec.root)
      (Specs.Spec.node_hash s'.C.spec s'.C.spec.Specs.Spec.root)
  | _ -> Alcotest.fail "expected concrete results"

let test_codec_unsat () =
  match solve "zlib@999.9" with
  | C.Unsatisfiable _ as r -> codec_roundtrip r
  | _ -> Alcotest.fail "expected UNSAT"

let test_codec_interrupted () =
  codec_roundtrip
    (C.Interrupted
       {
         info =
           {
             Asp.Budget.phase = Asp.Budget.Search;
             reason = Asp.Budget.Deadline;
             progress = { Asp.Budget.conflicts = 3; instances = 14; opt_steps = 1 };
           };
         phases =
           {
               C.setup_time = 0.125;
               load_time = 0.5;
               ground_time = 0.25;
               ground_base_time = 0.1;
               ground_extend_time = 0.05;
               solve_time = 1.0;
             };
         n_facts = 100;
         n_possible = 7;
       })

let test_codec_rejects_garbage () =
  List.iter
    (fun s ->
      match J.of_string s with
      | Error _ -> ()
      | Ok j -> (
        match Server.Codec.result_of_json j with
        | Error _ -> ()
        | Ok _ -> Alcotest.failf "expected decode failure for %s" s))
    [
      "{}";
      "{\"outcome\":\"concrete\"}";
      "{\"outcome\":\"interrupted\",\"info\":{\"phase\":\"warp\",\"reason\":\"deadline\",\"conflicts\":0,\"instances\":0,\"opt_steps\":0},\"phases\":{\"setup\":0,\"load\":0,\"ground\":0,\"solve\":0},\"n_facts\":0,\"n_possible\":0}";
    ]

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let test_cache_lru () =
  let r = C.Concrete (concrete "zlib") in
  let cache = Server.Cache.create ~mem_capacity:2 () in
  Server.Cache.store cache "k1" r;
  Server.Cache.store cache "k2" r;
  (* touch k1 so k2 becomes the LRU victim *)
  Alcotest.(check bool) "k1 hit" true (Server.Cache.lookup cache "k1" <> None);
  Server.Cache.store cache "k3" r;
  let s = Server.Cache.stats cache in
  Alcotest.(check int) "one eviction" 1 s.Server.Cache.evictions;
  Alcotest.(check int) "bounded" 2 s.Server.Cache.mem_entries;
  Alcotest.(check bool) "k2 was evicted" true (Server.Cache.lookup cache "k2" = None);
  Alcotest.(check bool) "k1 survived" true (Server.Cache.lookup cache "k1" <> None);
  Alcotest.(check bool) "k3 present" true (Server.Cache.lookup cache "k3" <> None);
  let s = Server.Cache.stats cache in
  Alcotest.(check int) "hits counted" 3 s.Server.Cache.hits;
  Alcotest.(check int) "misses counted" 1 s.Server.Cache.misses

let test_cache_disk () =
  let dir = temp_dir () in
  let r = C.Concrete (concrete "zlib") in
  let c1 = Server.Cache.create ~dir () in
  Server.Cache.store c1 "deadbeef" r;
  (* a fresh instance over the same directory serves the entry from disk *)
  let c2 = Server.Cache.create ~dir () in
  (match Server.Cache.lookup c2 "deadbeef" with
  | None -> Alcotest.fail "expected a disk hit"
  | Some r' ->
    Alcotest.(check string) "identical result"
      (J.to_string (Server.Codec.result_to_json r))
      (J.to_string (Server.Codec.result_to_json r')));
  let s = Server.Cache.stats c2 in
  Alcotest.(check int) "disk hit counted" 1 s.Server.Cache.disk_hits;
  (* promoted into memory: the second lookup does not re-read the file *)
  ignore (Server.Cache.lookup c2 "deadbeef");
  let s = Server.Cache.stats c2 in
  Alcotest.(check int) "promoted to memory" 1 s.Server.Cache.disk_hits;
  Alcotest.(check int) "both hits" 2 s.Server.Cache.hits

let test_cache_corruption () =
  let dir = temp_dir () in
  let r = C.Concrete (concrete "zlib") in
  let path = Filename.concat dir "k.solve" in
  let write lines =
    let oc = open_out path in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc
  in
  let read_lines () =
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    go []
  in
  let fresh () = Server.Cache.create ~dir () in
  Server.Cache.store (fresh ()) "k" r;
  let original = read_lines () in
  Alcotest.(check bool) "intact file hits" true
    (Server.Cache.lookup (fresh ()) "k" <> None);
  (* truncated: the digest footer is missing *)
  write (List.filteri (fun i _ -> i < 2) original);
  Alcotest.(check bool) "truncated file is a miss" true
    (Server.Cache.lookup (fresh ()) "k" = None);
  (* corrupt: payload byte flipped, digest no longer matches *)
  (match original with
  | [ header; key; body; footer ] ->
    let body = Bytes.of_string body in
    Bytes.set body (Bytes.length body / 2) '?';
    write [ header; key; Bytes.to_string body; footer ]
  | _ -> Alcotest.fail "unexpected cache file shape");
  Alcotest.(check bool) "corrupt file is a miss" true
    (Server.Cache.lookup (fresh ()) "k" = None);
  (* stale format version: internally consistent, still ignored *)
  (match original with
  | [ _; key; body; _ ] ->
    let header = "spack-solve-cache v0" in
    let digest = Specs.Spec.digest_strings [ header; key; body ] in
    write [ header; key; body; "digest\t" ^ digest ]
  | _ -> Alcotest.fail "unexpected cache file shape");
  Alcotest.(check bool) "stale format is a miss" true
    (Server.Cache.lookup (fresh ()) "k" = None)

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)
(* ------------------------------------------------------------------ *)

let await_done sched ticket =
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec go () =
    match Server.Scheduler.poll sched ticket with
    | `Done r -> r
    | `Pending ->
      if Unix.gettimeofday () > deadline then Alcotest.fail "job never finished";
      Unix.sleepf 0.005;
      go ()
  in
  go ()

let test_scheduler_single_flight () =
  Asp.Pool.with_pool ~domains:2 (fun pool ->
      let sched = Server.Scheduler.create ~pool ~max_pending:4 in
      let gate = Atomic.make false in
      let job ~cancel =
        ignore cancel;
        while not (Atomic.get gate) do
          Domain.cpu_relax ()
        done;
        42
      in
      let t1 =
        match Server.Scheduler.submit sched ~key:"k" job with
        | `Accepted t -> t
        | `Overloaded -> Alcotest.fail "unexpected shed"
      in
      let t2 =
        match Server.Scheduler.submit sched ~key:"k" job with
        | `Accepted t -> t
        | `Overloaded -> Alcotest.fail "unexpected shed"
      in
      let s = Server.Scheduler.stats sched in
      Alcotest.(check int) "one pool job" 1 s.Server.Scheduler.submitted;
      Alcotest.(check int) "second joined" 1 s.Server.Scheduler.deduped;
      Atomic.set gate true;
      (match (await_done sched t1, await_done sched t2) with
      | Ok a, Ok b ->
        Alcotest.(check int) "same result" a b;
        Alcotest.(check int) "it is 42" 42 a
      | _ -> Alcotest.fail "job failed");
      let s = Server.Scheduler.stats sched in
      Alcotest.(check int) "completed once" 1 s.Server.Scheduler.completed;
      Alcotest.(check int) "nothing pending" 0 s.Server.Scheduler.pending)

let test_scheduler_overload () =
  Asp.Pool.with_pool ~domains:1 (fun pool ->
      let sched = Server.Scheduler.create ~pool ~max_pending:1 in
      let gate = Atomic.make false in
      let job ~cancel =
        ignore cancel;
        while not (Atomic.get gate) do
          Domain.cpu_relax ()
        done;
        0
      in
      let t1 =
        match Server.Scheduler.submit sched ~key:"a" job with
        | `Accepted t -> t
        | `Overloaded -> Alcotest.fail "first job shed"
      in
      (match Server.Scheduler.submit sched ~key:"b" job with
      | `Overloaded -> ()
      | `Accepted _ -> Alcotest.fail "expected `Overloaded");
      (* joining the in-flight key adds no work, so it is never shed *)
      (match Server.Scheduler.submit sched ~key:"a" job with
      | `Accepted t -> Server.Scheduler.abandon sched t
      | `Overloaded -> Alcotest.fail "join was shed");
      let s = Server.Scheduler.stats sched in
      Alcotest.(check int) "shed counted" 1 s.Server.Scheduler.shed;
      Atomic.set gate true;
      ignore (await_done sched t1))

let test_scheduler_cancel () =
  Asp.Pool.with_pool ~domains:1 (fun pool ->
      let sched = Server.Scheduler.create ~pool ~max_pending:2 in
      let job ~cancel =
        while not (Asp.Budget.is_cancelled cancel) do
          Unix.sleepf 0.002
        done;
        7
      in
      let t =
        match Server.Scheduler.submit sched ~key:"k" job with
        | `Accepted t -> t
        | `Overloaded -> Alcotest.fail "unexpected shed"
      in
      Server.Scheduler.abandon sched t;
      let s = Server.Scheduler.stats sched in
      Alcotest.(check int) "cancellation counted" 1 s.Server.Scheduler.cancelled;
      (* the job observes the token and terminates *)
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec drain () =
        let s = Server.Scheduler.stats sched in
        if s.Server.Scheduler.pending = 0 then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "cancelled job never unwound"
        else begin
          Unix.sleepf 0.01;
          drain ()
        end
      in
      drain ())

let accepted = function
  | `Accepted t -> t
  | `Overloaded -> Alcotest.fail "unexpected shed"

let wait_until what cond =
  let deadline = Unix.gettimeofday () +. 30.0 in
  while not (cond ()) do
    if Unix.gettimeofday () > deadline then Alcotest.failf "never: %s" what;
    Domain.cpu_relax ()
  done

let gated_job gate v ~cancel =
  ignore cancel;
  while not (Atomic.get gate) do
    Domain.cpu_relax ()
  done;
  v

(* Every waiter's waker fires once the shared job lands — the deduped
   joiner's too — and a woken ticket polls [`Done]. *)
let test_scheduler_wakes () =
  let pool = Asp.Pool.create ~domains:1 in
  let sched = Server.Scheduler.create ~pool ~max_pending:4 in
  let gate = Atomic.make false in
  Fun.protect ~finally:(fun () -> Atomic.set gate true; Asp.Pool.shutdown pool)
  @@ fun () ->
  let w1 = Atomic.make 0 and w2 = Atomic.make 0 in
  let t1 =
    accepted
      (Server.Scheduler.submit sched ~wake:(fun () -> Atomic.incr w1) ~key:"k"
         (gated_job gate 5))
  in
  let t2 =
    accepted
      (Server.Scheduler.submit sched ~wake:(fun () -> Atomic.incr w2) ~key:"k"
         (gated_job gate 6))
  in
  Alcotest.(check int) "joined" 1 (Server.Scheduler.stats sched).deduped;
  Alcotest.(check bool) "pending before landing" true
    (Server.Scheduler.poll sched t2 = `Pending);
  Alcotest.(check int) "no wake before landing" 0 (Atomic.get w1 + Atomic.get w2);
  Atomic.set gate true;
  wait_until "both wakers fired" (fun () -> Atomic.get w1 > 0 && Atomic.get w2 > 0);
  (match (Server.Scheduler.poll sched t1, Server.Scheduler.poll sched t2) with
  | `Done (Ok 5), `Done (Ok 5) -> ()
  | _ -> Alcotest.fail "a woken ticket must poll done with the shared result");
  let s = Server.Scheduler.stats sched in
  Alcotest.(check int) "completed" 1 s.completed;
  Alcotest.(check int) "nothing pending" 0 s.pending;
  Asp.Pool.shutdown pool;
  Alcotest.(check int) "first waker fired once" 1 (Atomic.get w1);
  Alcotest.(check int) "joiner's waker fired once" 1 (Atomic.get w2)

(* A submit racing the landing of the flight it targets: it either joins
   the flight (possibly after the job completed, before the flight left
   the table) or starts a new one once the flight landed.  Either way its
   waker fires exactly once — no wake-up is lost in the window.  A submit
   made from inside the landing waker itself is strictly after the
   landing, so it starts a fresh flight, which wakes it in turn. *)
let test_scheduler_late_joiner_woken () =
  let rounds = 300 in
  let pool = Asp.Pool.create ~domains:2 in
  let sched = Server.Scheduler.create ~pool ~max_pending:4 in
  let woken = Array.init rounds (fun _ -> Atomic.make 0) in
  for i = 0 to rounds - 1 do
    let key = string_of_int i in
    let gate = Atomic.make false in
    let t0 = accepted (Server.Scheduler.submit sched ~key (gated_job gate i)) in
    Atomic.set gate true;
    let t =
      accepted
        (Server.Scheduler.submit sched
           ~wake:(fun () -> Atomic.incr woken.(i))
           ~key (gated_job gate i))
    in
    wait_until "racing joiner woken" (fun () -> Atomic.get woken.(i) > 0);
    (match Server.Scheduler.poll sched t with
    | `Done (Ok v) when v = i -> ()
    | _ -> Alcotest.fail "woken joiner did not poll done");
    ignore (await_done sched t0)
  done;
  let inner = Atomic.make 0 in
  let outer_gate = Atomic.make false in
  ignore
    (accepted
       (Server.Scheduler.submit sched
          ~wake:(fun () ->
            ignore
              (accepted
                 (Server.Scheduler.submit sched
                    ~wake:(fun () -> Atomic.incr inner)
                    ~key:"in-waker"
                    (fun ~cancel:_ -> 0))))
          ~key:"in-waker" (gated_job outer_gate 0)));
  let before = (Server.Scheduler.stats sched).submitted in
  Atomic.set outer_gate true;
  wait_until "submit from a landing waker woken" (fun () -> Atomic.get inner > 0);
  Alcotest.(check int) "landed flight is not joined" (before + 1)
    (Server.Scheduler.stats sched).submitted;
  Asp.Pool.shutdown pool;
  Array.iteri
    (fun i w -> if Atomic.get w <> 1 then Alcotest.failf "round %d: %d wakes" i (Atomic.get w))
    woken;
  Alcotest.(check int) "inner waker fired once" 1 (Atomic.get inner)

(* Regression: a flight lands and leaves the table, a new flight for the
   same key starts, and only then is the old ticket polled.  The late poll
   must not evict the new flight: it stays pending and a third submit for
   the key joins it instead of starting a duplicate solve. *)
let test_scheduler_late_poll () =
  Asp.Pool.with_pool ~domains:2 (fun pool ->
      let sched = Server.Scheduler.create ~pool ~max_pending:2 in
      let landed = Atomic.make false in
      let old =
        accepted
          (Server.Scheduler.submit sched
             ~wake:(fun () -> Atomic.set landed true)
             ~key:"k"
             (fun ~cancel:_ -> 1))
      in
      wait_until "first flight landed" (fun () -> Atomic.get landed);
      let gate = Atomic.make false in
      Fun.protect ~finally:(fun () -> Atomic.set gate true) @@ fun () ->
      let other = accepted (Server.Scheduler.submit sched ~key:"x" (gated_job gate 0)) in
      let fresh = accepted (Server.Scheduler.submit sched ~key:"k" (gated_job gate 2)) in
      Alcotest.(check int) "two flights pending" 2 (Server.Scheduler.stats sched).pending;
      (match Server.Scheduler.poll sched old with
      | `Done (Ok 1) -> ()
      | _ -> Alcotest.fail "old ticket should hold its own result");
      let s = Server.Scheduler.stats sched in
      Alcotest.(check int) "late poll evicts nothing" 2 s.pending;
      let joiner = accepted (Server.Scheduler.submit sched ~key:"k" (gated_job gate 3)) in
      let s = Server.Scheduler.stats sched in
      Alcotest.(check int) "third submit joins the new flight" 1 s.deduped;
      Alcotest.(check int) "no duplicate solve" 3 s.submitted;
      Atomic.set gate true;
      (match (await_done sched fresh, await_done sched joiner) with
      | Ok 2, Ok 2 -> ()
      | _ -> Alcotest.fail "joiner should share the new flight's result");
      ignore (await_done sched other))

(* A crashed worker's pipes are closed by the supervisor while solves it
   waited on may still land and wake it from a pool domain.  Such a wake
   must neither raise nor write to the (possibly reused) fd numbers. *)
let test_worker_wake_after_close () =
  let cfg =
    {
      Server.State.repo;
      solver = Asp.Config.default;
      cache = Server.Cache.create ();
      db = Pkg.Database.create ();
      db_path = None;
      journal = None;
      journal_max_bytes = 0;
      repl = None;
      follower = false;
      timeout = None;
      client_rate = 0.;
      client_burst = 8.;
      max_pending = 1;
      crash = None;
    }
  in
  let st = Server.State.create ~jobs:1 cfg in
  let w = Server.Worker.start st ~id:0 ~n_workers:1 ~drain_grace:1.0 in
  Atomic.set st.Server.State.stopping true;
  Server.Worker.wake w;
  Server.Worker.join w;
  Server.Worker.close_pipes w;
  (* the lowest free fds: most likely the numbers the wake pipe just gave up *)
  let r, wr = Unix.pipe () in
  Unix.set_nonblock r;
  Server.Worker.wake w;
  Server.Worker.close_pipes w (* idempotent *);
  Server.Worker.wake w;
  let got =
    match Unix.read r (Bytes.create 8) 0 8 with
    | n -> n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> 0
  in
  Unix.close r;
  Unix.close wr;
  Asp.Pool.shutdown st.Server.State.pool;
  Alcotest.(check int) "no byte written after close" 0 got

(* ------------------------------------------------------------------ *)
(* Daemon end-to-end                                                   *)
(* ------------------------------------------------------------------ *)

let with_daemon ?(repo = repo) ?(workers = 2) ?(jobs = 2) ?(max_pending = 8)
    ?timeout ?(client_rate = 0.) ?(client_burst = 8.) ?db_path ?journal_path f =
  let sock =
    Filename.concat (Filename.get_temp_dir_name ()) ("spackd-" ^ uid () ^ ".sock")
  in
  let cfg =
    {
      Server.Daemon.socket_path = sock;
      repo;
      solver = Asp.Config.default;
      db = Pkg.Database.create ();
      db_path;
      journal_path;
      journal_max_bytes = 0;
      follow = None;
      repl_ack = Server.Replica.Ack_async;
      cache = Server.Cache.create ();
      workers;
      jobs;
      max_pending;
      timeout;
      client_rate;
      client_burst;
      drain_grace = 5.0;
      wedge_timeout = 10.0;
      crash = None;
    }
  in
  let ready = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Server.Daemon.serve ~on_ready:(fun () -> Atomic.set ready true) cfg)
  in
  while not (Atomic.get ready) do
    Domain.cpu_relax ()
  done;
  let finally () =
    (match Server.Client.connect sock with
    | Ok c ->
      ignore (Server.Client.request c Server.Protocol.Shutdown);
      Server.Client.close c
    | Error _ -> ());
    Domain.join d
  in
  Fun.protect ~finally (fun () -> f sock)

let client sock =
  match Server.Client.connect sock with
  | Ok c -> c
  | Error m -> Alcotest.failf "connect failed: %s" m

let request c req =
  match Server.Client.request c req with
  | Ok resp -> resp
  | Error m -> Alcotest.failf "request failed: %s" m

let stats_int c section field =
  match request c Server.Protocol.Stats with
  | Server.Protocol.Stats_reply j -> (
    match
      Option.bind (J.member section j) (fun s ->
          Option.bind (J.member field s) J.to_int)
    with
    | Some n -> n
    | None -> Alcotest.failf "stats field %s.%s missing" section field)
  | _ -> Alcotest.fail "expected a stats reply"

let test_daemon_cold_warm () =
  with_daemon (fun sock ->
      let c = client sock in
      let cold =
        match request c (Server.Protocol.solve "zlib") with
        | Server.Protocol.Result { cache = Server.Protocol.Miss; result } -> result
        | Server.Protocol.Result { cache = Server.Protocol.Hit; _ } ->
          Alcotest.fail "cold solve reported a hit"
        | _ -> Alcotest.fail "unexpected reply"
      in
      let warm =
        match request c (Server.Protocol.solve "zlib") with
        | Server.Protocol.Result { cache = Server.Protocol.Hit; result } -> result
        | Server.Protocol.Result { cache = Server.Protocol.Miss; _ } ->
          Alcotest.fail "warm solve missed the cache"
        | _ -> Alcotest.fail "unexpected reply"
      in
      (match (cold, warm) with
      | C.Concrete a, C.Concrete b ->
        Alcotest.(check (list (pair int int))) "identical cost vector" a.C.costs
          b.C.costs;
        Alcotest.(check bool) "cold verified" true a.C.verified;
        Alcotest.(check bool) "warm verified intact" true b.C.verified;
        Alcotest.(check string) "same DAG"
          (Specs.Spec.node_hash a.C.spec a.C.spec.Specs.Spec.root)
          (Specs.Spec.node_hash b.C.spec b.C.spec.Specs.Spec.root)
      | _ -> Alcotest.fail "expected concrete results");
      Alcotest.(check bool) "stats count the hit" true (stats_int c "cache" "hits" >= 1);
      Alcotest.(check int) "one solve ran" 1 (stats_int c "scheduler" "submitted");
      Server.Client.close c)

let test_daemon_solve_many_single_flight () =
  with_daemon (fun sock ->
      let c = client sock in
      (match
         request c (Server.Protocol.solve_many [ "libiconv"; "libiconv"; "libiconv" ])
       with
      | Server.Protocol.Results entries ->
        Alcotest.(check int) "one result per input" 3 (List.length entries);
        let costs = function
          | _, C.Concrete s -> s.C.costs
          | _ -> Alcotest.fail "expected concrete"
        in
        List.iter
          (fun e ->
            Alcotest.(check (list (pair int int)))
              "identical fan-out" (costs (List.hd entries)) (costs e))
          entries
      | _ -> Alcotest.fail "unexpected reply");
      (* the duplicates joined the first request in flight *)
      Alcotest.(check int) "one solve ran" 1 (stats_int c "scheduler" "submitted");
      Alcotest.(check int) "two joined" 2 (stats_int c "scheduler" "deduped");
      Server.Client.close c)

let test_daemon_overload () =
  with_daemon ~jobs:1 ~max_pending:1 (fun sock ->
      let c = client sock in
      (* two distinct solves in one batch against a capacity of one: the
         second is shed, and the whole request reports Overloaded *)
      (match request c (Server.Protocol.solve_many [ "zlib"; "libiconv" ]) with
      | Server.Protocol.Error { kind = Server.Protocol.Overloaded; _ } -> ()
      | _ -> Alcotest.fail "expected a typed Overloaded reply");
      Alcotest.(check int) "shed counted" 1 (stats_int c "scheduler" "shed");
      (* the daemon keeps answering: the shed batch abandoned its first
         slot, so capacity frees again once the solver unwinds *)
      let deadline = Unix.gettimeofday () +. 30.0 in
      let rec retry () =
        match request c (Server.Protocol.solve "zlib") with
        | Server.Protocol.Result _ -> ()
        | Server.Protocol.Error { kind = Server.Protocol.Overloaded; _ } ->
          if Unix.gettimeofday () > deadline then
            Alcotest.fail "server never recovered from overload"
          else begin
            Unix.sleepf 0.05;
            retry ()
          end
        | _ -> Alcotest.fail "unexpected reply"
      in
      retry ();
      Server.Client.close c)

let test_daemon_disconnect_cancels () =
  with_daemon ~repo:(Lazy.force slow_repo) ~jobs:1 (fun sock ->
      (* fire a slow solve and hang up without reading the reply *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX sock);
      let line =
        J.to_string
          (Server.Protocol.request_to_json (Server.Protocol.solve "app-000"))
        ^ "\n"
      in
      ignore (Unix.write_substring fd line 0 (String.length line));
      Unix.sleepf 0.1;
      Unix.close fd;
      let c = client sock in
      let deadline = Unix.gettimeofday () +. 30.0 in
      let rec wait () =
        if stats_int c "scheduler" "cancelled" >= 1 then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "disconnect did not cancel the solve"
        else begin
          Unix.sleepf 0.05;
          wait ()
        end
      in
      wait ();
      Server.Client.close c)

let test_daemon_install_invalidates () =
  with_daemon (fun sock ->
      let c = client sock in
      (match request c (Server.Protocol.solve "zlib") with
      | Server.Protocol.Result { cache = Server.Protocol.Miss; _ } -> ()
      | _ -> Alcotest.fail "unexpected first reply");
      (match request c (Server.Protocol.install "zlib") with
      | Server.Protocol.Installed { hashes; total; _ } ->
        Alcotest.(check bool) "records added" true (total >= 1);
        Alcotest.(check bool) "zlib recorded" true
          (List.exists (fun (p, _) -> p = "zlib") hashes)
      | _ -> Alcotest.fail "expected an install reply");
      (* the database fingerprint changed, so the old cache entry is no
         longer addressed — and the fresh solve reuses the installed DAG *)
      (match request c (Server.Protocol.solve "zlib") with
      | Server.Protocol.Result { cache = Server.Protocol.Miss; result = C.Concrete s }
        ->
        Alcotest.(check bool) "reuses the installed package" true (s.C.reused <> [])
      | Server.Protocol.Result { cache = Server.Protocol.Hit; _ } ->
        Alcotest.fail "stale cache entry served after install"
      | _ -> Alcotest.fail "unexpected reply");
      Alcotest.(check bool) "db grew" true (stats_int c "server" "db_size" >= 1);
      Server.Client.close c)

let test_daemon_bad_requests () =
  with_daemon (fun sock ->
      let c = client sock in
      (match request c (Server.Protocol.solve "zlib@") with
      | Server.Protocol.Error { kind = Server.Protocol.Bad_request; _ } -> ()
      | _ -> Alcotest.fail "expected Bad_request for a malformed spec");
      (match request c (Server.Protocol.solve "no-such-package") with
      | Server.Protocol.Error { kind = Server.Protocol.Unknown_package p; _ } ->
        Alcotest.(check string) "names the package" "no-such-package" p
      | _ -> Alcotest.fail "expected Unknown_package");
      (* the connection survives bad requests *)
      (match request c (Server.Protocol.solve "zlib") with
      | Server.Protocol.Result _ -> ()
      | _ -> Alcotest.fail "connection unusable after errors");
      Server.Client.close c)

let () =
  Alcotest.run "server"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "errors" `Quick test_json_errors;
        ] );
      ( "codec",
        [
          Alcotest.test_case "concrete" `Quick test_codec_concrete;
          Alcotest.test_case "unsatisfiable" `Quick test_codec_unsat;
          Alcotest.test_case "interrupted" `Quick test_codec_interrupted;
          Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
        ] );
      ( "cache",
        [
          Alcotest.test_case "lru eviction" `Quick test_cache_lru;
          Alcotest.test_case "disk layer" `Quick test_cache_disk;
          Alcotest.test_case "corruption" `Quick test_cache_corruption;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "single flight" `Quick test_scheduler_single_flight;
          Alcotest.test_case "overload" `Quick test_scheduler_overload;
          Alcotest.test_case "cancellation" `Quick test_scheduler_cancel;
          Alcotest.test_case "wakes every waiter" `Quick test_scheduler_wakes;
          Alcotest.test_case "late joiner woken" `Quick
            test_scheduler_late_joiner_woken;
          Alcotest.test_case "late poll keeps new flight" `Quick
            test_scheduler_late_poll;
          Alcotest.test_case "worker wake after close" `Quick
            test_worker_wake_after_close;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "cold and warm solves" `Quick test_daemon_cold_warm;
          Alcotest.test_case "batch single flight" `Quick
            test_daemon_solve_many_single_flight;
          Alcotest.test_case "overload shedding" `Quick test_daemon_overload;
          Alcotest.test_case "disconnect cancels" `Quick
            test_daemon_disconnect_cancels;
          Alcotest.test_case "install invalidates" `Quick
            test_daemon_install_invalidates;
          Alcotest.test_case "bad requests" `Quick test_daemon_bad_requests;
        ] );
    ]
