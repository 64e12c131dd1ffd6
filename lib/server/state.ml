module C = Concretize.Concretizer

type crash_point = After_intent | After_save | After_commit

type config = {
  repo : Pkg.Repo.t;
  solver : Asp.Config.t;
  cache : Cache.t;
  db : Pkg.Database.t;
  db_path : string option;
  journal : Journal.t option;
  journal_max_bytes : int;
  repl : Replica.hub option;
  follower : bool;
  timeout : float option;
  client_rate : float;
  client_burst : float;
  max_pending : int;
  crash : (crash_point * (unit -> unit)) option;
}

type t = {
  cfg : config;
  sched : C.result Scheduler.t;
  pool : Asp.Pool.t;
  db : Pkg.Database.t Atomic.t;
  install_mutex : Mutex.t;
  started : float;
  (* counters shared by every worker domain and the supervisor *)
  n_connections : int Atomic.t;
  n_requests : int Atomic.t;
  n_installs : int Atomic.t;
  n_expired : int Atomic.t;
  n_throttled : int Atomic.t;
  n_replayed : int Atomic.t;
  n_restarts : int Atomic.t;
  n_wedged : int Atomic.t;
  n_replicated : int Atomic.t;
  n_resyncs : int Atomic.t;
  (* replication role: a follower serves solves but refuses installs with
     a typed [Read_only] until promoted *)
  read_only : bool Atomic.t;
  (* promotion must stop the follower loop before the role flips; the
     daemon (which owns the loop) installs the hook *)
  on_promote : (unit -> unit) ref;
  (* extra fields merged into the stats [replication] section (the daemon
     adds the follower-link counters it owns) *)
  repl_extra : (unit -> (string * Json.t) list) ref;
  (* lifecycle: [draining] stops admission of new connections/requests,
     [stopping] makes every loop exit now *)
  draining : bool Atomic.t;
  stopping : bool Atomic.t;
}

let create ~jobs cfg =
  let pool = Asp.Pool.create ~domains:(max 1 jobs) in
  {
    cfg;
    sched = Scheduler.create ~pool ~max_pending:cfg.max_pending;
    pool;
    db = Atomic.make cfg.db;
    install_mutex = Mutex.create ();
    started = Unix.gettimeofday ();
    n_connections = Atomic.make 0;
    n_requests = Atomic.make 0;
    n_installs = Atomic.make 0;
    n_expired = Atomic.make 0;
    n_throttled = Atomic.make 0;
    n_replayed = Atomic.make 0;
    n_restarts = Atomic.make 0;
    n_wedged = Atomic.make 0;
    n_replicated = Atomic.make 0;
    n_resyncs = Atomic.make 0;
    read_only = Atomic.make cfg.follower;
    on_promote = ref (fun () -> ());
    repl_extra = ref (fun () -> []);
    draining = Atomic.make false;
    stopping = Atomic.make false;
  }

let db t = Atomic.get t.db
let read_only t = Atomic.get t.read_only

(* ------------------------------------------------------------------ *)
(* Startup recovery                                                    *)
(* ------------------------------------------------------------------ *)

type recovery = {
  db0 : Pkg.Database.t;
  replayed : int;  (** journal intents re-applied (committed or not) *)
  uncommitted : int;  (** subset that never reached their commit marker *)
  truncated : bool;  (** a torn journal tail was dropped *)
  rotated : bool;  (** a stale-format journal was moved aside *)
}

(* Load the database, then re-apply every journal intent: appends are
   idempotent on the DAG hash, so committed entries are no-ops and an
   uncommitted entry completes the install the crash interrupted.  When
   anything was replayed, the repaired database is persisted and the
   journal reset — recovery itself is crash-safe (dying between the save
   and the reset just replays again). *)
let recover ?db_path ?journal_path () =
  let db0 =
    match db_path with
    | Some p when Sys.file_exists p -> (
      match Pkg.Database.load p with
      | Ok db -> db
      | Error e ->
        failwith
          (Printf.sprintf "%s: %s" p (Pkg.Database.load_error_to_string e)))
    | _ -> Pkg.Database.create ()
  in
  match journal_path with
  | None -> { db0; replayed = 0; uncommitted = 0; truncated = false; rotated = false }
  | Some jp ->
    let r = Journal.replay jp in
    let uncommitted =
      List.length (List.filter (fun (e : Journal.entry) -> not e.Journal.committed) r.Journal.entries)
    in
    List.iter
      (fun (e : Journal.entry) -> Pkg.Database.add_concrete db0 e.Journal.spec)
      r.Journal.entries;
    if r.Journal.entries <> [] then begin
      Option.iter (Pkg.Database.save db0) db_path;
      (* checkpoint, not wipe: the sequence counter (and epoch) carry over
         as the new base, so replication followers' resume positions
         survive the recovery compaction *)
      let j = Journal.open_ jp in
      Journal.checkpoint j;
      Journal.close j
    end;
    {
      db0;
      replayed = List.length r.Journal.entries;
      uncommitted;
      truncated = r.Journal.truncated;
      rotated = r.Journal.rotated;
    }

(* ------------------------------------------------------------------ *)
(* Solve jobs                                                          *)
(* ------------------------------------------------------------------ *)

let request_key t root =
  C.request_key ~config:t.cfg.solver ~installed:(db t) ~repo:t.cfg.repo [ root ]

let zero_phases =
  {
    C.setup_time = 0.;
    load_time = 0.;
    ground_time = 0.;
    ground_base_time = 0.;
    ground_extend_time = 0.;
    solve_time = 0.;
  }

let expired_result =
  C.Interrupted
    {
      info =
        {
          Asp.Budget.phase = Asp.Budget.Ground;
          reason = Asp.Budget.Deadline;
          progress = { Asp.Budget.conflicts = 0; instances = 0; opt_steps = 0 };
        };
      phases = zero_phases;
      n_facts = 0;
      n_possible = 0;
    }

(* The deadline is absolute and was fixed at enqueue: a job that reaches
   the front of the queue after its deadline passed is shed (a typed
   deadline result, no solver work) instead of being solved with a
   token-sized leftover budget. *)
let make_job t ~deadline root =
  let installed = db t in
  fun ~cancel ->
    let expired =
      match deadline with
      | Some d -> Unix.gettimeofday () >= d
      | None -> false
    in
    if expired then begin
      Atomic.incr t.n_expired;
      expired_result
    end
    else begin
      let wall = Option.map (fun d -> d -. Unix.gettimeofday ()) deadline in
      let budget =
        Asp.Budget.start ~cancel { Asp.Budget.no_limits with Asp.Budget.wall }
      in
      C.solve ~config:t.cfg.solver ~installed ~budget ~repo:t.cfg.repo [ root ]
    end

(* ------------------------------------------------------------------ *)
(* Installs: write-ahead journal, copy-on-swap database               *)
(* ------------------------------------------------------------------ *)

let crash_maybe t point =
  match t.cfg.crash with
  | Some (p, action) when p = point -> action ()
  | _ -> ()

(* Journal compaction ([--journal-max-bytes]): once the journal outgrows
   the threshold — and the database snapshot on disk already holds every
   entry, which is true after each install's save — truncate it to a bare
   header whose base is the current sequence.  Crashing between the save
   and the checkpoint merely replays entries idempotently.  Call with the
   install mutex held. *)
let maybe_compact t =
  match (t.cfg.journal, t.cfg.db_path) with
  | Some j, Some _
    when t.cfg.journal_max_bytes > 0
         && Journal.size_bytes j > t.cfg.journal_max_bytes ->
    Journal.checkpoint j
  | _ -> ()

(* Copy-and-extend, never mutate: worker domains may still be reading the
   current database value, so installs build a fresh one and swap it in.
   Ordering is what makes a kill -9 at any instant recoverable:
     1. journal intent (fsync)     — the install survives the crash;
     2. fresh db built and swapped — in-memory view consistent;
     3. db file saved (atomic rename);
     4. journal commit marker      — replay becomes a no-op.
   Crashing between 1 and 3 replays the intent onto the old db file;
   between 3 and 4 replays it onto the new one (idempotent). *)
let record_install t (s : C.success) =
  Mutex.lock t.install_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.install_mutex)
    (fun () ->
      let old = Atomic.get t.db in
      let seq = Option.map (fun j -> Journal.append_intent j s.C.spec) t.cfg.journal in
      crash_maybe t After_intent;
      (* copy is a flat arena blit, not a per-record rebuild *)
      let db = Pkg.Database.copy old in
      Pkg.Database.add_concrete db s.C.spec;
      let fresh =
        List.filter_map
          (fun (r : Pkg.Database.record) ->
            match Pkg.Database.find old r.Pkg.Database.hash with
            | Some _ -> None
            | None -> Some (r.Pkg.Database.name, r.Pkg.Database.hash))
          (Pkg.Database.records db)
      in
      Atomic.set t.db db;
      Atomic.incr t.n_installs;
      Option.iter (Pkg.Database.save db) t.cfg.db_path;
      crash_maybe t After_save;
      (match (t.cfg.journal, seq) with
      | Some j, Some seq -> Journal.append_commit j seq
      | _ -> ());
      (* the client-visible ack happens strictly after the commit-marker
         fsync above: a kill -9 here (the After_commit seam) leaves an
         install that was never acknowledged, so losing its replication is
         allowed — but its journal entry is already durable locally *)
      crash_maybe t After_commit;
      (match (t.cfg.repl, seq) with
      | Some hub, Some seq ->
        (* ship the exact bytes the journal holds; under sync ack this
           blocks (inside the install mutex: replication order is install
           order) until a follower made them durable too *)
        Replica.ship hub ~seq
          ~intent:(Journal.render_intent seq s.C.spec)
          ~commit:(Journal.render_commit seq)
      | _ -> ());
      maybe_compact t;
      fresh)

(* ------------------------------------------------------------------ *)
(* Replication (follower side + promotion)                             *)
(* ------------------------------------------------------------------ *)

let with_install_mutex t f =
  Mutex.lock t.install_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.install_mutex) f

let replica_position t =
  match t.cfg.journal with
  | Some j -> (Journal.epoch j, Journal.next_seq j)
  | None -> (1, 1)

(* Apply one replicated install.  Durability first — the primary's exact
   bytes are fsynced into the local journal before the database moves —
   because the ack sent after this returns is a promise that a follower
   kill -9 loses nothing. *)
let apply_replicated t ~epoch ~seq ~intent ~commit ~spec =
  with_install_mutex t (fun () ->
      (match t.cfg.journal with
      | Some j ->
        if epoch > Journal.epoch j then Journal.bump_epoch j epoch;
        Journal.append_raw j ~seq [ intent; commit ]
      | None -> ());
      let old = Atomic.get t.db in
      let db = Pkg.Database.copy old in
      Pkg.Database.add_concrete db spec;
      Atomic.set t.db db;
      Atomic.incr t.n_replicated;
      Option.iter (Pkg.Database.save db) t.cfg.db_path;
      maybe_compact t)

(* Adopt a full database snapshot (resume position was compacted away on
   the primary): swap it in and restart the local journal at the
   primary's position. *)
let install_snapshot t ~epoch ~next_seq ~db =
  match Pkg.Database.load_string db with
  | Error e ->
    failwith
      ("replicated snapshot rejected: " ^ Pkg.Database.load_error_to_string e)
  | Ok fresh ->
    with_install_mutex t (fun () ->
        Atomic.set t.db fresh;
        Option.iter (Pkg.Database.save fresh) t.cfg.db_path;
        (match t.cfg.journal with
        | Some j -> Journal.set_position j ~epoch ~base_seq:next_seq
        | None -> ());
        Atomic.incr t.n_replicated)

(* Fenced by the primary (our epoch is stale): preserve the old journal as
   [.stale] for forensics, wipe the database and start over under the new
   epoch.  Everything we held that the new epoch lacks was, by
   construction, never acknowledged under sync replication. *)
let reset_replica t ~epoch =
  with_install_mutex t (fun () ->
      Option.iter Journal.rotate_stale t.cfg.journal;
      let empty = Pkg.Database.create () in
      Atomic.set t.db empty;
      Option.iter (Pkg.Database.save empty) t.cfg.db_path;
      (match t.cfg.journal with
      | Some j -> Journal.set_position j ~epoch ~base_seq:1
      | None -> ());
      Atomic.incr t.n_resyncs)

(* Promotion: stop the follower loop (no more applies can race the role
   flip), bump the epoch — the fence against the old primary — and start
   accepting installs.  Idempotent on a primary: no bump, same epoch. *)
let promote t =
  !(t.on_promote) ();
  with_install_mutex t (fun () ->
      let epoch =
        match t.cfg.journal with
        | Some j ->
          let e = Journal.epoch j in
          if Atomic.get t.read_only then begin
            Journal.bump_epoch j (e + 1);
            e + 1
          end
          else e
        | None -> 1
      in
      Atomic.set t.read_only false;
      epoch)

(* ------------------------------------------------------------------ *)
(* Shutdown persistence                                                *)
(* ------------------------------------------------------------------ *)

let persist t =
  with_install_mutex t (fun () ->
      Option.iter (Pkg.Database.save (Atomic.get t.db)) t.cfg.db_path;
      (* clean shutdown: the saved snapshot holds every entry, so the
         journal compacts to a bare header (positions preserved) *)
      (match (t.cfg.journal, t.cfg.db_path) with
      | Some j, Some _ -> Journal.checkpoint j
      | _ -> ());
      Option.iter Journal.close t.cfg.journal)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let stats_json ?(workers = 0) t =
  let c = Cache.stats t.cfg.cache in
  let s = Scheduler.stats t.sched in
  let current_db = db t in
  Json.Obj
    [
      ( "cache",
        Json.Obj
          [
            ("hits", Json.Int c.Cache.hits);
            ("misses", Json.Int c.Cache.misses);
            ("evictions", Json.Int c.Cache.evictions);
            ("stores", Json.Int c.Cache.stores);
            ("mem_entries", Json.Int c.Cache.mem_entries);
            ("disk_hits", Json.Int c.Cache.disk_hits);
          ] );
      ( "scheduler",
        Json.Obj
          [
            ("submitted", Json.Int s.Scheduler.submitted);
            ("deduped", Json.Int s.Scheduler.deduped);
            ("shed", Json.Int s.Scheduler.shed);
            ("cancelled", Json.Int s.Scheduler.cancelled);
            ("completed", Json.Int s.Scheduler.completed);
            ("pending", Json.Int s.Scheduler.pending);
          ] );
      ( "supervisor",
        Json.Obj
          [
            ("workers", Json.Int workers);
            ("restarts", Json.Int (Atomic.get t.n_restarts));
            ("wedged", Json.Int (Atomic.get t.n_wedged));
          ] );
      ( "replication",
        Json.Obj
          ([
             ( "role",
               Json.Str
                 (if Atomic.get t.read_only then "follower" else "primary") );
             ( "epoch",
               Json.Int
                 (match t.cfg.journal with
                 | Some j -> Journal.epoch j
                 | None -> 1) );
             ("applied", Json.Int (Atomic.get t.n_replicated));
             ("resyncs", Json.Int (Atomic.get t.n_resyncs));
           ]
          @ (match t.cfg.repl with
            | Some hub -> Replica.hub_stats hub
            | None -> [])
          @ !(t.repl_extra) ()) );
      ( "server",
        Json.Obj
          [
            ("uptime", Json.Float (Unix.gettimeofday () -. t.started));
            ("connections", Json.Int (Atomic.get t.n_connections));
            ("requests", Json.Int (Atomic.get t.n_requests));
            ("installs", Json.Int (Atomic.get t.n_installs));
            ("expired", Json.Int (Atomic.get t.n_expired));
            ("throttled", Json.Int (Atomic.get t.n_throttled));
            ("replayed", Json.Int (Atomic.get t.n_replayed));
            ("draining", Json.Bool (Atomic.get t.draining));
            ("db_size", Json.Int (Pkg.Database.size current_db));
            ("db_fingerprint", Json.Str (Pkg.Database.fingerprint current_db));
          ] );
    ]
