(* The wake-up half of a flight.  It exists before the pool job does, so the
   job's completion callback can reach it. *)
type landing = {
  mutable landed : bool;
  mutable wakers : (unit -> unit) list;  (* fired once, when the job lands *)
}

type 'a entry = {
  key : string;
  future : 'a Asp.Pool.future;
  cancel : Asp.Budget.cancel_token;
  landing : landing;
  mutable waiters : int;
  mutable cancelled : bool;
}

type 'a ticket = { entry : 'a entry; mutable live : bool }

type 'a t = {
  pool : Asp.Pool.t;
  max_pending : int;
  mutex : Mutex.t;
  inflight : (string, 'a entry) Hashtbl.t;
  mutable submitted : int;
  mutable deduped : int;
  mutable shed : int;
  mutable n_cancelled : int;
  mutable completed : int;
}

type stats = {
  submitted : int;
  deduped : int;
  shed : int;
  cancelled : int;
  completed : int;
  pending : int;
}

let create ~pool ~max_pending =
  {
    pool;
    max_pending = max 1 max_pending;
    mutex = Mutex.create ();
    inflight = Hashtbl.create 16;
    submitted = 0;
    deduped = 0;
    shed = 0;
    n_cancelled = 0;
    completed = 0;
  }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* The pool's [on_done] for one flight.  Under the lock the flight is
   marked landed and leaves the table, so an entry found in the table has
   not landed yet and a waker registered on it is still in time; the wakers
   then fire outside the lock.  The table is checked for this very flight
   (physical equality) before removing, and nothing else removes entries, so
   a key can be solved afresh only once its previous flight landed and a
   late poll of an old ticket can never evict a newer flight. *)
let finish t key landing =
  let wakers =
    with_lock t (fun () ->
        landing.landed <- true;
        (match Hashtbl.find_opt t.inflight key with
        | Some e when e.landing == landing -> Hashtbl.remove t.inflight key
        | Some _ | None -> ());
        t.completed <- t.completed + 1;
        let ws = landing.wakers in
        landing.wakers <- [];
        ws)
  in
  List.iter (fun wake -> try wake () with _ -> ()) wakers

let submit ?wake t ~key job =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.inflight key with
      | Some e ->
        e.waiters <- e.waiters + 1;
        t.deduped <- t.deduped + 1;
        Option.iter (fun w -> e.landing.wakers <- w :: e.landing.wakers) wake;
        `Accepted { entry = e; live = true }
      | None ->
        if Hashtbl.length t.inflight >= t.max_pending then begin
          t.shed <- t.shed + 1;
          `Overloaded
        end
        else begin
          let cancel = Asp.Budget.token () in
          let landing = { landed = false; wakers = Option.to_list wake } in
          let future =
            Asp.Pool.submit t.pool
              ~on_done:(fun () -> finish t key landing)
              (fun () -> job ~cancel)
          in
          let e = { key; future; cancel; landing; waiters = 1; cancelled = false } in
          Hashtbl.replace t.inflight key e;
          t.submitted <- t.submitted + 1;
          `Accepted { entry = e; live = true }
        end)

let poll t ticket =
  let e = ticket.entry in
  if not (with_lock t (fun () -> e.landing.landed)) then `Pending
  else `Done (try Ok (Asp.Pool.await e.future) with exn -> Error exn)

let abandon t ticket =
  if ticket.live then begin
    ticket.live <- false;
    let e = ticket.entry in
    with_lock t (fun () ->
        e.waiters <- e.waiters - 1;
        if e.waiters <= 0 && (not (Asp.Pool.is_done e.future)) && not e.cancelled
        then begin
          e.cancelled <- true;
          Asp.Budget.cancel e.cancel;
          t.n_cancelled <- t.n_cancelled + 1
        end)
  end

let stats t =
  with_lock t (fun () ->
      {
        submitted = t.submitted;
        deduped = t.deduped;
        shed = t.shed;
        cancelled = t.n_cancelled;
        completed = t.completed;
        pending = Hashtbl.length t.inflight;
      })
