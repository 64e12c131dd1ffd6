(** Request scheduler: admission control in front of {!Asp.Pool}.

    The daemon's event loop funnels every solve through a scheduler, which
    adds three behaviours the raw pool does not have:

    - {b single-flight}: a request whose key is already in flight joins the
      existing job instead of spawning a second identical solve; the one
      result fans out to every waiter.
    - {b overload shedding}: once [max_pending] distinct jobs are in flight,
      new work is refused with [`Overloaded] immediately — the queue never
      grows without bound and clients get a typed answer instead of a stall.
    - {b cancellation}: each job runs under its own {!Asp.Budget.cancel_token};
      when every waiter has {!abandon}ed (clients disconnected), the token is
      cancelled and the solver unwinds at its next budget tick.

    Tickets are polled, never awaited — the single-threaded event loop must
    not block on a future.  Instead each waiter hands {!submit} a [wake]
    callback, and the scheduler calls every waiter's [wake] once the job
    lands, so an event loop sleeps until there is something to poll rather
    than polling on a timer. *)

type 'a t

val create : pool:Asp.Pool.t -> max_pending:int -> 'a t
(** [max_pending] bounds distinct in-flight jobs (at least 1).  Joining an
    existing job never counts against the bound (it adds no work). *)

type 'a ticket
(** One waiter's handle on a (possibly shared) in-flight job. *)

val submit :
  ?wake:(unit -> unit) ->
  'a t ->
  key:string ->
  (cancel:Asp.Budget.cancel_token -> 'a) ->
  [ `Accepted of 'a ticket | `Overloaded ]
(** Run [job] on the pool under a fresh cancel token — unless [key] is
    already in flight, in which case the returned ticket shares that job.

    [wake] is called exactly once, after the job landed (returned or
    raised), from the pool domain that ran it, with no scheduler lock held.
    Every waiter's [wake] fires, a joiner's included, so waiters on
    different event loops all learn of the one result.  A flight leaves the
    single-flight table in the same critical section that marks it landed:
    a joiner either finds it still in flight, and its [wake] is registered
    in time, or starts a new flight.  No wake-up is lost.  [wake] also fires
    for a ticket that was {!abandon}ed.  It delays the pool domain's next
    job, so it should be short; an exception it raises is dropped. *)

val poll : 'a t -> 'a ticket -> [ `Pending | `Done of ('a, exn) result ]
(** Non-blocking.  [`Done] once the job landed (its [wake]s have been or
    are being called); stable: polling again returns the same answer. *)

val abandon : 'a t -> 'a ticket -> unit
(** This waiter no longer wants the result.  The last waiter off a still
    running job cancels its token.  Idempotent per ticket. *)

type stats = {
  submitted : int;  (** jobs dispatched to the pool *)
  deduped : int;  (** submits that joined an in-flight job *)
  shed : int;  (** submits refused with [`Overloaded] *)
  cancelled : int;  (** jobs whose token was cancelled by {!abandon} *)
  completed : int;  (** jobs that landed *)
  pending : int;  (** distinct jobs currently in flight *)
}

val stats : 'a t -> stats
