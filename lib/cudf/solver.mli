(** End-to-end CUDF solving on the shared ASP engine.

    Mirrors the Spack pipeline ({!Concretize.Concretizer}): encode the
    document to facts, parse the (stack-specific) logic program, ground
    under a budget with installed stanzas streamed as reuse facts, solve
    with branch-and-bound or unsat-core optimization, optionally race a
    portfolio, verify the model, and decode the chosen state plus its
    per-criterion cost vector. *)

type phases = {
  setup_time : float;  (** document → facts *)
  load_time : float;  (** logic-program parse *)
  ground_time : float;
  solve_time : float;
}

val total : phases -> float

type solution = {
  state : (string * int) list;  (** the final installation, sorted *)
  removed : string list;
  installed_new : string list;
  changed : string list;
  costs : (int * int) list;  (** [(priority, value)], priorities descending *)
  quality : Asp.Optimize.quality;
  verified : bool;
  phases : phases;
  n_facts : int;
  n_packages : int;
  n_sets : int;
  ground_stats : Asp.Grounder.stats;
  sat_stats : Asp.Sat.stats;
}

type result =
  | Solution of solution
  | Unsatisfiable of { reasons : string list; phases : phases; n_facts : int }
  | Interrupted of { info : Asp.Budget.info; phases : phases; n_facts : int }

val heuristic_reasons : Doc.t -> string list
(** Cheap syntactic diagnosis of an unsatisfiable document: unknown
    request targets, unsatisfiable request constraints, removes that
    contradict keep flags, [false!] dependencies of requested stanzas. *)

val solve :
  ?config:Asp.Config.t ->
  ?params:Asp.Sat.params ->
  ?budget:Asp.Budget.t ->
  ?pool:Asp.Pool.t ->
  ?racers:int ->
  ?explain:bool ->
  ?stack:Criteria.stack ->
  Doc.t ->
  result
(** One attempt.  [~explain:true] runs unsat-core extraction over the
    encoder's condition provenance on UNSAT, naming the offending
    [depends:]/[conflicts:]/request stanza; otherwise UNSAT falls back to
    {!heuristic_reasons}.  [~pool] with [racers > 1] races a diversified
    portfolio, rescuing quarantined races sequentially with a shifted
    seed. *)

val solve_escalating :
  ?attempts:int ->
  ?config:Asp.Config.t ->
  ?cancel:Asp.Budget.cancel_token ->
  ?pool:Asp.Pool.t ->
  ?racers:int ->
  ?explain:bool ->
  ?stack:Criteria.stack ->
  Doc.t ->
  result
(** Retry on budget exhaustion with doubled limits and a reseeded solver
    ([attempts] tries total, default 3); cancellations are never
    retried. *)
