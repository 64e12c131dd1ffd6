(** CUDF universe → ASP facts, on the generalized-condition encoding.

    Version constraints never reach the logic program: each distinct
    constraint (and each keep-flag target) is interned once as a
    {e satisfier set} — [sat(S, Q, W)] facts listing every stanza that
    satisfies it, provides included — so a 10k-stanza universe with tall
    version columns grounds linearly in [sum of set sizes], not
    quadratically in versions.  Depends clauses, conflicts, keep flags and
    the request all become [condition/1]-keyed facts (driven through
    {!Concretize.Facts.Gen}), giving them the same trigger semantics and
    unsat-core provenance as Spack's conditions.  Installed state becomes
    [was_installed/2] reuse facts, streamed into the grounder's atom store
    by default. *)

type mode = [ `Stream | `Materialize ]
(** How the installed-state facts are delivered; both modes produce the
    identical ground program (atoms are seeded in the same order).
    [`Materialize] exists for the test oracles that need the facts as
    statements ({!Asp.Naive} differentials, the stream/materialize
    ground-program comparison); the solver always streams. *)

type t = {
  statements : Asp.Ast.statement list;
  n_facts : int;  (** total, streamed facts included *)
  n_packages : int;
  n_sets : int;  (** interned satisfier sets *)
  cond_origins : (int * string) list;
      (** condition id → provenance ("pkg=3 depends on bar >= 2 | baz",
          "package pkg=3 conflicts with quux < 4", "the request asks to
          install foo"), printed by {!Concretize.Diagnose} on unsat *)
  installed_stream : ((Asp.Gatom.t -> unit) -> unit) option;
      (** with [`Stream] and a non-empty installed state: replays the
          [was_installed] facts (pass as [?facts_stream] to
          {!Asp.Grounder.ground}) *)
}

val generate : ?installed_mode:mode -> Doc.t -> t
