(** Grounding: instantiating a first-order {!Ast.program} into a
    propositional {!Ground.t}.

    The algorithm follows the classic two-phase scheme used by lparse/gringo:

    + a semi-naive fixpoint computes the set of {e possibly true} atoms,
      treating negative literals and conditional-literal targets
      optimistically;
    + a second pass re-enumerates every rule against the final possible-atom
      set and emits simplified ground rules: literals over input facts are
      removed, rules whose positive body mentions impossible atoms are
      dropped, and negative literals on impossible atoms are erased.

    Conditional literals ([a : conds]) and choice-element guards must range
    over EDB predicates (predicates defined only by facts); this is checked
    and a {!Solver_error.Error} is raised otherwise. *)

type stats = {
  possible_atoms : int;  (** atoms in the possible-set closure *)
  ground_rules : int;
  fixpoint_rounds : int;
}

val ground :
  ?budget:Budget.t ->
  ?facts_stream:((Gatom.t -> unit) -> unit) ->
  Ast.program ->
  Ground.t * stats
(** The budget is ticked once per derived/emitted rule instance.

    [facts_stream], when given, is invoked once with a sink; every ground
    atom pushed into the sink is seeded as an input fact, exactly as if it
    had appeared as a fact statement {e after} the program's statements —
    but with no [Ast] statement or per-atom list materialized (the
    streaming fast path for E4S-scale reuse facts, §VII-C).  Atom
    interning order, and therefore the emitted ground program, is
    identical to the materialized equivalent.
    @raise Solver_error.Error ([Ground _]) on unsafe rules, non-EDB
    conditions, or arithmetic on non-integer terms.
    @raise Budget.Exhausted when the instance budget, deadline or cancel
    token fires mid-grounding. *)
