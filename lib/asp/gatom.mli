(** Ground atoms and the interning store used by the grounder.

    Atoms are interned to dense integer ids.  The store maintains, per
    predicate, the list of (possibly true) atoms and per-argument-position
    indices used for joins during grounding. *)

type t = { pred : string; args : Term.t list }

val equal : t -> t -> bool
val hash : t -> int
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val make : string -> Term.t list -> t

(** Interning store. *)
module Store : sig
  type atom = t
  type t

  val create : unit -> t
  val intern : t -> atom -> int
  (** Id of the atom, adding it if new. *)

  val find : t -> atom -> int option
  val atom : t -> int -> atom
  val count : t -> int

  val mark_fact : t -> int -> unit
  val is_fact : t -> int -> bool
  (** Atoms asserted by ground fact statements (unconditionally true). *)

  val by_pred : t -> string -> int -> int Vec.t
  (** [by_pred store p a] is the ids of all stored atoms with predicate [p]
      and arity [a], in interning order.  The vector is the store's own
      index: do not mutate it. *)

  val by_pred_arg : t -> string -> int -> pos:int -> value:Term.t -> int Vec.t
  (** Atoms of [p/a] whose argument at [pos] equals [value]; same sharing
      rule as {!by_pred}. *)
end
