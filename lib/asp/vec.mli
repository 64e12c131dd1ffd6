(** Growable arrays (the workhorse container of the grounder and solver). *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [dummy] fills unused capacity; it is never observable. *)

val length : 'a t -> int
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit
val pop : 'a t -> 'a
(** @raise Invalid_argument on an empty vector. *)

val top : 'a t -> 'a
val clear : 'a t -> unit
val shrink : 'a t -> int -> unit
(** [shrink v n] truncates [v] to its first [n] elements. *)

val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val exists : ('a -> bool) -> 'a t -> bool

val to_array : 'a t -> 'a array
val to_list : 'a t -> 'a list
val of_list : dummy:'a -> 'a list -> 'a t
val sort : ('a -> 'a -> int) -> 'a t -> unit
