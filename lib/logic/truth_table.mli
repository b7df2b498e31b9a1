(** Truth tables over a fixed number of variables.

    A table over [n] variables stores [2^n] bits; bit [m] is the value of the
    function on the minterm whose variable [i] equals bit [i] of [m].
    Variable 0 is the fastest-toggling one, matching the usual simulation
    convention.  Arity is limited to {!max_vars} (24) to bound memory. *)

type t

val max_vars : int

val num_vars : t -> int

val create : int -> t
(** Constant-false table over the given number of variables. *)

val const : int -> bool -> t
val var : int -> int -> t
(** [var n i] is the projection of variable [i] among [n] variables. *)

val get : t -> int -> bool
(** Value on a minterm index. *)

val set : t -> int -> bool -> unit

val band : t -> t -> t
val bor : t -> t -> t
val bxor : t -> t -> t
val bnot : t -> t
val maj3 : t -> t -> t -> t
val mux : t -> t -> t -> t

val equal : t -> t -> bool

val cofactor : t -> int -> bool -> t
(** [cofactor t i v] fixes variable [i] to [v]; the result still ranges over
    [n] variables but no longer depends on variable [i]. *)

val depends_on : t -> int -> bool

val of_function : int -> (bool array -> bool) -> t
(** [of_function n f] tabulates [f] over all [2^n] input assignments; the
    array passed to [f] has [a.(i)] = value of variable [i]. *)

val of_bits : string -> t
(** [of_bits s] takes the function column with minterm [0] first, i.e.
    [s.[m]] is the value on minterm [m]; length must be a power of two. *)

val to_bits : t -> string

val bitvec : t -> Bitvec.t
(** Underlying bit-vector (shared, do not mutate unless you own it). *)

val pp : Format.formatter -> t -> unit
