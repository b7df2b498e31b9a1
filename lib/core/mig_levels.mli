(** Level structure of a MIG.

    Levels drive both the depth-oriented rewrites and the RRAM cost model of
    the paper (Table I): constants and primary inputs sit at level 0, a gate
    at 1 + the maximum fanin level.  The statistics collected here are
    exactly the quantities named in Table I: [N_i] (gates per level), [C_i]
    (complemented ingoing edges per level, edges from constants excluded
    because a constant's complement is just the other constant), [D]
    (depth = maximum gate level over the primary outputs) and [L] (number of
    levels with [C_i > 0]).

    Complemented primary-output edges are accounted as a virtual readout
    stage [D+1]: inverting a result before readout costs one extra RRAM per
    complemented output and one extra step if any exist.  This prevents
    optimizers from "hiding" complement attributes on the outputs. *)

type t = {
  level : int array;  (** per node id; 0 for PIs, constants and dead nodes *)
  depth : int;  (** [D]: max gate level over the outputs (0 if PO = PI) *)
  gates_per_level : int array;  (** [N_i], indices 1..depth *)
  compl_per_level : int array;
      (** [C_i], indices 1..depth+1; index depth+1 is the readout stage *)
  order : int list;  (** live gates in topological order *)
}

val compute : Mig.t -> t
(** Materialize the level structure from the incrementally maintained
    {!Mig_analysis} of the graph (attaching one on first use).  The topo
    order and bucket arrays are rebuilt; the levels themselves are not. *)

val compute_scratch : Mig.t -> t
(** Compute everything from a fresh topological traversal, independent of
    {!Mig_analysis}.  Reference implementation for tests. *)

val of_level_assignment : Mig.t -> int array -> t
(** Build the statistics for an explicit gate→level assignment (used by
    {!Mig_schedule}); the assignment must respect dependencies. *)

val num_levels_with_compl : t -> int
(** [L] of Table I, including the virtual readout stage. *)

val pp : Format.formatter -> t -> unit
