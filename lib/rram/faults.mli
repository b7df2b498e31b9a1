(** Stuck-at fault injection and Monte-Carlo yield estimation (extension).

    RRAM endurance failures manifest as cells stuck in the low- or
    high-resistance state.  This module samples random stuck-at fault sets
    over a compiled program's crossbar and measures the functional yield —
    the fraction of fault configurations under which the program still
    computes its function on a set of test vectors.  A fault is a
    {!type:Device.defect} pin on an otherwise ideal cell — the same stuck-at
    model that {!Variation} campaigns compose with sampled device physics.

    Beyond the raw yield of an unprotected program, {!yield_comparison}
    measures what the two fault-tolerance mechanisms buy on the same broken
    silicon: the {!Resilient} detect–remap–retry controller and the {!Tmr}
    majority-voting transform. *)

val random_faults :
  Logic.Prng.t -> num_cells:int -> rate:float -> (Isa.reg * Device.defect) list
(** Each cell is independently stuck with probability [rate] (stuck-at-1
    or stuck-at-0 equally likely), in the {!type:Device.defect} form that
    {!Interp.run} and {!Resilient.env_of_defects} take. *)

val survives :
  Program.t ->
  reference:(bool array -> bool array) ->
  (Isa.reg * Device.defect) list ->
  bool array list ->
  bool
(** Does the program, run with these cells pinned, still match the
    reference on every vector? *)

type yield_result = {
  trials : int;
  survivors : int;
  yield : float;
  mean_faults : float;
}

val functional_yield :
  ?seed:int ->
  ?trials:int ->
  ?vectors:int ->
  rate:float ->
  Program.t ->
  reference:(bool array -> bool array) ->
  yield_result
(** Monte-Carlo yield at the given per-cell fault rate; test vectors are
    random (plus the all-zero and all-one corners). *)

type comparison = {
  rate : float;
  cells : int;  (** devices of the unprotected program *)
  tmr_cells : int;  (** devices of the TMR-protected program *)
  baseline : yield_result;  (** run as compiled, no defense *)
  resilient : yield_result;  (** with the {!Resilient} remap/retry loop *)
  tmr : yield_result;  (** the {!Tmr}-protected program, unassisted *)
}

val yield_comparison :
  ?seed:int ->
  ?trials:int ->
  ?vectors:int ->
  ?max_attempts:int ->
  rate:float ->
  Program.t ->
  reference:(bool array -> bool array) ->
  comparison
(** Each trial draws one stuck-at defect map over a physical universe wide
    enough for the TMR array and the remapper's spare cells, then scores
    all three arms against it.  The per-cell rate is identical across arms;
    TMR and remapping expose more cells, which is exactly the trade being
    measured. *)
