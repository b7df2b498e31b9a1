(** Defect-aware register remapping (extension).

    Given a list of bad cells (stuck-at defects found at test time or
    diagnosed at runtime by {!Resilient}), rewrite a compiled program so it
    no longer touches them: every live bad register is renamed to a fresh
    spare cell, dead bad cells are left alone for free.  Register indices
    are physical cell identities here — the replacement is a {e new} index
    beyond the current register count, never a recycled one, so a physical
    defect map (keyed by cell index) remains meaningful across repeated
    remap rounds.

    A [capacity] — the number of cells of the physical array — bounds the
    registers a remapped program may use; without one, spares are
    unlimited (the controller is assumed to re-place the program, which
    {!Placement.place} recomputes from the rewritten program). *)

type t = {
  program : Program.t;  (** rewritten program avoiding all bad live cells *)
  moves : (Isa.reg * Isa.reg) list;  (** (bad cell, replacement cell) *)
  spares_left : int;  (** remaining capacity; [max_int] when unbounded *)
}

val live_regs : Program.t -> bool array
(** [live_regs p] marks every register the program reads, writes, or
    outputs.  A stuck cell outside this set cannot affect execution. *)

val remap : ?capacity:int -> Program.t -> bad:Isa.reg list -> (t, string) result
(** Rename every live register of [bad] to a fresh spare.  Returns an error
    when the renamed program would need more than [capacity] cells.  Bad registers that
    are dead or out of range are ignored; if none remain, the program is
    returned unchanged with no moves. *)

val remap_wear_aware :
  wear:int array ->
  Program.t ->
  bad:Isa.reg list ->
  (t, string) result
(** Wear-leveling-aware variant: [wear.(c)] is the accumulated switching
    count of physical cell [c] over the whole array ([Array.length wear]
    cells).  Replacements are
    the free cells — not live in the program, not listed bad — of least
    wear, ties to the lower index.  Under endurance drift a low-wear cell
    is the one with the widest remaining resistance window, so repairs
    steer toward the healthy region of the crossbar and write load spreads
    instead of piling onto the same spares.  Deterministic for equal
    inputs; errors when fewer free cells remain than are needed. *)
