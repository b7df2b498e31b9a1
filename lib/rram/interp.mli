(** Interpreter: executes an RRAM program on a crossbar of {!Device}s.

    Steps have parallel semantics — every micro-operation in a step reads the
    pre-step device states; this matches the hardware, where all pulses of a
    step are applied in the same clock.  A trace callback can observe every
    executed step (used by the [crossbar_trace] example and the differential
    diagnosis of {!Resilient}).

    {2 Trace-callback contract}

    For both {!run} and {!run_on}, [trace idx step states] is invoked once
    per program step, in program order, {e after} every write of the step
    has landed:

    - [idx] is the 1-based step index ([1 .. Program.num_steps]);
    - [step] is the executed step, physically equal to the program's;
    - [states] holds the {e true} post-step state of every device of the
      crossbar ([Array.length states = Array.length devices], which can
      exceed [num_regs] on an oversized crossbar).  States are read with
      {!Device.observe}: they bypass sense noise and reflect stuck-at
      defects exactly.  This noiseless contract is what the
      differential replay of {!Resilient.run} relies on — comparing
      observed traces of an ideal and a faulty crossbar must expose the
      first diverging {e write}, not a read artifact.

    [test/test_rram.ml] (group [interp-trace]) pins this ordering and these
    values.

    When observability is enabled ({!Obs.set_enabled}), every run records
    pulse counters (["rram.interp/pulses.*"]), a micro-ops-per-step
    parallelism histogram, a writes-per-device histogram, wear gauges and a
    ["rram.interp/run"] span.

    The crossbar is ideal by default ({!Device.create} cells); [defects]
    pins individual cells stuck at 0 or 1 before execution.  Crossbars with
    sampled device physics come from {!crossbar} / {!Variation.crossbar}
    and run through {!run_on}. *)

val crossbar :
  ?physics:Device.physics array ->
  ?defects:(Isa.reg * Device.defect) list ->
  int ->
  Device.t array
(** [crossbar n] allocates [n] fresh devices, ideal unless [physics] gives
    each its sampled statistical physics ({!Variation.sample}; it must
    cover at least [n] cells).  [defects] then pins cells; entries outside
    [0, n) are ignored (they name physical cells the program does not
    use). *)

val run_on :
  devices:Device.t array ->
  ?trace:(int -> Isa.step -> bool array -> unit) ->
  Program.t ->
  bool array ->
  bool array
(** Execute on an existing crossbar, preserving its devices' wear and
    defects across runs — the cycle loop of {!Seq_exec} and the persistent
    arrays of {!val:Variation.env} use this so wear (and with it endurance
    drift) accumulates. *)

val run :
  ?defects:(Isa.reg * Device.defect) list ->
  ?trace:(int -> Isa.step -> bool array -> unit) ->
  Program.t ->
  bool array ->
  bool array
(** [run program inputs] returns one boolean per program output.  The trace
    callback follows the contract above (1-based step index, executed step,
    noiseless post-step {!Device.observe} states) on a fresh ideal crossbar
    with [defects] pinned. *)
