(** The four MIG optimization algorithms of the paper (Algs. 1–4), plus
    the Boolean extension, as a typed algorithm name.

    Each constructor stands for one of {!Mig_flows.canonical_names}, and
    {!run} resolves and runs that name through {!Mig_flows.run_request}
    ({!Mig_flows.resolve}, then {!Mig_flows.optimize}) — the same front
    door the CLI, the daemon and the experiment drivers use — so
    [migsyn flow --script "cycle(40){eliminate; reshape; eliminate}; eliminate"]
    reproduces [run Area] exactly, and user scripts can recombine the same
    registered passes with cost-guarded acceptance ([accept_if]).

    - [Area] (Alg. 1): per cycle \[eliminate; reshape; eliminate\], final
      eliminate.
    - [Depth] (Alg. 2): per cycle \[push-up; Ψ.R; push-up\], final push-up.
    - [Rram_costs r] (Alg. 3): multi-objective (RRAM count, step count)
      optimization, per cycle \[push-up; Ω.I(1–3) with weighted-gain
      acceptance under realization [r]; push-up; balance\], final push-up.
    - [Steps] (Alg. 4): per cycle \[push-up; Ω.I case (1); Ω.I(1–3);
      push-up\], final push-up.
    - [Boolean] (not in the paper): Alg. 1 followed by NPN-cached cut-based
      Boolean rewriting ({!Mig_cut_rewrite}) and a final eliminate.

    Every optimizer is functional: it copies its input (via
    {!Mig.cleanup}-style compaction between cycles) and returns a new,
    logically equivalent MIG.  [effort] is the cycle count of the outer
    loop; the paper uses 40.  All algorithms stop early when a full cycle
    leaves the graph unchanged.

    When observability is on ({!Obs.set_enabled}), every algorithm records a
    span per cycle (category ["mig.opt"]), one per pass application
    (["mig.opt/pass/<pass>"]) and a ["mig.opt/<name>/trajectory"] series
    with one [(cycle, size, depth, r_imp, s_imp, r_maj, s_maj)] sample for
    the initial graph and after each cycle's cleanup; the per-rule hit/miss
    counters live in {!Mig_passes} (["mig.rule/*"]). *)

val default_effort : int
(** 40, the paper's setting. *)

type algorithm =
  | Area
  | Depth
  | Rram_costs of Rram_cost.realization
  | Steps
  | Boolean  (** extension: area + cut-based Boolean rewriting *)

val algorithm_name : algorithm -> string
(** The algorithm's entry of {!Mig_flows.canonical_names}. *)

val run : ?effort:int -> algorithm -> Mig.t -> Mig.t
(** Run the algorithm at [effort] (default {!default_effort}) under its
    name.  @raise Invalid_argument when [effort] is below 1. *)
