(** The MIG instantiation of the generic {!Flow} pass manager, and the one
    front door for naming and running an optimization.

    This module is the single place where the paper's rewrite sweeps are
    named and registered: every whole-graph pass of {!Mig_passes} (plus the
    Boolean cut rewriter and a compaction step) becomes a [Flow.pass], the
    RRAM cost model becomes the table of [accept_if] guard costs, and
    Algs. 1–4 and the Boolean extension become canonical flow scripts under
    the names of {!canonical_names} — the one algorithm vocabulary of the
    CLI's [-a], the daemon's [algorithm] member, ledgers and reports.

    Every caller — the CLI, the serve daemon, {!Mig_opt.run}, the
    experiment drivers and the bench harness — turns its optimization
    request into a {!job} with {!resolve} and runs it with {!optimize}. *)

val registry : Mig.t Flow.registry
(** All registered MIG passes, e.g. [eliminate], [reshape], [push_up],
    [push_up_nc], [push_up_f2], [psi_r], [omega_i], [omega_i3],
    [omega_i_w_imp], [omega_i_w_maj], [balance], [cleanup], [strash],
    [cut_rewrite]. *)

val ops : Mig.t Flow.ops
(** Cleanup/copy via {!Mig.cleanup}; the trajectory measure samples
    [(size, depth, r_imp, s_imp, r_maj, s_maj)] exactly as {!Mig_opt}
    always recorded. *)

val costs : ?arch:Rram_cost.arch -> unit -> (string * (Mig.t -> float)) list
(** [accept_if] guard costs: [size], [depth], [rrams_imp], [steps_imp],
    [rrams_maj], [steps_maj], the scalarized [weighted_imp] /
    [weighted_maj] of {!Rram_cost.weighted}, and the crossbar-aware
    [xbar_devices_imp], [xbar_devices_maj], [xbar_latency_imp],
    [xbar_latency_maj] and [xbar_weighted_maj]
    ({!Rram_cost.triple_of_levels} against [arch]), so flow scripts can
    optimize for a concrete array.  Only the [xbar_*] costs depend on
    [arch]; it defaults to the {!set_arch} default, [Unbounded_serial]. *)

val parse :
  ?arch:Rram_cost.arch -> string -> (Mig.t Flow.t, Flow.Script.error) result
(** Parse a flow script against {!registry} and {!costs} over [arch].  Scripts
    name costs, not geometries: [arch] is the array the result will be
    compiled for, and every [xbar_*] guard of the flow scores against it.
    Two flows parsed with different [arch] values are independent, so they
    may run concurrently on separate domains. *)

val parse_exn : ?arch:Rram_cost.arch -> string -> Mig.t Flow.t
(** @raise Invalid_argument with the rendered error on a bad script. *)

val set_arch : Rram_cost.arch -> unit
(** Set the architecture {!parse}, {!parse_exn}, {!resolve} and
    {!portfolio} use when called without [~arch] (initially
    [Unbounded_serial]).  This is process-global state, kept only because
    the benchmark harness in [perfbench/] still calls it; the CLI and the
    daemon always pass [~arch] instead. *)

val run : ?name:string -> Mig.t Flow.t -> Mig.t -> Mig.t
(** {!Flow.run} with span prefix ["mig.opt"], so scripted flows share the
    observability namespace of the paper's algorithms. *)

val canonical_script : ?effort:int -> string -> string option
(** The flow-script encoding of a named algorithm ([area], [depth],
    [rram-costs-imp], [rram-costs-maj], [steps], [bool-rewrite]) with the
    given cycle effort (default {!Flow.default_effort}); [None] for unknown
    names. *)

val canonical_names : string list
(** The algorithm names {!canonical_script} accepts, in Table II order. *)

(** {1 Optimization requests}

    An optimization request names a canonical algorithm, or gives one or
    more flow scripts, or neither (which means [steps]); it carries the
    effort of the algorithm, the race cost of a portfolio, the target
    architecture and the worker budget.  {!resolve} checks and parses it
    once into a {!job}; {!optimize} runs a job on a MIG.  One script runs
    as a plain flow; several race as a portfolio on independent copies of
    the MIG — on separate domains when the pool has more than one worker —
    and the winner is kept under a deterministic (lowest cost, then lowest
    entrant index) tie-break, identical for every worker count. *)

val default_cost : string
(** ["weighted_maj"] — the scalarized MAJ-realization (R, S) cost a
    portfolio race minimizes by default. *)

type job = private {
  entrants : Mig.t Flow.entrant list;
      (** the parsed flows, labelled by algorithm name or by the caller's
          script label *)
  flow_text : string;
      (** what the job runs, as text: the script itself, or
          [portfolio(COST){s1 | s2 | ...}] for a race.  The daemon's cache
          key and the [flow] member of its responses carry exactly this. *)
  cost : Mig.t -> float;  (** the race cost *)
  jobs : int option;  (** worker budget of a race *)
  race : bool;  (** race the entrants, even a single one *)
}

val resolve :
  ?algorithm:string ->
  ?scripts:(string * string) list ->
  ?effort:int ->
  ?cost:string ->
  ?arch:Rram_cost.arch ->
  ?jobs:int ->
  ?race:bool ->
  unit ->
  (job, string) result
(** Resolve one optimization request.  [algorithm] is one of
    {!canonical_names}, expanded at [effort] (default
    {!Flow.default_effort}); [scripts] are [(label, script)] entrants.
    With neither (or an empty [algorithm]) the request runs [steps].
    Scripts are parsed against {!costs} over [arch], so every [xbar_*]
    guard scores against the array the result is compiled for; [cost]
    (default {!default_cost}) names the race cost, also over [arch]; [jobs]
    is the race's worker budget (default [Par.recommended_jobs ()]).  Two
    or more entrants always race; [race] (default [false]) makes a single
    one race too.

    The error is one line naming what is wrong: an unknown algorithm
    (listing {!canonical_names}), an algorithm [effort] below 1, an
    algorithm together with scripts, the label and parse error of the first
    bad script, or an unknown cost (listing the cost names). *)

val optimize : ?name:string -> job -> Mig.t -> Mig.t * Flow.outcome list
(** Run a job.  A single entrant that does not race runs through {!run}
    under [name] (default: its label) on the given MIG, and the outcome
    list is empty; otherwise the entrants race on copies and the result is
    the winner plus one outcome per entrant, in entrant order. *)

val run_request :
  ?name:string ->
  ?algorithm:string ->
  ?scripts:(string * string) list ->
  ?effort:int ->
  ?cost:string ->
  ?arch:Rram_cost.arch ->
  ?jobs:int ->
  ?race:bool ->
  Mig.t ->
  Mig.t * Flow.outcome list
(** {!resolve} then {!optimize}, for library callers whose request is
    fixed in code ({!Mig_opt.run}, {!portfolio}, the experiment drivers
    and the bench harness).
    @raise Invalid_argument with the resolver's error. *)

val portfolio :
  ?arch:Rram_cost.arch ->
  ?jobs:int ->
  ?cost:string ->
  (string * string) list ->
  Mig.t ->
  Mig.t * Flow.outcome list
(** [portfolio specs mig] runs [specs] as a race ({!run_request} with
    [race]).
    @raise Invalid_argument on an empty spec list, a bad script or an
    unknown cost name. *)

val default_portfolio : ?effort:int -> unit -> (string * string) list
(** The five paper algorithms as [(name, script)] entrants, in Table II
    order — the default entrant set of [migsyn flow --portfolio], the flow
    set of the experiment profiles, and the race of the registered
    [portfolio] pass (which fixes the inner effort at 10). *)
