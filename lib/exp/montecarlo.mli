(** Monte-Carlo yield campaigns over statistical device variability.

    Where {!Ablation.yield_curve} pins cells stuck at a flat per-cell rate
    on otherwise ideal devices, this driver samples the {e physics} of every device with
    {!Rram.Variation} — lognormal LRS/HRS spreads, sense noise, endurance
    drift — and measures functional yield versus the variability scale σ
    for five execution arms on the {e same} sampled silicon:

    - ["imp"], ["maj"]: the two realizations run bare;
    - ["resilient"]: the primary realization behind the
      {!Rram.Resilient} detect/diagnose/remap/retry controller;
    - ["wear"]: the same controller steering repairs with
      {!Rram.Remap.remap_wear_aware} over live wear gauges;
    - ["tmr"]: {!Rram.Tmr} triple modular redundancy with MAJ-pulse voters.

    {b Determinism.} Trial [t] draws from PRNG stream
    [Logic.Prng.split_seed config.seed t] (via {!Par.map_seeded}) whatever
    the worker count, and every arm of a trial re-samples the same seed —
    identical silicon, identical noise.  Equal [(config, net)] give
    bit-identical campaigns for every [jobs]; sigma points share trial
    seeds (common random numbers), so curves compare smoothly across σ.

    Campaigns fan trials across the {!Par} domain pool; {!Obs} counters
    ([exp.montecarlo/*]) and attempt/move histograms are recorded per trial
    and merged exactly at pool shutdown. *)

type config = {
  trials : int;  (** Monte-Carlo trials per sigma point (≥ 1) *)
  sigmas : float list;  (** variability scales, each ≥ 0; [1.0] = nominal *)
  seed : int;  (** campaign master seed *)
  jobs : int option;  (** worker domains; [None] = {!Par.recommended_jobs} *)
  effort : int;  (** optimization effort before compiling *)
  algorithm : string;  (** one of {!Core.Mig_flows.canonical_names} *)
  realization : Core.Rram_cost.realization;  (** primary (protected) arm *)
  vectors : int;  (** test vectors evaluated per execution (≥ 1) *)
  max_attempts : int;  (** controller verification rounds (≥ 1) *)
  spares : int;  (** spare cells beyond the primary program (≥ 0) *)
  base : Rram.Variation.params;  (** device model scaled by each sigma *)
}

val default : config
(** 200 trials at σ ∈ {0.25, 0.5, 1.0, 1.5}, seed [0xCA4E], auto jobs,
    effort 10 [steps] optimization, MAJ primary, 32 vectors, 4 attempts,
    32 spares, {!Rram.Variation.nominal} devices. *)

val validate : config -> (Core.Mig_flows.job, string) result
(** The campaign's resolved optimization job, once [config] passes.
    Rejects non-positive trial/vector/attempt counts, an empty or negative
    (or non-finite) sigma axis, negative spares, an algorithm or effort
    {!Core.Mig_flows.resolve} rejects, and any {!Rram.Variation.validate}
    failure of [base]. *)

type estimate = {
  successes : int;
  trials : int;
  yield : float;  (** successes / trials *)
  lo : float;  (** Wilson 95% lower bound *)
  hi : float;  (** Wilson 95% upper bound *)
}

val wilson : successes:int -> trials:int -> estimate
(** Wilson score interval at 95% confidence — non-degenerate even at
    observed yields of exactly 0 or 1. *)

type arm_result = {
  arm : string;  (** one of imp / maj / resilient / wear / tmr *)
  cells : int;  (** registers of that arm's program (before remapping) *)
  outcomes : bool array;  (** per-trial success, index = trial number *)
  estimate : estimate;
}

type point = { sigma : float; arms : arm_result list }

type t = {
  benchmark : string;
  realization : Core.Rram_cost.realization;
  trials : int;
  seed : int;
  universe : int;  (** sampled cells per trial, shared by all arms *)
  num_vectors : int;
  points : point list;  (** one per sigma, in [config.sigmas] order *)
  wall_seconds : float;  (** the only non-deterministic field *)
}

val run : ?config:config -> name:string -> Logic.Network.t -> t
(** Optimize, compile and campaign the network.  [name] labels the report.
    @raise Invalid_argument when {!validate} rejects [config]. *)

val to_json : t -> Obs.Json.t
(** Schema ["migsyn-montecarlo/1"].  Deterministic except the top-level
    ["wall_seconds"] member — strip that one field and equal campaigns
    diff byte-identical (the CI smoke job does exactly this). *)

val pp : Format.formatter -> t -> unit
