(* yield_mc: both non-ideality engines on one bundled circuit — an
   Exp.Montecarlo campaign (statistical device physics) with a sigma axis
   that includes 0, and an Exp.Ablation.yield_curve campaign (flat stuck-at
   defects) with a rate axis that includes 0, both at a fixed campaign seed.
   Set-up reads the circuit back from .bench text and optimizes and compiles
   it exactly as the campaigns do, for the MIG and program sizes and the
   device-simulator oracle; the pass is the two campaigns. *)

open Common

let circuit = "cordic"
let effort = 10
let trials = 24
let sigmas = [ 0.0; 1.0; 1.5 ]
let rates = [ 0.0; 0.005; 0.02 ]
let campaign_seed = 0xCA4E

type env = {
  seed : int;
  entry : Io.Benchmarks.entry;
  source : Logic.Network.t;
  net : Logic.Network.t;  (** read back from the serialized source *)
  opt : Core.Mig.t;
  programs : Rram.Compile_mig.result list;
}

let setup ~seed =
  match Io.Benchmarks.find circuit with
  | Some entry ->
      let source = entry.Io.Benchmarks.build () in
      let text = Io.Bench_format.write_string source in
      let net = parse Io.Bench_format.parse_string text in
      let opt = optimize ~effort Core.Mig_opt.Steps (convert net) in
      let programs = List.map (fun r -> compile r opt) Core.Rram_cost.[ Maj; Imp ] in
      { seed; entry; source; net; opt; programs }
  | None -> failwith ("perfbench: no bundled circuit " ^ circuit)

let teardown _ = ()

(* Nominal devices without endurance drift.  With the nominal 0.2% window
   closure per switching event, cordic's IMP program wears its cells far
   enough over the 32 vectors of one trial that the bare IMP arm yields 0
   even at sigma 0, so sigma 0 would not be an ideal array and the oracle
   below would not hold.  Drift 0 still runs the same wear bookkeeping. *)
let config =
  {
    Exp.Montecarlo.default with
    Exp.Montecarlo.trials;
    sigmas;
    seed = campaign_seed;
    jobs = Some 1;
    effort;
    base = { Rram.Variation.nominal with Rram.Variation.drift = 0.0 };
  }

let outcome_string outcomes =
  String.init (Array.length outcomes) (fun i -> if outcomes.(i) then '1' else '0')

let pass env _ =
  let t0 = now_ns () in
  let mc =
    Trace.span "exp.montecarlo" "montecarlo" (fun () ->
        Exp.Montecarlo.run ~config ~name:circuit env.net)
  in
  let curve =
    Trace.span "exp.montecarlo" "faults" (fun () ->
        Exp.Ablation.yield_curve ~seed:campaign_seed ~effort ~rates ~trials
          { env.entry with Io.Benchmarks.build = (fun () -> env.net) })
  in
  let wall_s = seconds_since t0 in
  let arms = List.concat_map (fun p -> p.Exp.Montecarlo.arms) mc.Exp.Montecarlo.points in
  let mc_executions = trials * List.length arms and faults_executions = trials * 3 * List.length curve in
  Trace.count "montecarlo.executions" (float_of_int mc_executions);
  Trace.count "faults.executions" (float_of_int faults_executions);
  let digest = Buffer.create 256 in
  List.iter
    (fun p ->
      List.iter
        (fun a ->
          Printf.bprintf digest "s%g/%s:%s;" p.Exp.Montecarlo.sigma a.Exp.Montecarlo.arm
            (outcome_string a.Exp.Montecarlo.outcomes))
        p.Exp.Montecarlo.arms)
    mc.Exp.Montecarlo.points;
  List.iter
    (fun c ->
      Printf.bprintf digest "r%g:%d,%d,%d;" c.Rram.Faults.rate c.Rram.Faults.baseline.Rram.Faults.survivors
        c.Rram.Faults.resilient.Rram.Faults.survivors c.Rram.Faults.tmr.Rram.Faults.survivors)
    curve;
  (* the oracle: ideal devices must compute the circuit, so every bare arm
     yields 1.0 at sigma 0 and the unprotected program survives rate 0 *)
  let failed =
    List.fold_left
      (fun acc c ->
        acc
        + check
            (Oracle.program_agrees ~seed:env.seed ~vectors:64 c.Rram.Compile_mig.program env.source)
            "yield_mc: program disagrees with Network.eval")
      0 env.programs
    + List.fold_left
        (fun acc p ->
          acc
          + List.fold_left
              (fun acc a ->
                let bare = a.Exp.Montecarlo.arm = "imp" || a.Exp.Montecarlo.arm = "maj" in
                acc
                + check
                    ((not bare) || p.Exp.Montecarlo.sigma > 0.0
                    || a.Exp.Montecarlo.estimate.Exp.Montecarlo.yield = 1.0)
                    "yield_mc: bare arm %s yields %g at sigma 0" a.Exp.Montecarlo.arm
                    a.Exp.Montecarlo.estimate.Exp.Montecarlo.yield)
              0 p.Exp.Montecarlo.arms)
        0 mc.Exp.Montecarlo.points
    + List.fold_left
        (fun acc c ->
          acc
          + check
              (c.Rram.Faults.rate > 0.0 || c.Rram.Faults.baseline.Rram.Faults.yield = 1.0)
              "yield_mc: unprotected program yields %g at stuck-at rate 0"
              c.Rram.Faults.baseline.Rram.Faults.yield)
        0 curve
  in
  {
    wall_s;
    ops = mc_executions + faults_executions;
    gates = Core.Mig.size env.opt;
    devices = List.fold_left (fun acc c -> acc + c.Rram.Compile_mig.measured_rrams) 0 env.programs;
    steps = List.fold_left (fun acc c -> acc + c.Rram.Compile_mig.measured_steps) 0 env.programs;
    attempted = List.length env.programs + List.length arms + List.length curve;
    failed;
    digest = Buffer.contents digest;
  }
