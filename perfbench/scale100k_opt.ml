(* scale100k_opt: `migsyn optimize` plus the cost report on the 10^5-gate
   `migsyn gen` tier, serialized to binary AIGER in set-up.  One pass:
   parse, convert, the canonical area flow, Mig_equiv against the parsed
   network, compile MAJ, BLIF export.  Rram.Verify is not run at this size. *)

open Common

let gates = 100_000
let effort = 10

type env = { seed : int; aig : string; source : Logic.Network.t }

let setup ~seed =
  let source = Io.Gen.scale_network ~name:(Printf.sprintf "scale100k-%d" seed) ~gates () in
  { seed; aig = Io.Aiger.write_network_binary source; source }

let teardown _ = ()

let pass env _ =
  let t0 = now_ns () in
  let net = parse Io.Aiger.parse_binary_string env.aig in
  let mig = convert net in
  let opt = optimize ~effort Core.Mig_opt.Area mig in
  let equivalent = equiv opt net in
  let c = compile Core.Rram_cost.Maj opt in
  let blif = write_blif ~model_name:"scale100k" opt in
  let wall_s = seconds_since t0 in
  let program = c.Rram.Compile_mig.program in
  let failed =
    check equivalent "scale100k_opt: Mig_equiv refuted the optimized graph"
    + check
        (Oracle.blif_agrees ~words:4 ~seed:env.seed env.source blif)
        "scale100k_opt: emitted BLIF disagrees with the source network"
    + check
        (Oracle.program_agrees ~seed:env.seed ~vectors:4 program env.source)
        "scale100k_opt: MAJ program disagrees with Network.eval"
  in
  let size = Core.Mig.size opt in
  let devices = c.Rram.Compile_mig.measured_rrams and steps = c.Rram.Compile_mig.measured_steps in
  {
    wall_s;
    ops = 1;
    gates = size;
    devices;
    steps;
    attempted = 3;
    failed;
    digest = Printf.sprintf "%d,%d,%d,%d" size devices steps (String.length blif);
  }
