(* table2_map: `migsyn map` at the paper's setting.  Each of the 25 Table II
   circuits, prepared as BLIF text in set-up, is parsed, converted, run
   through the five paper algorithms at effort 40, compiled for the
   realization(s) of its Table II column and verified on the device
   simulator against the parsed network. *)

open Common

let effort = 40
let oracle_vectors = 16

(* Table II: Area/Depth/RRAM-IMP in IMP, RRAM-MAJ in MAJ, Step in both. *)
let columns =
  Core.Rram_cost.
    [
      (Core.Mig_opt.Area, [ Imp ]);
      (Core.Mig_opt.Depth, [ Imp ]);
      (Core.Mig_opt.Rram_costs Imp, [ Imp ]);
      (Core.Mig_opt.Rram_costs Maj, [ Maj ]);
      (Core.Mig_opt.Steps, [ Imp; Maj ]);
    ]

type env = { seed : int; circuits : (string * string * Logic.Network.t) list }

let setup ~seed =
  let circuits =
    List.map
      (fun e ->
        let net = e.Io.Benchmarks.build () in
        (e.Io.Benchmarks.name, Io.Blif.write_string ~model_name:e.Io.Benchmarks.name net, net))
      Io.Benchmarks.table2
  in
  { seed; circuits }

let teardown _ = ()

let verify_vectors n =
  if n <= Rram.Verify.exhaustive_limit then 1 lsl n else 258

let pass env _ =
  let programs = ref [] in
  let gates = ref 0 and devices = ref 0 and steps = ref 0 in
  let digest = Buffer.create 256 in
  let t0 = now_ns () in
  List.iter
    (fun (name, blif, source) ->
      let net = parse Io.Blif.parse_string blif in
      let mig = convert net in
      List.iter
        (fun (alg, realizations) ->
          let opt = optimize ~effort alg mig in
          gates := !gates + Core.Mig.size opt;
          List.iter
            (fun r ->
              let c = compile r opt in
              let p = c.Rram.Compile_mig.program in
              let verdict =
                Trace.span "rram.verify" "verify" (fun () -> Rram.Verify.against_network p net)
              in
              let vecs = verify_vectors (Logic.Network.num_inputs net) in
              Trace.count "verify.vectors" (float_of_int vecs);
              Trace.count "verify.pulses" (float_of_int (vecs * Rram.Program.num_steps p));
              (match verdict with
              | Ok () -> ()
              | Error msg -> prerr_endline ("perfbench: MISMATCH table2_map " ^ name ^ ": " ^ msg));
              devices := !devices + c.Rram.Compile_mig.measured_rrams;
              steps := !steps + c.Rram.Compile_mig.measured_steps;
              Printf.bprintf digest "%s/%s:%d,%d,%d;" name (algorithm_label alg)
                (Core.Mig.size opt) c.Rram.Compile_mig.measured_rrams
                c.Rram.Compile_mig.measured_steps;
              programs := (name, p, source, verdict = Ok ()) :: !programs)
            realizations)
        columns)
    env.circuits;
  let wall_s = seconds_since t0 in
  (* the oracle: every program against the generated source network *)
  let failed =
    List.fold_left
      (fun acc (name, p, source, verified) ->
        acc
        + check
            (verified && Oracle.program_agrees ~seed:env.seed ~vectors:oracle_vectors p source)
            "table2_map %s: program disagrees with Network.eval" name)
      0 !programs
  in
  {
    wall_s;
    ops = List.length env.circuits;
    gates = !gates;
    devices = !devices;
    steps = !steps;
    attempted = List.length !programs;
    failed;
    digest = Buffer.contents digest;
  }
