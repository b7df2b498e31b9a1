(* Functional yield under stuck-at device faults (extension).

   RRAM cells wear out and get stuck in the low- or high-resistance state.
   Part 1 compiles the same circuit to both realizations, injects random
   stuck-at faults at increasing per-cell rates, and Monte-Carlo estimates
   the probability that the program still computes its function: the MAJ
   realization uses fewer devices and fewer pulses per gate, giving it a
   visibly smaller fault surface.

   Part 2 measures what the two fault-tolerance mechanisms buy on the same
   defect maps: the resilient detect-diagnose-remap-retry controller
   (Rram.Resilient) and triple modular redundancy voted with the paper's
   own MAJ primitive (Rram.Tmr). *)

let () =
  Format.printf "Functional yield under stuck-at faults (Monte-Carlo, 200 trials)@.@.";
  let net = Logic.Funcgen.rd 5 3 in
  let mig = Core.Mig_opt.run ~effort:10 Core.Mig_opt.Steps (Core.Mig_of_network.convert net) in
  let reference = Core.Mig_sim.eval mig in
  Format.printf "circuit: rd53 (%d gates after step optimization)@.@." (Core.Mig.size mig);
  Format.printf "%-10s | %-22s | %-22s@." "fault rate" "IMP (6 dev/gate)" "MAJ (4 dev/gate)";
  List.iter
    (fun rate ->
      let cell r =
        let compiled = Rram.Compile_mig.compile r mig in
        let y =
          Rram.Faults.functional_yield ~rate compiled.Rram.Compile_mig.program ~reference
        in
        Format.asprintf "yield %.2f (%4.1f faults)" y.Rram.Faults.yield
          y.Rram.Faults.mean_faults
      in
      Format.printf "%-10s | %-22s | %-22s@."
        (Printf.sprintf "%.3f" rate)
        (cell Core.Rram_cost.Imp) (cell Core.Rram_cost.Maj))
    [ 0.001; 0.003; 0.01; 0.03 ];
  Format.printf
    "@.A stuck cell only matters if it is live during the computation; the MAJ@.";
  Format.printf
    "realization's smaller crossbar (and shorter programs) survives more faults.@.";

  (* ---- Part 2: fault-tolerance mechanisms on the MAJ realization ---- *)
  let compiled = Rram.Compile_mig.compile Core.Rram_cost.Maj mig in
  let program = compiled.Rram.Compile_mig.program in
  let tmr = Rram.Tmr.protect program in
  let dev_ratio, step_ratio = Rram.Tmr.overhead program tmr in
  Format.printf
    "@.Protection (MAJ realization, %d RRAMs; TMR: %d RRAMs = %.1fx, steps %.2fx):@.@."
    program.Rram.Program.num_regs tmr.Rram.Tmr.program.Rram.Program.num_regs dev_ratio
    step_ratio;
  Format.printf "%-10s | %-8s | %-11s | %-8s@." "fault rate" "baseline" "remap+retry"
    "TMR";
  let comparisons =
    List.map
      (fun rate ->
        Rram.Faults.yield_comparison ~trials:200 ~rate program ~reference)
      [ 0.003; 0.01; 0.03 ]
  in
  List.iter
    (fun (c : Rram.Faults.comparison) ->
      Format.printf "%-10s | %8.2f | %11.2f | %8.2f@."
        (Printf.sprintf "%.3f" c.Rram.Faults.rate)
        c.Rram.Faults.baseline.Rram.Faults.yield
        c.Rram.Faults.resilient.Rram.Faults.yield c.Rram.Faults.tmr.Rram.Faults.yield)
    comparisons;
  Format.printf
    "@.Remapping routes the program around diagnosed dead cells onto spares, so it@.";
  Format.printf
    "repairs almost everything while spares last.  TMR pays ~3x devices to mask any@.";
  Format.printf
    "single-replica fault passively, and loses that bet once simultaneous faults in@.";
  Format.printf "two replicas become likely (the 0.03 row).@.";
  (* The headline check: protection must actually help at the 1%% rate. *)
  let at_001 =
    List.find (fun (c : Rram.Faults.comparison) -> c.Rram.Faults.rate = 0.01) comparisons
  in
  assert (
    at_001.Rram.Faults.tmr.Rram.Faults.yield
    > at_001.Rram.Faults.baseline.Rram.Faults.yield);
  assert (
    at_001.Rram.Faults.resilient.Rram.Faults.yield
    > at_001.Rram.Faults.baseline.Rram.Faults.yield)
