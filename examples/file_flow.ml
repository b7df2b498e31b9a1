(* Full file-based flow: parse a netlist (BLIF, .bench, PLA or AIGER,
   auto-detected by extension), optimize with all four algorithms, map to
   RRAMs, verify on the device simulator, and write the best result back
   out as a majority-gate BLIF.

   Usage:  dune exec examples/file_flow.exe -- [netlist]
   Without an argument, a demo BLIF is written to /tmp and used. *)

let demo_path = "/tmp/mig_rram_demo.blif"

let demo () =
  Io.Netlist.write_file ~model_name:"demo_rd73" demo_path (Logic.Funcgen.rd 7 3);
  demo_path

let () =
  let path = if Array.length Sys.argv > 1 then Sys.argv.(1) else demo () in
  Format.printf "reading %s@." path;
  let net = Io.Netlist.read_file path in
  Format.printf "network: %a@." Logic.Network.pp_stats net;
  let mig = Core.Mig_of_network.convert net in
  Format.printf "initial MIG: %a@.@." Core.Mig.pp_stats mig;
  List.iter
    (fun alg ->
      let optimized = Core.Mig_opt.run ~effort:15 alg mig in
      let imp = Core.Rram_cost.of_mig Core.Rram_cost.Imp optimized in
      let maj = Core.Rram_cost.of_mig Core.Rram_cost.Maj optimized in
      Format.printf "%-16s %-28s IMP %a   MAJ %a@."
        (Core.Mig_opt.algorithm_name alg ^ ":")
        (Format.asprintf "%a" Core.Mig.pp_stats optimized)
        Core.Rram_cost.pp imp Core.Rram_cost.pp maj)
    [
      Core.Mig_opt.Area;
      Core.Mig_opt.Depth;
      Core.Mig_opt.Rram_costs Core.Rram_cost.Maj;
      Core.Mig_opt.Steps;
    ];
  let best = Core.Mig_opt.run ~effort:15 Core.Mig_opt.Steps mig in
  let compiled = Rram.Compile_mig.compile Core.Rram_cost.Maj best in
  (match Rram.Verify.against_network compiled.Rram.Compile_mig.program net with
  | Ok () -> Format.printf "@.compiled MAJ program verified on the device simulator@."
  | Error e -> Format.printf "@.VERIFICATION FAILED: %s@." e);
  let out = Filename.remove_extension path ^ "_opt.blif" in
  Io.Netlist.write_file ~model_name:"optimized" out (Core.Mig_to_network.export best);
  Format.printf "wrote optimized majority netlist to %s@." out
