(* Benchmark harness: regenerates every table of the paper's evaluation
   section (§IV) and times the flows with Bechamel.

   Sections:
     1. Table I   — cost-model cross-check (formula vs executed programs)
     2. Table II  — the six optimization columns over the 25-benchmark suite
     3. Table III — comparison with the BDD flow [11] and the AIG flow [12]
     4. §IV-A     — runtime claim ("each algorithm < 3 s for the whole set")
     5. Bechamel  — one Test.make per table

   EFFORT (env var) overrides the paper's effort = 40.
   --json [FILE] additionally writes a machine-readable per-benchmark
   summary (default FILE: BENCH_results.json); CI uploads it as an
   artifact.
   --jobs N fans the per-circuit work of each table over N domains
   (default 1 — the stable-timing baseline).  Row content is bit-identical
   to the sequential run except for the wall-time fields; only the
   elapsed time changes (DESIGN.md §11).
   --ledger FILE (or $MIGSYN_LEDGER) appends a migsyn-run/1 manifest of
   the whole harness run — effort, jobs, table timings, the per-cell
   BENCH_opt measurements and the aggregated span tree — to a JSON-lines
   run ledger, comparable across runs with `migsyn report`. *)

open Bechamel
open Toolkit

let effort =
  match Sys.getenv_opt "EFFORT" with
  | Some v -> int_of_string v
  | None -> Core.Mig_opt.default_effort

let json_path =
  let rec scan = function
    | [] -> None
    | "--json" :: p :: _ when String.length p > 0 && p.[0] <> '-' -> Some p
    | "--json" :: _ -> Some "BENCH_results.json"
    | _ :: rest -> scan rest
  in
  scan (Array.to_list Sys.argv)

let jobs =
  let rec scan = function
    | [] -> 1
    | "--jobs" :: n :: _ -> (
        match int_of_string_opt n with
        | Some n when n >= 1 -> n
        | _ -> failwith "bench: --jobs expects a positive integer")
    | _ :: rest -> scan rest
  in
  scan (Array.to_list Sys.argv)

let ledger_path =
  let rec scan = function
    | [] -> Sys.getenv_opt "MIGSYN_LEDGER"
    | "--ledger" :: p :: _ when String.length p > 0 && p.[0] <> '-' -> Some p
    | "--ledger" :: _ -> failwith "bench: --ledger expects a file path"
    | _ :: rest -> scan rest
  in
  scan (Array.to_list Sys.argv)

(* Custom flows benched side-by-side with the paper's five: named
   flow-script pipelines built from the same pass registry.  The guarded
   variant wraps each Alg. 4 cycle in a weighted-(R,S) acceptance test, the
   flow-level generalization of Alg. 3's move-level criterion. *)
let custom_flows =
  [
    ( "custom/guarded-steps",
      Printf.sprintf
        "cycle(%d){accept_if(weighted_maj){push_up; omega_i3; omega_i; push_up}}; \
         push_up"
        effort );
    ( "custom/area-then-balance",
      Printf.sprintf
        "cycle(%d){eliminate; reshape; eliminate}; cycle(%d){balance}; eliminate"
        effort (max 1 (effort / 4)) );
  ]

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let () =
  Printf.printf "MIG-based RRAM synthesis — evaluation harness (effort = %d, jobs = %d)\n"
    effort jobs;

  if ledger_path <> None then begin
    Obs.set_enabled true;
    Obs.reset ();
    Obs.Manifest.start ~tool:"bench" ~subcommand:"harness"
      ~argv:(Array.to_list Sys.argv) ();
    Obs.Manifest.add_context "effort" (Obs.Json.Int effort);
    Obs.Manifest.add_context "jobs" (Obs.Json.Int jobs)
  end;

  section "Table I: cost model cross-check";
  Format.printf "%a@." Exp.Experiments.pp_table1_check ();

  section "Table II: optimization results (25 benchmarks, 6 columns)";
  let t2, t2_time = wall (fun () -> Exp.Experiments.table2 ~effort ~jobs ()) in
  Format.printf "%a@." Exp.Experiments.pp_table2 t2;
  Printf.printf "(Table II computed in %.2f s — all six algorithms over the suite)\n" t2_time;
  Obs.Manifest.add_result "table2_rows" (Obs.Json.Int (List.length t2));
  Obs.Manifest.add_result "table2_seconds" (Obs.Json.Float t2_time);

  section "Table III (left): MIG vs the BDD-based flow [11]";
  let t3b, t3b_time = wall (fun () -> Exp.Experiments.table3_bdd ~effort ~jobs ()) in
  Format.printf "%a@." Exp.Experiments.pp_table3_bdd t3b;
  Printf.printf "(computed in %.2f s)\n" t3b_time;

  section "Table III (right): MIG vs the AIG-based flow [12]";
  let t3a, t3a_time = wall (fun () -> Exp.Experiments.table3_aig ~effort ~jobs ()) in
  Format.printf "%a@." Exp.Experiments.pp_table3_aig t3a;
  Printf.printf "(computed in %.2f s)\n" t3a_time;

  section "End-to-end verification (device simulator vs source networks)";
  Par.map ~jobs
    (fun name ->
      match Io.Benchmarks.find name with
      | None -> Printf.sprintf "  %-10s missing!" name
      | Some e -> (
          match Exp.Experiments.verify_entry e with
          | Ok () -> Printf.sprintf "  %-10s all four compiled programs verified" name
          | Error msg -> Printf.sprintf "  %-10s FAILED: %s" name msg))
    [ "5xp1"; "alu4"; "b9"; "clip"; "cm150a"; "cordic"; "t481"; "rd53f2"; "9sym_d"; "xor5_d" ]
  |> List.iter print_endline;

  section "Runtime claim (paper §IV-A: each algorithm < 3 s on the whole suite)";
  let time_algorithm name run =
    let _, dt =
      wall (fun () ->
          List.iter
            (fun e ->
              let mig = Core.Mig_of_network.convert (e.Io.Benchmarks.build ()) in
              ignore (run mig))
            Io.Benchmarks.table2)
    in
    Printf.printf "  %-24s %.2f s (paper bound: < 3 s)\n%!" name dt
  in
  time_algorithm "area (Alg. 1)" (Core.Mig_opt.run ~effort Core.Mig_opt.Area);
  time_algorithm "depth (Alg. 2)" (Core.Mig_opt.run ~effort Core.Mig_opt.Depth);
  time_algorithm "rram-costs IMP (Alg. 3)"
    (Core.Mig_opt.run ~effort (Core.Mig_opt.Rram_costs Core.Rram_cost.Imp));
  time_algorithm "rram-costs MAJ (Alg. 3)"
    (Core.Mig_opt.run ~effort (Core.Mig_opt.Rram_costs Core.Rram_cost.Maj));
  time_algorithm "steps (Alg. 4)" (Core.Mig_opt.run ~effort Core.Mig_opt.Steps);
  List.iter
    (fun ((label, _) as spec) ->
      time_algorithm (label ^ " (flow script)") (Core.Mig_flows.run_request ~scripts:[ spec ]))
    custom_flows;

  (match json_path with
  | None -> ()
  | Some path ->
      section "JSON export (--json)";
      let flows = Core.Mig_flows.default_portfolio ~effort () @ custom_flows in
      let rows, dt = wall (fun () -> Exp.Experiments.profile ~effort ~flows ~jobs ()) in
      Obs.write_json path (Exp.Experiments.profile_json ~effort ~elapsed_seconds:dt rows);
      Printf.printf "  wrote %s (%d benchmarks, per-algorithm wall times; %.2f s)\n" path
        (List.length rows) dt;
      (* Per-algorithm wall times on the largest bundled and generated
         circuits: the perf-regression smoke for the incremental analysis
         core.  The committed BENCH_opt.json is the local baseline; CI
         regenerates it (at its own EFFORT) and uploads it as an artifact. *)
      let opt_path = "BENCH_opt.json" in
      let bundled =
        List.filter_map
          (fun name ->
            Option.map
              (fun e -> (name, fun () -> Core.Mig_of_network.convert (e.Io.Benchmarks.build ())))
              (Io.Benchmarks.find name))
          [ "alu4"; "apex4"; "misex3"; "seq"; "apex6"; "x3" ]
      in
      let generated =
        [
          ("mult8", fun () -> Core.Mig_of_network.convert (Logic.Funcgen.multiplier 8));
          ("mult12", fun () -> Core.Mig_of_network.convert (Logic.Funcgen.multiplier 12));
          ("cla64", fun () -> Core.Mig_of_network.convert (Logic.Funcgen.carry_lookahead_adder 64));
        ]
      in
      (* The large-N tier: seeded Io.Gen synthetics at 10^4 and 10^5 gates.
         These rows are what catches an accidentally reintroduced quadratic
         hot path — on bundled circuits (hundreds of gates) an O(n^2) walk
         is invisible, at 10^5 it is the whole runtime.  The 10^4 tier runs
         the five paper algorithms; the 10^5 tier runs only the canonical
         area flow to keep the harness bounded. *)
      let scale_build gates () =
        Core.Mig_of_network.convert
          (Io.Gen.scale_network ~name:(Printf.sprintf "scale%d" gates) ~gates ())
      in
      let algorithms =
        [
          ("area", fun m -> ignore (Core.Mig_opt.run ~effort Core.Mig_opt.Area m));
          ("depth", fun m -> ignore (Core.Mig_opt.run ~effort Core.Mig_opt.Depth m));
          ( "rram-imp",
            fun m ->
              ignore (Core.Mig_opt.run ~effort (Core.Mig_opt.Rram_costs Core.Rram_cost.Imp) m) );
          ( "rram-maj",
            fun m ->
              ignore (Core.Mig_opt.run ~effort (Core.Mig_opt.Rram_costs Core.Rram_cost.Maj) m) );
          ("steps", fun m -> ignore (Core.Mig_opt.run ~effort Core.Mig_opt.Steps m));
          (* Wave scheduling on the fitted geometry: times the crossbar
             backend itself (fit = one unbounded-column scheduling pass,
             then the real compile), not the optimization in front of it. *)
          ( "crossbar-maj",
            fun m ->
              let arch = Rram.Compile_crossbar.fit Core.Rram_cost.Maj m in
              ignore (Rram.Compile_crossbar.compile ~arch Core.Rram_cost.Maj m) );
        ]
        @ List.map
            (fun ((label, _) as spec) ->
              (label, fun m -> ignore (Core.Mig_flows.run_request ~scripts:[ spec ] m)))
            custom_flows
      in
      let paper_algorithms =
        List.filter (fun (alg, _) -> not (String.contains alg '/')) algorithms
      in
      let area_only = List.filter (fun (alg, _) -> alg = "area") algorithms in
      (* One pool task per (circuit, algorithm) cell, in the same order the
         sequential concat_map produced — Par.map keeps that order, so the
         row list differs from a --jobs 1 run only in the "seconds" field. *)
      let tiers =
        List.map (fun (c, b) -> (c, b, algorithms)) (bundled @ generated)
        @ [
            ("scale10k", scale_build 10_000, paper_algorithms);
            ("scale100k", scale_build 100_000, area_only);
          ]
      in
      let cells =
        List.concat_map
          (fun (circuit, build, algs) ->
            List.map (fun (alg, run) -> (circuit, build, alg, run)) algs)
          tiers
      in
      let opt_rows, opt_dt =
        wall (fun () ->
            Par.map ~jobs
              (fun (circuit, build, alg, run) ->
                let gates = Core.Mig.size (build ()) in
                let _, dt = wall (fun () -> run (build ())) in
                Obs.Json.Assoc
                  [
                    ("circuit", Obs.Json.String circuit);
                    ("gates", Obs.Json.Int gates);
                    ("algorithm", Obs.Json.String alg);
                    ("seconds", Obs.Json.Float dt);
                  ])
              cells)
      in
      Obs.write_json opt_path
        (Obs.Json.Assoc
           [
             ("schema", Obs.Json.String "migsyn-bench-opt/1");
             ("effort", Obs.Json.Int effort);
             ("rows", Obs.Json.List opt_rows);
           ]);
      Printf.printf
        "  wrote %s (%d rows: optimization wall times on the largest circuits; %.2f s)\n"
        opt_path (List.length opt_rows) opt_dt;
      (* Mirror the BENCH_opt cells into the run manifest so a ledgered
         harness run is directly comparable to the committed baseline. *)
      List.iter
        (fun row ->
          let s k =
            match Obs.Json.member k row with Obs.Json.String s -> s | _ -> ""
          in
          Obs.Manifest.add_result
            (Printf.sprintf "opt.%s.%s.seconds" (s "circuit") (s "algorithm"))
            (Obs.Json.member "seconds" row))
        opt_rows);

  section "Ablations (design-choice studies; see DESIGN.md)";
  let pick name = Option.get (Io.Benchmarks.find name) in
  Format.printf "@[<v>Effort sweep (Alg. 4, MAJ costs) — where effort=40 saturates:@,";
  List.iter
    (fun name ->
      Format.printf "  %s:@,%a" name Exp.Ablation.pp_effort_sweep
        (Exp.Ablation.effort_sweep (pick name)))
    [ "b9"; "cordic"; "alu4" ];
  Format.printf "@,Rule ablation (what each mechanism of Alg. 4 buys, MAJ costs):@,";
  List.iter
    (fun name ->
      Format.printf "  %s:@,%a" name Exp.Ablation.pp_rule_ablation
        (Exp.Ablation.rule_ablation (pick name)))
    [ "b9"; "cordic"; "parity" ];
  Format.printf
    "@,Duplication bound of the multi-objective algorithm (R-vs-S trade-off):@,";
  List.iter
    (fun name ->
      Format.printf "  %s:@,%a" name Exp.Ablation.pp_fanout_sweep
        (Exp.Ablation.fanout_limit_sweep (pick name)))
    [ "b9"; "alu4" ];
  Format.printf "@,BDD variable order (baseline sensitivity; nodes / levelized steps):@,";
  List.iter
    (fun name ->
      Format.printf "  %-8s" name;
      List.iter
        (fun (h, nodes, steps) ->
          if nodes < 0 then Format.printf "  %s: overflow" h
          else Format.printf "  %s: %d/%d" h nodes steps)
        (Exp.Ablation.bdd_order_sweep (pick name));
      Format.printf "@,")
    [ "alu4"; "cm150a"; "t481" ];
  Format.printf
    "@,Level scheduling (ASAP vs slack-balanced; MAJ costs — R drops for free):@,";
  List.iter
    (fun name ->
      let asap, bal = Exp.Ablation.schedule_row (pick name) in
      Format.printf "  %-10s ASAP %a   balanced %a@," name Core.Rram_cost.pp asap
        Core.Rram_cost.pp bal)
    [ "5xp1"; "alu4"; "apex4"; "misex3"; "seq" ];
  Format.printf
    "@,Boolean cut rewriting (extension; gates: initial / Alg.1 / Alg.1+Boolean):@,";
  List.iter
    (fun name ->
      let init, area, boolean = Exp.Ablation.boolean_rewrite_row (pick name) in
      Format.printf "  %-10s %4d / %4d / %4d@," name init area boolean)
    [ "5xp1"; "cordic"; "misex1"; "x2"; "apex4" ];
  Format.printf
    "@,PLiM computer [15] (sequential RM3 stream) vs level-parallel realizations:@,";
  List.iter
    (fun name ->
      let r = Exp.Ablation.plim_row (pick name) in
      Format.printf
        "  %-8s gates=%4d  PLiM %5d RM3 / %4d cells   MAJ %4d steps   IMP %4d steps@,"
        name r.Exp.Ablation.gates r.Exp.Ablation.plim_instructions
        r.Exp.Ablation.plim_cells r.Exp.Ablation.maj_steps r.Exp.Ablation.imp_steps)
    [ "5xp1"; "alu4"; "b9"; "clip"; "cordic"; "t481" ];
  Format.printf
    "@,Fault tolerance (functional yield vs stuck-at rate; baseline / remap / TMR):@,";
  List.iter
    (fun name ->
      Format.printf "  %s:@,%a" name Exp.Ablation.pp_yield_curve
        (Exp.Ablation.yield_curve ~trials:100 (pick name)))
    [ "5xp1"; "b9" ];
  Format.printf
    "@,Statistical variability (Monte-Carlo yield vs sigma over the sampled@,\
     device physics; Wilson 95%% CIs; campaign fans across the Par pool):@,";
  List.iter
    (fun name ->
      let config =
        {
          Exp.Montecarlo.default with
          trials = 100;
          sigmas = [ 0.5; 1.0; 1.5 ];
          jobs = Some jobs;
        }
      in
      let t =
        Exp.Montecarlo.run ~config ~name ((pick name).Io.Benchmarks.build ())
      in
      let executions =
        float_of_int (t.Exp.Montecarlo.trials * List.length t.Exp.Montecarlo.points)
      in
      Format.printf "  %a  (%.0f trials/s, --jobs %d)@," Exp.Montecarlo.pp t
        (executions /. t.Exp.Montecarlo.wall_seconds)
        jobs)
    [ "5xp1"; "b9" ];
  Format.printf
    "@,Pulse energy (static pulse counts, arbitrary units) and crossbar geometry:@,";
  List.iter
    (fun name ->
      let mig =
        Core.Mig_opt.run ~effort:20 Core.Mig_opt.Steps
          (Core.Mig_of_network.convert ((pick name).Io.Benchmarks.build ()))
      in
      let line realization =
        let r = Rram.Compile_mig.compile realization mig in
        let e = Rram.Energy.static_energy r.Rram.Compile_mig.program in
        let place = Rram.Placement.place r.Rram.Compile_mig.program in
        Format.asprintf "%a %7.0f a.u., %a" Core.Rram_cost.pp_realization realization e
          Rram.Placement.pp place
      in
      Format.printf "  %-8s %s | %s@," name (line Core.Rram_cost.Imp)
        (line Core.Rram_cost.Maj))
    [ "alu4"; "b9"; "cordic"; "t481" ];
  Format.printf "@]@.";

  section "Crossbar-constrained mapping (serial vs parallel pulse waves)";
  let xbar_entries =
    List.filter_map Io.Benchmarks.find
      [ "5xp1"; "alu4"; "b9"; "clip"; "cordic"; "t481" ]
  in
  let xbar, xbar_time =
    wall (fun () -> Exp.Crossbar.run ~effort ~jobs ~entries:xbar_entries ())
  in
  Format.printf "%a" Exp.Crossbar.pp xbar;
  Printf.printf "(crossbar sweep computed in %.2f s; full suite: migsyn crossbar)\n"
    xbar_time;
  Obs.Manifest.add_result "crossbar_rows"
    (Obs.Json.Int (List.length xbar.Exp.Crossbar.rows));
  Obs.Manifest.add_result "crossbar_seconds" (Obs.Json.Float xbar_time);

  section "Bechamel micro-benchmarks (one per table)";
  let table1_test =
    Test.make ~name:"table1/maj-gate-compile+execute"
      (Staged.stage (fun () ->
           let mig = Core.Mig.create () in
           let a = Core.Mig.add_pi mig in
           let b = Core.Mig.add_pi mig in
           let c = Core.Mig.add_pi mig in
           ignore (Core.Mig.add_po mig (Core.Mig.maj mig a b c));
           let r = Rram.Compile_mig.compile Core.Rram_cost.Maj mig in
           Rram.Interp.run r.Rram.Compile_mig.program [| true; false; true |]))
  in
  let alu4 = (Option.get (Io.Benchmarks.find "alu4")).Io.Benchmarks.build () in
  let alu4_mig = Core.Mig_of_network.convert alu4 in
  let table2_test =
    Test.make ~name:"table2/steps-optimization-alu4"
      (Staged.stage (fun () -> Core.Mig_opt.run ~effort:10 Core.Mig_opt.Steps alu4_mig))
  in
  let b9 = (Option.get (Io.Benchmarks.find "b9")).Io.Benchmarks.build () in
  let b9_perm = Bdd_lib.Bdd_order.order Bdd_lib.Bdd_order.Dfs b9 in
  let table3_bdd_test =
    Test.make ~name:"table3/bdd-flow-b9"
      (Staged.stage (fun () ->
           Rram.Compile_bdd.compile (Bdd_lib.Bdd_of_network.build ~perm:b9_perm b9)))
  in
  let rd73 = Logic.Funcgen.rd 7 3 in
  let table3_aig_test =
    Test.make ~name:"table3/aig-flow-rd73"
      (Staged.stage (fun () ->
           Rram.Compile_aig.compile (Aig_lib.Aig_of_network.convert rd73)))
  in
  let tests = [ table1_test; table2_test; table3_bdd_test; table3_aig_test ] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:false () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results = Analyze.all ols (List.hd instances) raw in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "  %-40s %12.0f ns/run\n" name est
          | _ -> Printf.printf "  %-40s (no estimate)\n" name)
        results)
    tests;
  (match ledger_path with
  | None -> ()
  | Some path ->
      Obs.Ledger.append path (Obs.Manifest.finish ());
      Printf.printf "\nappended run to %s\n" path);
  Printf.printf "\nDone.\n"
