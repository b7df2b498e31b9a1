(* Statistical device variability and Monte-Carlo yield campaigns
   (DESIGN.md §12): the splittable PRNG's stability and stream separation,
   the lognormal/Gaussian samplers' moments, the Variation device model
   (validation, perfect σ=0 arrays, drift-collapsed margins, the BIST
   screen), wear-aware remapping, and the campaign driver's determinism
   contract — jobs=1 and jobs=N produce identical per-trial outcomes — plus
   the protection-dominance shape of the yield curves. *)

let c17 () =
  let path =
    if Sys.file_exists "examples/c17.bench" then "examples/c17.bench"
    else "../examples/c17.bench"
  in
  Io.Bench_format.parse_file path

let compiled_c17 () =
  let mig = Core.Mig_opt.run ~effort:2 Core.Mig_opt.Steps (Core.Mig_of_network.convert (c17 ())) in
  let r = Rram.Compile_mig.compile Core.Rram_cost.Maj mig in
  (r.Rram.Compile_mig.program, Core.Mig_sim.eval mig)

(* ------------------------------------------------------------------ *)
(* Splittable PRNG                                                     *)
(* ------------------------------------------------------------------ *)

let prng_tests =
  let open Alcotest in
  [
    test_case "split_seed is stable across runs (pinned values)" `Quick (fun () ->
        check int "split_seed 42 0" 2320198762179089453 (Logic.Prng.split_seed 42 0);
        check int "split_seed 42 1" (-2591998252750549019) (Logic.Prng.split_seed 42 1);
        check int "split_seed 7 0" 3610735443005674341 (Logic.Prng.split_seed 7 0));
    test_case "split_seed separates indices and masters" `Quick (fun () ->
        let seeds = List.init 1000 (Logic.Prng.split_seed 42) in
        check int "1000 indices, 1000 distinct seeds" 1000
          (List.length (List.sort_uniq compare seeds));
        List.iteri
          (fun i a ->
            check bool "masters 42 and 43 disagree at every index" true
              (a <> Logic.Prng.split_seed 43 i))
          seeds);
    test_case "split streams diverge immediately" `Quick (fun () ->
        let master = Logic.Prng.create 0xBEEF in
        let a = Logic.Prng.split master 0 and b = Logic.Prng.split master 1 in
        let draws t = List.init 10 (fun _ -> Logic.Prng.float t) in
        check bool "first ten draws differ" true (draws a <> draws b));
    test_case "gaussian moments" `Quick (fun () ->
        let t = Logic.Prng.create 1234 in
        let n = 20_000 in
        let xs = List.init n (fun _ -> Logic.Prng.gaussian t) in
        let mean = List.fold_left ( +. ) 0.0 xs /. float_of_int n in
        let var =
          List.fold_left (fun a x -> a +. ((x -. mean) ** 2.0)) 0.0 xs
          /. float_of_int n
        in
        check bool "mean near 0" true (Float.abs mean < 0.03);
        check bool "variance near 1" true (Float.abs (var -. 1.0) < 0.05));
    test_case "lognormal median and mean" `Quick (fun () ->
        let t = Logic.Prng.create 99 in
        let n = 20_000 and median = 2500.0 and sigma = 0.4 in
        let xs =
          List.init n (fun _ -> Rram.Variation.lognormal t ~median ~sigma)
        in
        let sorted = List.sort compare xs in
        let observed_median = List.nth sorted (n / 2) in
        let mean = List.fold_left ( +. ) 0.0 xs /. float_of_int n in
        let expected_mean = median *. exp (sigma *. sigma /. 2.0) in
        check bool "median within 3%" true
          (Float.abs (observed_median /. median -. 1.0) < 0.03);
        check bool "mean within 3%" true
          (Float.abs (mean /. expected_mean -. 1.0) < 0.03));
  ]

(* ------------------------------------------------------------------ *)
(* Variation device model                                              *)
(* ------------------------------------------------------------------ *)

let is_error = function Error _ -> true | Ok _ -> false

let variation_tests =
  let open Alcotest in
  [
    test_case "validate rejects unphysical parameters" `Quick (fun () ->
        let n = Rram.Variation.nominal in
        check bool "negative LRS" true
          (is_error (Rram.Variation.validate { n with r_lrs = -1.0 }));
        check bool "LRS above HRS" true
          (is_error (Rram.Variation.validate { n with r_lrs = 1e6 }));
        check bool "negative sigma" true
          (is_error (Rram.Variation.validate { n with sigma_hrs = -0.1 }));
        check bool "negative noise" true
          (is_error (Rram.Variation.validate { n with read_noise = -0.01 }));
        check bool "negative drift" true
          (is_error (Rram.Variation.validate { n with drift = -0.001 }));
        check bool "zero read voltage" true
          (is_error (Rram.Variation.validate { n with v_read = 0.0 }));
        check bool "nominal is fine" false (is_error (Rram.Variation.validate n)));
    test_case "sigma 0 array computes the reference exactly" `Quick (fun () ->
        let program, reference = compiled_c17 () in
        let params = Rram.Variation.scaled 0.0 in
        let devices =
          Rram.Variation.crossbar params ~seed:5 program.Rram.Program.num_regs
        in
        List.iter
          (fun v ->
            check (list bool) "outputs match"
              (Array.to_list (reference v))
              (Array.to_list (Rram.Interp.run_on ~devices program v)))
          (Rram.Verify.vectors program.Rram.Program.num_inputs));
    test_case "sample is deterministic and seed-sensitive" `Quick (fun () ->
        let p = Rram.Variation.nominal in
        let rs seed =
          Array.map (fun d -> d.Rram.Device.r_lrs) (Rram.Variation.sample p ~seed 32)
        in
        check bool "same seed, same silicon" true (rs 11 = rs 11);
        check bool "different seed, different silicon" true (rs 11 <> rs 12));
    test_case "endurance drift collapses the sense margin" `Quick (fun () ->
        let d =
          (Rram.Variation.crossbar (Rram.Variation.scaled 0.0) ~seed:3 1).(0)
        in
        let margin0 =
          match Rram.Device.margin d with Some m -> m | None -> Alcotest.fail "physics"
        in
        check bool "fresh cell has positive margin" true (margin0 > 1.0);
        for i = 1 to 1000 do
          Rram.Device.write d (i mod 2 = 0)
        done;
        let margin1 =
          match Rram.Device.margin d with Some m -> m | None -> Alcotest.fail "physics"
        in
        check bool "worn cell's margin is below the fresh one" true (margin1 < margin0);
        check bool "1000 switching events push the margin negative" true (margin1 < 0.0));
    test_case "BIST screen flags wrong-side and stuck cells" `Quick (fun () ->
        let params = Rram.Variation.scaled 0.0 in
        let good = Rram.Variation.sample params ~seed:1 3 in
        (* Cell 1's LRS draw lands above the sense reference: it reads as 0
           in both states.  Cell 2 is manufactured stuck. *)
        let phys = Array.copy good in
        phys.(1) <- { phys.(1) with Rram.Device.r_lrs = phys.(1).Rram.Device.r_hrs };
        let devices =
          Rram.Interp.crossbar ~physics:phys
            ~defects:[ (2, Rram.Device.Stuck_1) ]
            3
        in
        check (list int) "screen verdict" [ 1; 2 ] (Rram.Variation.screen devices);
        let healthy = Rram.Interp.crossbar ~physics:good 3 in
        check (list int) "healthy array screens clean" []
          (Rram.Variation.screen healthy));
  ]

(* ------------------------------------------------------------------ *)
(* Wear-aware remapping                                                *)
(* ------------------------------------------------------------------ *)

let remap_tests =
  let open Alcotest in
  [
    test_case "replacement is the least-worn free cell" `Quick (fun () ->
        let program, _ = compiled_c17 () in
        let n = program.Rram.Program.num_regs in
        let wear = Array.make (n + 8) 0 in
        (* Free cells are n..n+7; make n+3 the clear winner. *)
        Array.iteri (fun i _ -> if i >= n then wear.(i) <- 50 + i) wear;
        wear.(n + 3) <- 1;
        (match Rram.Remap.remap_wear_aware ~wear program ~bad:[ 0 ] with
        | Error e -> fail e
        | Ok r ->
            check (list (pair int int)) "moves" [ (0, n + 3) ] r.Rram.Remap.moves);
        (* Equal wear everywhere: ties break to the lowest index. *)
        (match Rram.Remap.remap_wear_aware ~wear:(Array.make (n + 8) 7) program ~bad:[ 0 ] with
        | Error e -> fail e
        | Ok r -> check (list (pair int int)) "tie-break" [ (0, n) ] r.Rram.Remap.moves));
    test_case "known-bad cells never re-enter the pool" `Quick (fun () ->
        let program, _ = compiled_c17 () in
        let n = program.Rram.Program.num_regs in
        let wear = Array.make (n + 3) 0 in
        let bad = [ 0; n; n + 1 ] in
        (match Rram.Remap.remap_wear_aware ~wear program ~bad with
        | Error e -> fail e
        | Ok r ->
            check (list (pair int int)) "only the clean spare is used"
              [ (0, n + 2) ]
              r.Rram.Remap.moves);
        match Rram.Remap.remap_wear_aware ~wear:(Array.make n 0) program ~bad:[ 0 ] with
        | Error _ -> ()
        | Ok _ -> fail "expected out-of-spares error");
    test_case "resilient controller accepts the wear-aware policy" `Quick
      (fun () ->
        let program, reference = compiled_c17 () in
        let n = program.Rram.Program.num_regs in
        let wear = Array.make (n + 8) 0 in
        let env = Rram.Resilient.env_of_defects [ (1, Rram.Device.Stuck_1) ] in
        let remap p ~bad = Rram.Remap.remap_wear_aware ~wear p ~bad in
        let report = Rram.Resilient.run ~remap env program ~reference in
        check bool "repaired" true report.Rram.Resilient.ok;
        List.iter
          (fun (_, to_) -> check bool "repairs land on free cells" true (to_ >= n))
          report.Rram.Resilient.moves);
  ]

(* ------------------------------------------------------------------ *)
(* Campaign driver                                                     *)
(* ------------------------------------------------------------------ *)

let campaign ?(jobs = 1) ?(trials = 40) ?(sigmas = [ 0.0; 1.5 ]) () =
  let config =
    {
      Exp.Montecarlo.default with
      trials;
      sigmas;
      jobs = Some jobs;
      effort = 2;
      vectors = 16;
      seed = 0xCA4E;
    }
  in
  Exp.Montecarlo.run ~config ~name:"c17.bench" (c17 ())

(* Everything except the wall clock. *)
let fingerprint (t : Exp.Montecarlo.t) =
  ( t.Exp.Montecarlo.benchmark,
    t.Exp.Montecarlo.trials,
    t.Exp.Montecarlo.seed,
    t.Exp.Montecarlo.universe,
    t.Exp.Montecarlo.num_vectors,
    t.Exp.Montecarlo.points )

let yield_of point arm =
  let a =
    List.find (fun r -> r.Exp.Montecarlo.arm = arm) point.Exp.Montecarlo.arms
  in
  a.Exp.Montecarlo.estimate.Exp.Montecarlo.yield

let montecarlo_tests =
  let open Alcotest in
  [
    test_case "config validation rejects campaign nonsense" `Quick (fun () ->
        let bad c = is_error (Exp.Montecarlo.validate c) in
        let d = Exp.Montecarlo.default in
        check bool "trials 0" true (bad { d with trials = 0 });
        check bool "no sigmas" true (bad { d with sigmas = [] });
        check bool "negative sigma" true (bad { d with sigmas = [ 0.5; -1.0 ] });
        check bool "nan sigma" true (bad { d with sigmas = [ Float.nan ] });
        check bool "zero vectors" true (bad { d with vectors = 0 });
        check bool "zero attempts" true (bad { d with max_attempts = 0 });
        check bool "unphysical base" true
          (bad { d with base = { d.base with r_lrs = -5.0 } });
        check bool "default is valid" false (bad d));
    test_case "sigma 0 yields 1.0 on every arm" `Quick (fun () ->
        let t = campaign ~sigmas:[ 0.0 ] () in
        let p = List.hd t.Exp.Montecarlo.points in
        List.iter
          (fun arm -> check (float 0.0) arm 1.0 (yield_of p arm))
          [ "imp"; "maj"; "resilient"; "wear"; "tmr" ]);
    test_case "protection dominates unprotected at high sigma" `Quick (fun () ->
        let t = campaign ~trials:120 ~sigmas:[ 1.5 ] () in
        let p = List.hd t.Exp.Montecarlo.points in
        let maj = yield_of p "maj" and imp = yield_of p "imp" in
        check bool "TMR strictly beats bare MAJ" true (yield_of p "tmr" > maj);
        check bool "TMR strictly beats bare IMP" true (yield_of p "tmr" > imp);
        check bool "wear-aware strictly beats bare MAJ" true (yield_of p "wear" > maj);
        check bool "wear-aware strictly beats bare IMP" true (yield_of p "wear" > imp);
        check bool "wear-aware at least matches plain remapping" true
          (yield_of p "wear" >= yield_of p "resilient"));
    test_case "campaigns replay bit-identically at a fixed seed" `Quick (fun () ->
        check bool "equal fingerprints" true
          (fingerprint (campaign ()) = fingerprint (campaign ())));
  ]

let campaign_props =
  [
    QCheck.Test.make ~count:3
      ~name:"per-trial outcomes identical for jobs=1 and jobs=N"
      QCheck.(int_range 2 4)
      (fun jobs ->
        fingerprint (campaign ~jobs:1 ()) = fingerprint (campaign ~jobs ()));
  ]

let () =
  Alcotest.run "montecarlo"
    [
      ("prng", prng_tests);
      ("variation", variation_tests);
      ("remap-wear", remap_tests);
      ("campaign", montecarlo_tests);
      ("campaign-props", List.map QCheck_alcotest.to_alcotest campaign_props);
    ]
