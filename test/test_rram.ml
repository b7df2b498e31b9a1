open Logic

(* ------------------------------------------------------------------ *)
(* Device physics: Fig. 1 and Fig. 2 truth tables                      *)
(* ------------------------------------------------------------------ *)

let device_tests =
  let open Alcotest in
  [
    test_case "IMP truth table (Fig. 1b)" `Quick (fun () ->
        (* q' = p IMP q = ¬p ∨ q *)
        List.iter
          (fun (p, q, expect) ->
            let dp = Rram.Device.create () and dq = Rram.Device.create () in
            Rram.Device.write dp p;
            Rram.Device.write dq q;
            Rram.Device.imp_pulse ~p:dp ~q:dq;
            check bool (Printf.sprintf "p=%b q=%b" p q) expect (Rram.Device.read dq);
            check bool "p unchanged" p (Rram.Device.read dp))
          [ (false, false, true); (false, true, true); (true, false, false); (true, true, true) ]);
    test_case "MAJ pulse truth table (Fig. 2)" `Quick (fun () ->
        (* R' = M(P, ¬Q, R): for R=0, R' = P·¬Q; for R=1, R' = P ∨ ¬Q *)
        List.iter
          (fun (p, q, r, expect) ->
            let d = Rram.Device.create () in
            Rram.Device.write d r;
            Rram.Device.maj_pulse d ~p ~q;
            check bool (Printf.sprintf "P=%b Q=%b R=%b" p q r) expect (Rram.Device.read d))
          [
            (false, false, false, false);
            (false, true, false, false);
            (true, false, false, true);
            (true, true, false, false);
            (false, false, true, true);
            (false, true, true, false);
            (true, false, true, true);
            (true, true, true, true);
          ]);
    test_case "FALSE clears" `Quick (fun () ->
        let d = Rram.Device.create () in
        Rram.Device.set d;
        Rram.Device.clear d;
        check bool "cleared" false (Rram.Device.read d));
    test_case "MAJ pulse is the majority of P, ~Q, R" `Quick (fun () ->
        for m = 0 to 7 do
          let p = m land 1 <> 0 and q = m land 2 <> 0 and r = m land 4 <> 0 in
          let d = Rram.Device.create () in
          Rram.Device.write d r;
          Rram.Device.maj_pulse d ~p ~q;
          let count = (if p then 1 else 0) + (if not q then 1 else 0) + if r then 1 else 0 in
          Alcotest.(check bool) "majority" (count >= 2) (Rram.Device.read d)
        done);
  ]

(* ------------------------------------------------------------------ *)
(* The paper's hand-derived gate sequences                              *)
(* ------------------------------------------------------------------ *)

let single_maj_mig () =
  let mig = Core.Mig.create () in
  let a = Core.Mig.add_pi mig in
  let b = Core.Mig.add_pi mig in
  let c = Core.Mig.add_pi mig in
  ignore (Core.Mig.add_po mig (Core.Mig.maj mig a b c));
  mig

let sequence_tests =
  let open Alcotest in
  [
    test_case "IMP majority gate: 6 RRAMs, 10 steps, correct" `Quick (fun () ->
        let mig = single_maj_mig () in
        let r = Rram.Compile_mig.compile Core.Rram_cost.Imp mig in
        check int "steps" 10 r.Rram.Compile_mig.measured_steps;
        check int "rrams" 6 r.Rram.Compile_mig.measured_rrams;
        (match Rram.Program.validate r.Rram.Compile_mig.program with
        | Ok () -> ()
        | Error e -> fail e);
        match Rram.Verify.against_mig r.Rram.Compile_mig.program mig with
        | Ok () -> ()
        | Error e -> fail e);
    test_case "MAJ majority gate: 4 RRAMs, 3 steps, correct" `Quick (fun () ->
        let mig = single_maj_mig () in
        let r = Rram.Compile_mig.compile Core.Rram_cost.Maj mig in
        check int "steps" 3 r.Rram.Compile_mig.measured_steps;
        check int "rrams" 4 r.Rram.Compile_mig.measured_rrams;
        match Rram.Verify.against_mig r.Rram.Compile_mig.program mig with
        | Ok () -> ()
        | Error e -> fail e);
  ]

(* ------------------------------------------------------------------ *)
(* MIG compiler: formula cross-check + functional verification         *)
(* ------------------------------------------------------------------ *)

let check_mig_compile ?(realizations = [ Core.Rram_cost.Imp; Core.Rram_cost.Maj ]) mig =
  List.iter
    (fun realization ->
      let r = Rram.Compile_mig.compile realization mig in
      (match Rram.Program.validate r.Rram.Compile_mig.program with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("invalid program: " ^ e));
      Alcotest.(check int)
        "measured steps = Table I formula" r.Rram.Compile_mig.analytic.Core.Rram_cost.steps
        r.Rram.Compile_mig.measured_steps;
      Alcotest.(check bool)
        "measured rrams >= analytic" true
        (r.Rram.Compile_mig.measured_rrams >= r.Rram.Compile_mig.analytic.Core.Rram_cost.rrams);
      match Rram.Verify.against_mig r.Rram.Compile_mig.program mig with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    realizations

let mig_compile_tests =
  let open Alcotest in
  let of_net net = Core.Mig_of_network.convert net in
  [
    test_case "full adder" `Quick (fun () -> check_mig_compile (of_net (Funcgen.full_adder ())));
    test_case "ripple adder 4" `Quick (fun () ->
        check_mig_compile (of_net (Funcgen.ripple_adder 4)));
    test_case "cla adder 3" `Quick (fun () ->
        check_mig_compile (of_net (Funcgen.carry_lookahead_adder 3)));
    test_case "multiplier 3" `Quick (fun () -> check_mig_compile (of_net (Funcgen.multiplier 3)));
    test_case "rd53" `Quick (fun () -> check_mig_compile (of_net (Funcgen.rd 5 3)));
    test_case "9sym" `Quick (fun () -> check_mig_compile (of_net (Funcgen.sym_range 9 3 6)));
    test_case "parity 8" `Quick (fun () -> check_mig_compile (of_net (Funcgen.parity 8)));
    test_case "comparator 4" `Quick (fun () -> check_mig_compile (of_net (Funcgen.comparator 4)));
    test_case "clip" `Quick (fun () -> check_mig_compile (of_net (Funcgen.clip ())));
    test_case "t481" `Quick (fun () -> check_mig_compile (of_net (Funcgen.t481 ())));
    test_case "complemented PO" `Quick (fun () ->
        let mig = Core.Mig.create () in
        let a = Core.Mig.add_pi mig and b = Core.Mig.add_pi mig and c = Core.Mig.add_pi mig in
        ignore (Core.Mig.add_po mig (Core.Mig.not_ (Core.Mig.maj mig a b c)));
        check_mig_compile mig);
    test_case "PO is a PI / constant" `Quick (fun () ->
        let mig = Core.Mig.create () in
        let a = Core.Mig.add_pi mig in
        ignore (Core.Mig.add_po mig a);
        ignore (Core.Mig.add_po mig Core.Mig.const1);
        List.iter
          (fun realization ->
            let r = Rram.Compile_mig.compile realization mig in
            match Rram.Verify.against_mig r.Rram.Compile_mig.program mig with
            | Ok () -> ()
            | Error e -> fail e)
          [ Core.Rram_cost.Imp; Core.Rram_cost.Maj ]);
    test_case "optimized MIGs still compile correctly" `Quick (fun () ->
        let mig = of_net (Funcgen.rd 5 3) in
        List.iter
          (fun alg ->
            let optimized = Core.Mig_opt.run ~effort:8 alg mig in
            check_mig_compile optimized)
          [
            Core.Mig_opt.Area;
            Core.Mig_opt.Depth;
            Core.Mig_opt.Rram_costs Core.Rram_cost.Maj;
            Core.Mig_opt.Steps;
          ]);
  ]

let mig_compile_props =
  let random_mig seed =
    let rng = Prng.create seed in
    let mig = Core.Mig.create () in
    let signals = ref [| Core.Mig.const0 |] in
    let add s = signals := Array.append !signals [| s |] in
    for _ = 1 to 5 do
      add (Core.Mig.add_pi mig)
    done;
    for _ = 1 to 25 do
      let pick () =
        let s = Prng.pick rng !signals in
        if Prng.bool rng then Core.Mig.not_ s else s
      in
      add (Core.Mig.maj mig (pick ()) (pick ()) (pick ()))
    done;
    for _ = 1 to 3 do
      ignore (Core.Mig.add_po mig (Prng.pick rng !signals))
    done;
    Core.Mig.cleanup mig
  in
  [
    QCheck.Test.make ~name:"random MIGs: program = MIG function (IMP)" ~count:40
      (QCheck.make QCheck.Gen.(int_bound 100000))
      (fun seed ->
        let mig = random_mig seed in
        let r = Rram.Compile_mig.compile Core.Rram_cost.Imp mig in
        Rram.Verify.against_mig r.Rram.Compile_mig.program mig = Ok ());
    QCheck.Test.make ~name:"random MIGs: program = MIG function (MAJ)" ~count:40
      (QCheck.make QCheck.Gen.(int_bound 100000))
      (fun seed ->
        let mig = random_mig seed in
        let r = Rram.Compile_mig.compile Core.Rram_cost.Maj mig in
        Rram.Verify.against_mig r.Rram.Compile_mig.program mig = Ok ());
    QCheck.Test.make ~name:"random MIGs: steps match Table I (both)" ~count:40
      (QCheck.make QCheck.Gen.(int_bound 100000))
      (fun seed ->
        let mig = random_mig seed in
        let depth = (Core.Mig_levels.compute mig).Core.Mig_levels.depth in
        List.for_all
          (fun realization ->
            let r = Rram.Compile_mig.compile realization mig in
            let analytic = r.Rram.Compile_mig.analytic.Core.Rram_cost.steps in
            (* A depth-0 graph with complemented input outputs has no gate
               level whose load step can absorb the staging copies, costing
               one extra step over the formula (documented corner). *)
            if depth = 0 then
              r.Rram.Compile_mig.measured_steps <= analytic + 1
            else r.Rram.Compile_mig.measured_steps = analytic)
          [ Core.Rram_cost.Imp; Core.Rram_cost.Maj ]);
  ]

(* ------------------------------------------------------------------ *)
(* Baseline compilers                                                   *)
(* ------------------------------------------------------------------ *)

let check_bdd mode net =
  let built = Bdd_lib.Bdd_of_network.build net in
  let r = Rram.Compile_bdd.compile ~mode built in
  (match Rram.Program.validate r.Rram.Compile_bdd.program with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("invalid BDD program: " ^ e));
  match Rram.Verify.against_network r.Rram.Compile_bdd.program net with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let check_aig mode net =
  let aig = Aig_lib.Aig_of_network.convert net in
  let r = Rram.Compile_aig.compile ~mode aig in
  (match Rram.Program.validate r.Rram.Compile_aig.program with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("invalid AIG program: " ^ e));
  match Rram.Verify.against_network r.Rram.Compile_aig.program net with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let baseline_tests =
  let open Alcotest in
  let nets =
    [
      ("full adder", Funcgen.full_adder ());
      ("ripple 4", Funcgen.ripple_adder 4);
      ("rd53", Funcgen.rd 5 3);
      ("comparator 3", Funcgen.comparator 3);
      ("parity 6", Funcgen.parity 6);
      ("mux tree 2", Funcgen.mux_tree 2);
      ("clip", Funcgen.clip ());
    ]
  in
  List.concat_map
    (fun (name, net) ->
      [
        test_case (name ^ " / BDD sequential") `Quick (fun () -> check_bdd `Sequential net);
        test_case (name ^ " / BDD levelized") `Quick (fun () -> check_bdd `Levelized net);
        test_case (name ^ " / AIG sequential") `Quick (fun () -> check_aig `Sequential net);
        test_case (name ^ " / AIG levelized") `Quick (fun () -> check_aig `Levelized net);
      ])
    nets
  @ [
      test_case "BDD sequential steps scale with nodes" `Quick (fun () ->
          let net = Funcgen.rd 7 3 in
          let built = Bdd_lib.Bdd_of_network.build net in
          let nodes = Bdd_lib.Bdd_of_network.node_count built in
          let r = Rram.Compile_bdd.compile ~mode:`Sequential built in
          check bool "at least 5 steps per node" true
            (r.Rram.Compile_bdd.measured_steps >= 5 * nodes));
      test_case "MAJ-MIG beats sequential BDD on steps" `Quick (fun () ->
          (* the headline comparison, in miniature *)
          let net = Funcgen.rd 7 3 in
          let mig =
            Core.Mig_opt.run ~effort:8 Core.Mig_opt.Steps (Core.Mig_of_network.convert net)
          in
          let mig_r = Rram.Compile_mig.compile Core.Rram_cost.Maj mig in
          let bdd_r =
            Rram.Compile_bdd.compile ~mode:`Sequential (Bdd_lib.Bdd_of_network.build net)
          in
          check bool "MIG-MAJ faster" true
            (mig_r.Rram.Compile_mig.measured_steps < bdd_r.Rram.Compile_bdd.measured_steps));
    ]

(* ------------------------------------------------------------------ *)
(* Energy accounting and crossbar placement                            *)
(* ------------------------------------------------------------------ *)

let energy_tests =
  let open Alcotest in
  [
    test_case "single-gate pulse counts" `Quick (fun () ->
        let r = Rram.Compile_mig.compile Core.Rram_cost.Imp (single_maj_mig ()) in
        let c = Rram.Energy.static_counts r.Rram.Compile_mig.program in
        (* the 10-step sequence: 3 loads + 3 presets + 1 mid-FALSE + 8 imps *)
        check int "loads" 3 c.Rram.Energy.loads;
        check int "resets" 4 c.Rram.Energy.resets;
        check int "imps" 8 c.Rram.Energy.imps;
        check int "maj" 0 c.Rram.Energy.maj_pulses);
    test_case "maj realization uses fewer pulses" `Quick (fun () ->
        let mig = Core.Mig_of_network.convert (Logic.Funcgen.rd 5 3) in
        let imp = Rram.Compile_mig.compile Core.Rram_cost.Imp mig in
        let maj = Rram.Compile_mig.compile Core.Rram_cost.Maj mig in
        check bool "fewer" true
          (Rram.Energy.total_pulses (Rram.Energy.static_counts maj.Rram.Compile_mig.program)
          < Rram.Energy.total_pulses (Rram.Energy.static_counts imp.Rram.Compile_mig.program)));
    test_case "switching activity bounded by pulses" `Quick (fun () ->
        let r = Rram.Compile_mig.compile Core.Rram_cost.Maj (single_maj_mig ()) in
        let flips = Rram.Energy.switching_activity r.Rram.Compile_mig.program in
        let pulses = Rram.Energy.total_pulses (Rram.Energy.static_counts r.Rram.Compile_mig.program) in
        check bool "bounded" true (flips <= float_of_int pulses));
    test_case "static energy positive and weight-sensitive" `Quick (fun () ->
        let r = Rram.Compile_mig.compile Core.Rram_cost.Imp (single_maj_mig ()) in
        let e1 = Rram.Energy.static_energy r.Rram.Compile_mig.program in
        let w = { Rram.Energy.default_weights with imp = 2.4 } in
        let e2 = Rram.Energy.static_energy ~weights:w r.Rram.Compile_mig.program in
        check bool "positive" true (e1 > 0.0);
        check bool "sensitive" true (e2 > e1));
  ]

let placement_tests =
  let open Alcotest in
  let programs () =
    List.concat_map
      (fun net ->
        let mig = Core.Mig_of_network.convert net in
        [
          (Rram.Compile_mig.compile Core.Rram_cost.Imp mig).Rram.Compile_mig.program;
          (Rram.Compile_mig.compile Core.Rram_cost.Maj mig).Rram.Compile_mig.program;
        ])
      [ Logic.Funcgen.full_adder (); Logic.Funcgen.rd 5 3; Logic.Funcgen.comparator 4 ]
  in
  [
    test_case "placements are valid" `Quick (fun () ->
        List.iter
          (fun p ->
            let placement = Rram.Placement.place p in
            match Rram.Placement.validate p placement with
            | Ok () -> ()
            | Error e -> fail e)
          (programs ()));
    test_case "utilization in (0, 1]" `Quick (fun () ->
        List.iter
          (fun p ->
            let t = Rram.Placement.place p in
            check bool "util" true (t.Rram.Placement.utilization > 0.0 && t.Rram.Placement.utilization <= 1.0))
          (programs ()));
    test_case "imp gate devices share a row" `Quick (fun () ->
        let r = Rram.Compile_mig.compile Core.Rram_cost.Imp (single_maj_mig ()) in
        let t = Rram.Placement.place r.Rram.Compile_mig.program in
        (* all 6 devices of the single gate interact through IMP: one row *)
        check bool "at most 2 rows" true (t.Rram.Placement.rows <= 2));
  ]

(* ------------------------------------------------------------------ *)
(* Crossbar-constrained compilation                                     *)
(* ------------------------------------------------------------------ *)

(* Full contract of the crossbar backend on a fitted geometry: the program
   is structurally valid under the per-step row discipline, the placement
   is consistent, the parallel-wave execution computes the same function as
   the MIG, and the latency matches the serial compiler (exactly for MAJ;
   IMP pays one complement sub-step per extra operand position in use,
   which the serial model understates). *)
let crossbar_check mig =
  List.iter
    (fun realization ->
      let serial = Rram.Compile_mig.compile realization mig in
      let arch = Rram.Compile_crossbar.fit realization mig in
      match Rram.Compile_crossbar.compile ~arch realization mig with
      | Error e -> Alcotest.fail ("fit geometry rejected: " ^ e)
      | Ok r ->
          let p = r.Rram.Compile_crossbar.program in
          let placement = r.Rram.Compile_crossbar.placement in
          (match
             Rram.Program.validate ~row_of:placement.Rram.Placement.row_of p
           with
          | Ok () -> ()
          | Error e -> Alcotest.fail ("row discipline: " ^ e));
          (match Rram.Placement.validate p placement with
          | Ok () -> ()
          | Error e -> Alcotest.fail ("placement: " ^ e));
          (match Rram.Verify.against_mig p mig with
          | Ok () -> ()
          | Error e -> Alcotest.fail ("crossbar program diverges: " ^ e));
          let latency = r.Rram.Compile_crossbar.measured.Core.Rram_cost.latency in
          let serial_steps = serial.Rram.Compile_mig.measured_steps in
          (match realization with
          | Core.Rram_cost.Maj ->
              Alcotest.(check int)
                "MAJ fitted latency = serial steps" serial_steps latency
          | Core.Rram_cost.Imp ->
              let depth = (Core.Mig_levels.compute mig).Core.Mig_levels.depth in
              Alcotest.(check bool)
                "IMP fitted latency within complement-rotation slack" true
                (latency <= serial_steps + (2 * depth) + 2));
          Alcotest.(check bool)
            "devices within capacity" true
            (match arch with
            | Core.Rram_cost.Crossbar { rows; columns } ->
                r.Rram.Compile_crossbar.measured.Core.Rram_cost.devices
                <= rows * columns
            | Core.Rram_cost.Unbounded_serial -> false))
    [ Core.Rram_cost.Imp; Core.Rram_cost.Maj ]

(* Halving the row budget must still produce an equivalent program — waves
   just serialize — and can only increase latency. *)
let crossbar_constrained_check mig =
  let realization = Core.Rram_cost.Maj in
  match Rram.Compile_crossbar.fit realization mig with
  | Core.Rram_cost.Unbounded_serial -> ()
  | Core.Rram_cost.Crossbar { rows; columns = _ } ->
      if rows > 1 then begin
        let fitted =
          match
            Rram.Compile_crossbar.compile
              ~arch:(Rram.Compile_crossbar.fit realization mig)
              realization mig
          with
          | Ok r -> r
          | Error e -> Alcotest.fail e
        in
        let arch =
          Core.Rram_cost.Crossbar { rows = (rows + 1) / 2; columns = 256 }
        in
        match Rram.Compile_crossbar.compile ~arch realization mig with
        | Error e -> Alcotest.fail ("halved rows rejected: " ^ e)
        | Ok r ->
            let p = r.Rram.Compile_crossbar.program in
            (match
               Rram.Program.validate
                 ~row_of:r.Rram.Compile_crossbar.placement.Rram.Placement.row_of
                 p
             with
            | Ok () -> ()
            | Error e -> Alcotest.fail ("row discipline: " ^ e));
            (match Rram.Verify.against_mig p mig with
            | Ok () -> ()
            | Error e -> Alcotest.fail ("constrained program diverges: " ^ e));
            Alcotest.(check bool)
              "halving rows never speeds the program up" true
              (r.Rram.Compile_crossbar.measured.Core.Rram_cost.latency
              >= fitted.Rram.Compile_crossbar.measured.Core.Rram_cost.latency);
            Alcotest.(check bool)
              "spilled levels need more waves" true
              (r.Rram.Compile_crossbar.waves >= fitted.Rram.Compile_crossbar.waves)
      end

let crossbar_tests =
  let open Alcotest in
  let of_net net = Core.Mig_of_network.convert net in
  [
    test_case "single MAJ gate fits a 1x4 array in 3 steps" `Quick (fun () ->
        let mig = single_maj_mig () in
        let arch = Rram.Compile_crossbar.fit Core.Rram_cost.Maj mig in
        (match arch with
        | Core.Rram_cost.Crossbar { rows; columns } ->
            check int "rows" 1 rows;
            check int "columns" 4 columns
        | Core.Rram_cost.Unbounded_serial -> fail "expected a crossbar");
        match Rram.Compile_crossbar.compile ~arch Core.Rram_cost.Maj mig with
        | Error e -> fail e
        | Ok r ->
            check int "latency" 3
              r.Rram.Compile_crossbar.measured.Core.Rram_cost.latency;
            check int "devices" 4
              r.Rram.Compile_crossbar.measured.Core.Rram_cost.devices;
            check int "waves" 1 r.Rram.Compile_crossbar.waves);
    test_case "fitted geometry runs one wave per level" `Quick (fun () ->
        let mig = of_net (Funcgen.ripple_adder 4) in
        let arch = Rram.Compile_crossbar.fit Core.Rram_cost.Maj mig in
        match Rram.Compile_crossbar.compile ~arch Core.Rram_cost.Maj mig with
        | Error e -> fail e
        | Ok r ->
            check int "waves = depth"
              (Core.Mig_levels.compute mig).Core.Mig_levels.depth
              r.Rram.Compile_crossbar.waves);
    test_case "benchmarks map on fitted geometries" `Quick (fun () ->
        List.iter
          (fun net -> crossbar_check (of_net net))
          [
            Funcgen.full_adder ();
            Funcgen.ripple_adder 4;
            Funcgen.rd 5 3;
            Funcgen.parity 8;
            Funcgen.comparator 4;
            Funcgen.clip ();
          ]);
    test_case "complemented primary outputs read out correctly" `Quick (fun () ->
        let mig = Core.Mig.create () in
        let a = Core.Mig.add_pi mig
        and b = Core.Mig.add_pi mig
        and c = Core.Mig.add_pi mig in
        let g = Core.Mig.maj mig a b c in
        ignore (Core.Mig.add_po mig (Core.Mig.not_ g));
        ignore (Core.Mig.add_po mig (Core.Mig.not_ a));
        ignore (Core.Mig.add_po mig g);
        crossbar_check mig);
    test_case "row budget forces extra waves" `Quick (fun () ->
        crossbar_constrained_check (of_net (Funcgen.ripple_adder 4));
        crossbar_constrained_check (of_net (Funcgen.rd 5 3)));
    test_case "the serial target is rejected by the backend" `Quick (fun () ->
        match
          Rram.Compile_crossbar.compile ~arch:Core.Rram_cost.Unbounded_serial
            Core.Rram_cost.Maj (single_maj_mig ())
        with
        | Error _ -> ()
        | Ok _ -> fail "expected an error");
    test_case "a too-narrow crossbar is rejected with a reason" `Quick
      (fun () ->
        match
          Rram.Compile_crossbar.compile
            ~arch:(Core.Rram_cost.Crossbar { rows = 4; columns = 2 })
            Core.Rram_cost.Imp (single_maj_mig ())
        with
        | Error e ->
            check bool "mentions the column budget" true
              (String.length e > 0)
        | Ok _ -> fail "expected an error");
    test_case "architecture parsing" `Quick (fun () ->
        (match Core.Rram_cost.parse_arch "32x64" with
        | Ok (Core.Rram_cost.Crossbar { rows = 32; columns = 64 }) -> ()
        | _ -> fail "32x64 should parse");
        (match Core.Rram_cost.parse_arch "serial" with
        | Ok Core.Rram_cost.Unbounded_serial -> ()
        | _ -> fail "serial should parse");
        List.iter
          (fun text ->
            match Core.Rram_cost.parse_arch text with
            | Error _ -> ()
            | Ok _ -> fail (text ^ " should be rejected"))
          [ "0x8"; "8x0"; "-2x8"; "ax8"; "8"; "x"; "" ]);
    test_case "serial compile is bit-identical under the default arch" `Quick
      (fun () ->
        let mig = of_net (Funcgen.rd 5 3) in
        let a = Rram.Compile_mig.compile Core.Rram_cost.Maj mig in
        let b =
          Rram.Compile_mig.compile ~arch:Core.Rram_cost.Unbounded_serial
            Core.Rram_cost.Maj mig
        in
        check bool "same program" true
          (a.Rram.Compile_mig.program = b.Rram.Compile_mig.program));
  ]

let crossbar_props =
  let random_mig seed =
    let rng = Prng.create seed in
    let mig = Core.Mig.create () in
    let signals = ref [| Core.Mig.const0 |] in
    let add s = signals := Array.append !signals [| s |] in
    for _ = 1 to 5 do
      add (Core.Mig.add_pi mig)
    done;
    for _ = 1 to 25 do
      let pick () =
        let s = Prng.pick rng !signals in
        if Prng.bool rng then Core.Mig.not_ s else s
      in
      add (Core.Mig.maj mig (pick ()) (pick ()) (pick ()))
    done;
    for _ = 1 to 3 do
      ignore (Core.Mig.add_po mig (Prng.pick rng !signals))
    done;
    Core.Mig.cleanup mig
  in
  [
    QCheck.Test.make
      ~name:"random MIGs: crossbar waves = MIG function, rows disjoint (both)"
      ~count:40
      (QCheck.make QCheck.Gen.(int_bound 100000))
      (fun seed ->
        let mig = random_mig seed in
        crossbar_check mig;
        true);
    QCheck.Test.make ~name:"random MIGs: halved row budget stays equivalent"
      ~count:40
      (QCheck.make QCheck.Gen.(int_bound 100000))
      (fun seed ->
        let mig = random_mig seed in
        crossbar_constrained_check mig;
        true);
  ]

(* ------------------------------------------------------------------ *)
(* Non-ideal devices, fault semantics, remapping, TMR                   *)
(* ------------------------------------------------------------------ *)

let nonideal_device_tests =
  let open Alcotest in
  [
    test_case "defective cell ignores every pulse" `Quick (fun () ->
        let d = Rram.Device.create () in
        Rram.Device.set_defect d Rram.Device.Stuck_0;
        Rram.Device.set d;
        Rram.Device.maj_pulse d ~p:true ~q:false;
        Rram.Device.imp_apply ~p:false d;
        check bool "still 0" false (Rram.Device.read d));
    test_case "only state changes wear the cell" `Quick (fun () ->
        let d = Rram.Device.create () in
        Rram.Device.clear d;
        Rram.Device.write d false;
        check int "no-op writes are free" 0 (Rram.Device.wear d);
        Rram.Device.set d;
        check int "one switch" 1 (Rram.Device.wear d));
  ]

let fault_reference_setup () =
  let net = Funcgen.rd 5 3 in
  let mig = Core.Mig_opt.run ~effort:8 Core.Mig_opt.Steps (Core.Mig_of_network.convert net) in
  (mig, Core.Mig_sim.eval mig)

(* A single stuck-at fault that flips at least one output on some vector. *)
let find_breaking_fault program ~reference vectors =
  let result = ref None in
  (try
     for cell = 0 to program.Rram.Program.num_regs - 1 do
       List.iter
         (fun defect ->
           let f = (cell, defect) in
           if not (Rram.Faults.survives program ~reference [ f ] vectors) then begin
             result := Some f;
             raise Exit
           end)
         [ Rram.Device.Stuck_1; Rram.Device.Stuck_0 ]
     done
   with Exit -> ());
  !result

let fault_semantics_tests =
  let open Alcotest in
  [
    test_case "yield at rate 0.0 is exactly 1.0 (both realizations)" `Quick (fun () ->
        let mig, reference = fault_reference_setup () in
        List.iter
          (fun realization ->
            let r = Rram.Compile_mig.compile realization mig in
            let y =
              Rram.Faults.functional_yield ~trials:50 ~rate:0.0
                r.Rram.Compile_mig.program ~reference
            in
            check (float 0.0) "yield" 1.0 y.Rram.Faults.yield;
            check (float 0.0) "mean faults" 0.0 y.Rram.Faults.mean_faults)
          [ Core.Rram_cost.Imp; Core.Rram_cost.Maj ]);
    test_case "a stuck cell that is never live cannot change outputs" `Quick (fun () ->
        let mig, reference = fault_reference_setup () in
        let r = Rram.Compile_mig.compile Core.Rram_cost.Maj mig in
        let p = r.Rram.Compile_mig.program in
        (* a spare physical cell beyond every register the program touches *)
        let widened = { p with Rram.Program.num_regs = p.Rram.Program.num_regs + 1 } in
        let spare = p.Rram.Program.num_regs in
        let vectors = Rram.Verify.vectors p.Rram.Program.num_inputs in
        List.iter
          (fun defect ->
            check bool "outputs unchanged" true
              (Rram.Faults.survives widened ~reference [ (spare, defect) ] vectors))
          [ Rram.Device.Stuck_1; Rram.Device.Stuck_0 ];
        (* the resilient executor agrees: nothing to detect, nothing remapped *)
        let env = Rram.Resilient.env_of_defects [ (spare, Rram.Device.Stuck_1) ] in
        let report = Rram.Resilient.run env widened ~reference in
        check bool "ok" true report.Rram.Resilient.ok;
        check int "first attempt" 1 report.Rram.Resilient.attempts;
        check int "no moves" 0 (List.length report.Rram.Resilient.moves));
    test_case "repair succeeds where the unrepaired program fails" `Quick (fun () ->
        let mig, reference = fault_reference_setup () in
        let r = Rram.Compile_mig.compile Core.Rram_cost.Maj mig in
        let p = r.Rram.Compile_mig.program in
        let vectors = Rram.Verify.vectors p.Rram.Program.num_inputs in
        match find_breaking_fault p ~reference vectors with
        | None -> fail "expected a breaking single stuck-at fault"
        | Some f ->
            (* unrepaired: fails by construction *)
            check bool "unrepaired fails" false
              (Rram.Faults.survives p ~reference [ f ] vectors);
            let env = Rram.Resilient.env_of_defects [ f ] in
            let report = Rram.Resilient.run env p ~reference in
            check bool "repaired" true report.Rram.Resilient.ok;
            check bool "needed a retry" true (report.Rram.Resilient.attempts > 1);
            check bool "diagnosed the injected cell" true
              (List.mem (fst f) report.Rram.Resilient.diagnosed);
            (* the repaired program no longer touches the dead cell *)
            let live = Rram.Remap.live_regs report.Rram.Resilient.program in
            check bool "dead cell abandoned" false live.(fst f));
    test_case "remapped program verifies and grows only by the moves" `Quick (fun () ->
        let mig, _ = fault_reference_setup () in
        let r = Rram.Compile_mig.compile Core.Rram_cost.Imp mig in
        let p = r.Rram.Compile_mig.program in
        match Rram.Remap.remap p ~bad:[ 0; 3 ] with
        | Error e -> fail e
        | Ok m ->
            check int "two moves" 2 (List.length m.Rram.Remap.moves);
            check int "regs grew by 2" (p.Rram.Program.num_regs + 2)
              m.Rram.Remap.program.Rram.Program.num_regs;
            (match Rram.Program.validate m.Rram.Remap.program with
            | Ok () -> ()
            | Error e -> fail e);
            (match Rram.Verify.against_mig m.Rram.Remap.program mig with
            | Ok () -> ()
            | Error e -> fail e));
    test_case "remap refuses when the placement capacity is full" `Quick (fun () ->
        let mig, _ = fault_reference_setup () in
        let r = Rram.Compile_mig.compile Core.Rram_cost.Maj mig in
        let p = r.Rram.Compile_mig.program in
        let n = p.Rram.Program.num_regs in
        (* an array of exactly num_regs cells has no spare sites; one more
           cell is exactly enough for one move *)
        (match Rram.Remap.remap ~capacity:n p ~bad:[ 0 ] with
        | Error _ -> ()
        | Ok _ -> fail "expected an out-of-spares error");
        match Rram.Remap.remap ~capacity:(n + 1) p ~bad:[ 0 ] with
        | Error e -> fail e
        | Ok m ->
            check (list (pair int int)) "one move onto the last cell" [ (0, n) ]
              m.Rram.Remap.moves;
            check int "no spares left" 0 m.Rram.Remap.spares_left);
  ]

let tmr_tests =
  let open Alcotest in
  [
    test_case "TMR program is valid and fault-free correct" `Quick (fun () ->
        let mig, reference = fault_reference_setup () in
        List.iter
          (fun realization ->
            let r = Rram.Compile_mig.compile realization mig in
            let p = r.Rram.Compile_mig.program in
            let tmr = Rram.Tmr.protect p in
            (match Rram.Program.validate tmr.Rram.Tmr.program with
            | Ok () -> ()
            | Error e -> fail e);
            List.iter
              (fun v ->
                check bool "matches reference" true
                  (Rram.Interp.run tmr.Rram.Tmr.program v = reference v))
              (Rram.Verify.vectors p.Rram.Program.num_inputs))
          [ Core.Rram_cost.Imp; Core.Rram_cost.Maj ]);
    test_case "TMR with one faulty replica still verifies" `Quick (fun () ->
        let mig, reference = fault_reference_setup () in
        let r = Rram.Compile_mig.compile Core.Rram_cost.Maj mig in
        let p = r.Rram.Compile_mig.program in
        let vectors = Rram.Verify.vectors p.Rram.Program.num_inputs in
        match find_breaking_fault p ~reference vectors with
        | None -> fail "expected a breaking single stuck-at fault"
        | Some f ->
            let tmr = Rram.Tmr.protect p in
            let n = p.Rram.Program.num_regs in
            (* the same defect in each replica in turn: always voted out *)
            List.iter
              (fun k ->
                let shifted = (fst f + (k * n), snd f) in
                check bool
                  (Printf.sprintf "replica %d masked" k)
                  true
                  (Rram.Faults.survives tmr.Rram.Tmr.program ~reference [ shifted ]
                     vectors))
              [ 0; 1; 2 ]);
    test_case "TMR beats baseline yield at rate 0.01" `Quick (fun () ->
        let mig, reference = fault_reference_setup () in
        let r = Rram.Compile_mig.compile Core.Rram_cost.Maj mig in
        let c =
          Rram.Faults.yield_comparison ~trials:150 ~rate:0.01 r.Rram.Compile_mig.program
            ~reference
        in
        check bool "tmr > baseline" true
          (c.Rram.Faults.tmr.Rram.Faults.yield
          > c.Rram.Faults.baseline.Rram.Faults.yield);
        check bool "resilient >= tmr" true
          (c.Rram.Faults.resilient.Rram.Faults.yield
          >= c.Rram.Faults.tmr.Rram.Faults.yield));
    test_case "yield comparison survivor counts are pinned at seed 7" `Quick (fun () ->
        (* Exact counts of the stuck-at campaign (60 trials at rate 0.02):
           any change to the defect draw order, the interpreter or the
           repair loop moves them. *)
        let mig, reference = fault_reference_setup () in
        List.iter
          (fun (realization, (cells, tmr_cells, baseline, resilient, tmr)) ->
            let r = Rram.Compile_mig.compile realization mig in
            let c =
              Rram.Faults.yield_comparison ~seed:7 ~trials:60 ~rate:0.02
                r.Rram.Compile_mig.program ~reference
            in
            let name = Format.asprintf "%a" Core.Rram_cost.pp_realization realization in
            check (list int) name
              [ cells; tmr_cells; baseline; resilient; tmr ]
              [
                c.Rram.Faults.cells;
                c.Rram.Faults.tmr_cells;
                c.Rram.Faults.baseline.Rram.Faults.survivors;
                c.Rram.Faults.resilient.Rram.Faults.survivors;
                c.Rram.Faults.tmr.Rram.Faults.survivors;
              ])
          [
            (Core.Rram_cost.Maj, (33, 105, 33, 58, 38));
            (Core.Rram_cost.Imp, (47, 147, 20, 59, 32));
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* Trace-callback contract (see the Interp.mli doc): 1-based indices,  *)
(* post-step states, noiseless observes, pre-step latching visible     *)
(* ------------------------------------------------------------------ *)

let interp_trace_tests =
  let open Alcotest in
  let collect ?devices program inputs =
    let acc = ref [] in
    let trace idx step states = acc := (idx, step, Array.copy states) :: !acc in
    ignore
      (match devices with
      | Some devices -> Rram.Interp.run_on ~devices ~trace program inputs
      | None -> Rram.Interp.run ~trace program inputs);
    List.rev !acc
  in
  [
    test_case "exact ordering and post-step values" `Quick (fun () ->
        (* Step 2 pairs [Reset 0] with an IMP reading register 0: the IMP
           must latch the pre-step value (parallel semantics) while the
           trace shows the post-step state of both cells. *)
        let program =
          {
            Rram.Program.num_inputs = 1;
            num_regs = 2;
            steps =
              [
                [ Rram.Isa.Load (0, Rram.Isa.Input 0); Rram.Isa.Load (1, Rram.Isa.Const false) ];
                [ Rram.Isa.Reset 0; Rram.Isa.Imp { src = 0; dst = 1 } ];
                [
                  Rram.Isa.Maj_pulse
                    { p = Rram.Isa.Input 0; q = Rram.Isa.Reg 1; dst = 0 };
                ];
              ];
            outputs = [| Rram.Isa.Reg 0 |];
          }
        in
        List.iter
          (fun i ->
            let entries = collect program [| i |] in
            check (list int) "1-based step indices" [ 1; 2; 3 ]
              (List.map (fun (idx, _, _) -> idx) entries);
            List.iteri
              (fun k (_, step, _) ->
                check bool
                  (Printf.sprintf "step %d is the program's" (k + 1))
                  true
                  (step == List.nth program.Rram.Program.steps k))
              entries;
            (* after step 1: [|i; false|]; after step 2 (Reset 0 in
               parallel with dst1 <- ¬i ∨ false): [|false; ¬i|]; after
               step 3 (dst0 <- M(i, ¬(¬i), false) = i): [|i; ¬i|] *)
            let expect =
              [ [| i; false |]; [| false; not i |]; [| i; not i |] ]
            in
            List.iteri
              (fun k (_, _, states) ->
                check (array bool)
                  (Printf.sprintf "i=%b post-step states of step %d" i (k + 1))
                  (List.nth expect k) states)
              entries)
          [ true; false ]);
    test_case "states are noiseless observes under failing reads" `Quick (fun () ->
        (* The sense reference sits above both read currents, so every
           sensed read returns 0 and a cell holding 1 always misreads; the
           program avoids Reg reads so execution is unaffected, and the
           trace must show the true stored states (Device.observe), not
           reads. *)
        let program =
          {
            Rram.Program.num_inputs = 1;
            num_regs = 2;
            steps =
              [
                [ Rram.Isa.Load (0, Rram.Isa.Input 0); Rram.Isa.Load (1, Rram.Isa.Const true) ];
                [ Rram.Isa.Reset 1 ];
                [
                  Rram.Isa.Maj_pulse
                    { p = Rram.Isa.Input 0; q = Rram.Isa.Const false; dst = 1 };
                ];
              ];
            outputs = [| Rram.Isa.Input 0 |];
          }
        in
        let phys =
          {
            Rram.Device.r_lrs = 1.0;
            r_hrs = 2.0;
            v_read = 1.0;
            i_ref = 10.0;
            read_noise = 0.0;
            drift = 0.0;
            rng = Prng.create 0xD157;
          }
        in
        let devices = Rram.Interp.crossbar ~physics:(Array.make 2 phys) 2 in
        let entries = collect ~devices program [| true |] in
        check bool "the stored 1 misreads" false (Rram.Device.read devices.(1));
        let expect = [ [| true; true |]; [| true; false |]; [| true; true |] ] in
        check (list int) "indices" [ 1; 2; 3 ] (List.map (fun (i, _, _) -> i) entries);
        List.iteri
          (fun k (_, _, states) ->
            check (array bool)
              (Printf.sprintf "noiseless states of step %d" (k + 1))
              (List.nth expect k) states)
          entries);
    test_case "Resilient differential replay sees the defect, not noise" `Quick
      (fun () ->
        (* End-to-end guard for the diagnose contract: a stuck cell is found
           by comparing golden and faulty observe traces. *)
        let program =
          {
            Rram.Program.num_inputs = 1;
            num_regs = 2;
            steps =
              [
                [ Rram.Isa.Load (0, Rram.Isa.Input 0) ];
                [ Rram.Isa.Load (1, Rram.Isa.Reg 0) ];
              ];
            outputs = [| Rram.Isa.Reg 1 |];
          }
        in
        let env =
          Rram.Resilient.env_of_defects [ (1, Rram.Device.Stuck_0) ]
        in
        let reference v = [| v.(0) |] in
        let report =
          Rram.Resilient.run ~max_attempts:2 ~vectors:[ [| true |] ] env program
            ~reference
        in
        check (list int) "diagnosed the stuck cell" [ 1 ] report.Rram.Resilient.diagnosed;
        check bool "repaired" true report.Rram.Resilient.ok);
  ]

let () =
  Alcotest.run "rram"
    [
      ("device", device_tests);
      ("nonideal-device", nonideal_device_tests);
      ("paper-sequences", sequence_tests);
      ("mig-compile", mig_compile_tests);
      ("mig-compile-props", List.map QCheck_alcotest.to_alcotest mig_compile_props);
      ("baselines", baseline_tests);
      ("energy", energy_tests);
      ("placement", placement_tests);
      ("crossbar", crossbar_tests);
      ("crossbar-props", List.map QCheck_alcotest.to_alcotest crossbar_props);
      ("fault-semantics", fault_semantics_tests);
      ("tmr", tmr_tests);
      ("interp-trace", interp_trace_tests);
    ]
