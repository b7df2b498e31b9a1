open Logic

let equal_networks a b =
  Network.num_inputs a = Network.num_inputs b
  && Network.num_outputs a = Network.num_outputs b
  &&
  if Network.num_inputs a <= 12 then
    Array.for_all2 Truth_table.equal (Network.truth_tables a) (Network.truth_tables b)
  else begin
    let rng = Prng.create 77 in
    List.for_all
      (fun _ ->
        let ins =
          Array.init (Network.num_inputs a) (fun _ ->
              let bv = Bitvec.create 64 in
              Bitvec.randomize rng bv;
              bv)
        in
        let oa = Network.simulate a ins and ob = Network.simulate b ins in
        Array.for_all2 Bitvec.equal oa ob)
      (List.init 16 (fun i -> i))
  end

let sample_nets () =
  [
    ("full_adder", Funcgen.full_adder ());
    ("ripple4", Funcgen.ripple_adder 4);
    ("rd53", Funcgen.rd 5 3);
    ("parity9", Funcgen.parity 9);
    ("mux3", Funcgen.mux_tree 3);
    ("clip", Funcgen.clip ());
    ("comparator5", Funcgen.comparator 5);
    ("alu4", Funcgen.alu4 ());
  ]

let blif_tests =
  let open Alcotest in
  [
    test_case "parse a hand-written model" `Quick (fun () ->
        let text =
          {|# a full adder
.model fa
.inputs a b cin
.outputs sum cout
.names a b cin sum
100 1
010 1
001 1
111 1
.names a b cin cout
11- 1
1-1 1
-11 1
.end|}
        in
        let net = Io.Blif.parse_string text in
        check bool "equals reference" true (equal_networks net (Funcgen.full_adder ())));
    test_case "off-set cover (output 0)" `Quick (fun () ->
        let text =
          {|.model inv
.inputs a
.outputs y
.names a y
1 0
.end|}
        in
        let net = Io.Blif.parse_string text in
        let tt = (Network.truth_tables net).(0) in
        check string "y = not a" "10" (Truth_table.to_bits tt));
    test_case "constant covers" `Quick (fun () ->
        let text = ".model c\n.inputs a\n.outputs one zero\n.names one\n1\n.names zero\n.end" in
        let net = Io.Blif.parse_string text in
        let tts = Network.truth_tables net in
        check string "one" "11" (Truth_table.to_bits tts.(0));
        check string "zero" "00" (Truth_table.to_bits tts.(1)));
    test_case "out-of-order definitions" `Quick (fun () ->
        let text =
          ".model o\n.inputs a b\n.outputs y\n.names t y\n1 1\n.names a b t\n11 1\n.end"
        in
        let net = Io.Blif.parse_string text in
        check string "and" "0001" (Truth_table.to_bits (Network.truth_tables net).(0)));
    test_case "latch rejected" `Quick (fun () ->
        match Io.Blif.parse_string ".model l\n.inputs a\n.outputs q\n.latch a q\n.end" with
        | exception Io.Blif.Parse_error _ -> ()
        | _ -> fail "expected Parse_error");
    test_case "continuation lines" `Quick (fun () ->
        let text = ".model k\n.inputs a \\\nb\n.outputs y\n.names a b y\n11 1\n.end" in
        let net = Io.Blif.parse_string text in
        check int "two inputs" 2 (Network.num_inputs net));
  ]
  @ List.map
      (fun (name, net) ->
        Alcotest.test_case ("round-trip " ^ name) `Quick (fun () ->
            let text = Io.Blif.write_string net in
            let back = Io.Blif.parse_string text in
            Alcotest.(check bool) "same function" true (equal_networks net back)))
      (sample_nets ())

let bench_tests =
  let open Alcotest in
  [
    test_case "parse ISCAS-89 style netlist" `Quick (fun () ->
        let text =
          {|# tiny
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(s)
OUTPUT(co)
x1 = XOR(a, b)
s = XOR(x1, c)
a1 = AND(a, b)
a2 = AND(x1, c)
co = OR(a1, a2)|}
        in
        let net = Io.Bench_format.parse_string text in
        check bool "full adder" true (equal_networks net (Funcgen.full_adder ())));
    test_case "DFF is cut into pseudo PI/PO" `Quick (fun () ->
        let text = "INPUT(a)\nOUTPUT(y)\nq = DFF(d)\nd = AND(a, q)\ny = NOT(q)\n" in
        let net = Io.Bench_format.parse_string text in
        check int "inputs" 2 (Network.num_inputs net);
        check int "outputs" 2 (Network.num_outputs net));
    test_case "constants" `Quick (fun () ->
        let net = Io.Bench_format.parse_string "OUTPUT(y)\nk = vdd\ny = NOT(k)\n" in
        check string "y" "0" (Truth_table.to_bits (Network.truth_tables net).(0)));
  ]
  @ List.map
      (fun (name, net) ->
        Alcotest.test_case ("round-trip " ^ name) `Quick (fun () ->
            let text = Io.Bench_format.write_string net in
            let back = Io.Bench_format.parse_string text in
            Alcotest.(check bool) "same function" true (equal_networks net back)))
      (sample_nets ())

let pla_tests =
  let open Alcotest in
  [
    test_case "parse espresso file" `Quick (fun () ->
        let text = ".i 3\n.o 2\n.p 3\n11- 10\n--1 01\n111 11\n.e\n" in
        let net = Io.Pla.parse_string text in
        let tts = Network.truth_tables net in
        let a = Truth_table.var 3 0 and b = Truth_table.var 3 1 and c = Truth_table.var 3 2 in
        check bool "y0 = a&b" true (Truth_table.equal tts.(0) (Truth_table.band a b));
        check bool "y1 = c" true (Truth_table.equal tts.(1) c));
    test_case "ilb/ob names" `Quick (fun () ->
        let text = ".i 2\n.o 1\n.ilb p q\n.ob f\n11 1\n.e\n" in
        let net = Io.Pla.parse_string text in
        check (array string) "names" [| "p"; "q" |] (Network.input_names net));
  ]
  @ List.filter_map
      (fun (name, net) ->
        if Network.num_inputs net > 10 then None
        else
          Some
            (Alcotest.test_case ("round-trip " ^ name) `Quick (fun () ->
                 let text = Io.Pla.write_string net in
                 let back = Io.Pla.parse_string text in
                 Alcotest.(check bool) "same function" true (equal_networks net back))))
      (sample_nets ())

let aiger_tests =
  let open Alcotest in
  [
    test_case "parse aag" `Quick (fun () ->
        (* and of two inputs, output negated: aag 3 2 0 1 1 *)
        let text = "aag 3 2 0 1 1\n2\n4\n7\n6 2 4\n" in
        let net = Io.Aiger.parse_string text in
        check string "nand" "1110" (Truth_table.to_bits (Network.truth_tables net).(0)));
    test_case "latches rejected" `Quick (fun () ->
        match Io.Aiger.parse_string "aag 1 0 1 0 0\n2 3\n" with
        | exception Io.Aiger.Parse_error _ -> ()
        | _ -> fail "expected Parse_error");
    test_case "binary: latches rejected" `Quick (fun () ->
        match Io.Aiger.parse_binary_string "aig 1 0 1 0 0\n2\n" with
        | exception Io.Aiger.Parse_error _ -> ()
        | _ -> fail "expected Parse_error");
    test_case "binary: truncated deltas rejected" `Quick (fun () ->
        match Io.Aiger.parse_binary_string "aig 3 2 0 1 1\n6\n\x82" with
        | exception Io.Aiger.Parse_error (pos, _) ->
            check bool "byte offset past header" true (pos > 0)
        | _ -> fail "expected Parse_error");
  ]
  @ List.concat_map
      (fun (name, net) ->
        [
          Alcotest.test_case ("round-trip " ^ name) `Quick (fun () ->
              let aig = Aig_lib.Aig_of_network.convert net in
              let text = Io.Aiger.write_aig aig in
              let back = Io.Aiger.parse_string text in
              Alcotest.(check bool) "same function" true (equal_networks net back));
          Alcotest.test_case ("binary round-trip " ^ name) `Quick (fun () ->
              let aig = Aig_lib.Aig_of_network.convert net in
              let bin = Io.Aiger.write_aig_binary aig in
              let back = Io.Aiger.parse_binary_string bin in
              Alcotest.(check bool) "same function" true (equal_networks net back));
          Alcotest.test_case ("aag/aig twins byte-stable " ^ name) `Quick (fun () ->
              (* The ASCII file and its binary twin must describe the same
                 circuit so precisely that re-serializing either parse
                 reproduces both byte streams. *)
              let aig = Aig_lib.Aig_of_network.convert net in
              let ascii = Io.Aiger.write_aig aig in
              let bin = Io.Aiger.write_aig_binary aig in
              let via_ascii = Aig_lib.Aig_of_network.convert (Io.Aiger.parse_string ascii) in
              let via_bin = Aig_lib.Aig_of_network.convert (Io.Aiger.parse_binary_string bin) in
              Alcotest.(check string) "ascii via ascii" ascii (Io.Aiger.write_aig via_ascii);
              Alcotest.(check string) "ascii via binary" ascii (Io.Aiger.write_aig via_bin);
              Alcotest.(check string) "binary via ascii" bin (Io.Aiger.write_aig_binary via_ascii);
              Alcotest.(check string) "binary via binary" bin (Io.Aiger.write_aig_binary via_bin));
        ])
      (sample_nets ())

let gen_tests =
  let open Alcotest in
  [
    test_case "random_network is deterministic" `Quick (fun () ->
        let a = Io.Gen.random_network ~name:"z" ~inputs:10 ~gates:50 ~outputs:5 () in
        let b = Io.Gen.random_network ~name:"z" ~inputs:10 ~gates:50 ~outputs:5 () in
        check bool "equal" true (equal_networks a b));
    test_case "different names differ" `Quick (fun () ->
        let a = Io.Gen.random_network ~name:"z1" ~inputs:8 ~gates:40 ~outputs:4 () in
        let b = Io.Gen.random_network ~name:"z2" ~inputs:8 ~gates:40 ~outputs:4 () in
        check bool "not equal" false (equal_networks a b));
    test_case "layered_network shape" `Quick (fun () ->
        let net = Io.Gen.layered_network ~name:"l" ~inputs:12 ~width:20 ~depth:5 ~outputs:6 () in
        check int "inputs" 12 (Network.num_inputs net);
        check int "outputs" 6 (Network.num_outputs net);
        check bool "gates" true (Network.num_gates net >= 5 * 20));
    test_case "scale_network is deterministic and full-sized" `Quick (fun () ->
        let a = Io.Gen.scale_network ~name:"tier" ~gates:2000 () in
        let b = Io.Gen.scale_network ~name:"tier" ~gates:2000 () in
        check bool "equal" true (equal_networks a b);
        check bool "at least the requested gates" true (Network.num_gates a >= 2000);
        (* every gate is live: the MIG conversion keeps ~ the nominal size *)
        let mig = Core.Mig_of_network.convert a in
        check bool "conversion keeps the tier live" true
          (Core.Mig.size mig > 2000 * 3 / 4));
  ]

(* ------------------------------------------------------------------ *)
(* Scale: 10^5-node structures through every traversal that used to    *)
(* recurse (parsers, extract_outputs, conversion, cleanup)             *)
(* ------------------------------------------------------------------ *)

let scale_tests =
  let open Alcotest in
  let deep = 100_000 in
  [
    test_case "100k-deep bench chain parses and copies" `Slow (fun () ->
        (* A single AND chain: resolving output "g<deep>" walks the whole
           chain; so does the extract_outputs cone copy. *)
        let buf = Buffer.create (16 * deep) in
        Buffer.add_string buf "INPUT(x)\nINPUT(y)\n";
        Buffer.add_string buf (Printf.sprintf "OUTPUT(g%d)\n" deep);
        Buffer.add_string buf "g1 = AND(x, y)\n";
        for i = 2 to deep do
          Buffer.add_string buf (Printf.sprintf "g%d = AND(g%d, x)\n" i (i - 1))
        done;
        let net = Io.Bench_format.parse_string (Buffer.contents buf) in
        check int "gates" deep (Network.num_gates net);
        let cone = Network.extract_outputs net [ 0 ] in
        check int "copied cone" deep (Network.num_gates cone);
        let mig = Core.Mig_of_network.convert net in
        check int "mig size" deep (Core.Mig.size mig);
        check int "cleanup keeps it" deep (Core.Mig.size (Core.Mig.cleanup mig)));
    test_case "100k-deep blif chain parses" `Slow (fun () ->
        let buf = Buffer.create (16 * deep) in
        Buffer.add_string buf ".model chain\n.inputs x y\n";
        Buffer.add_string buf (Printf.sprintf ".outputs g%d\n" deep);
        Buffer.add_string buf ".names x y g1\n11 1\n";
        for i = 2 to deep do
          Buffer.add_string buf (Printf.sprintf ".names g%d x g%d\n11 1\n" (i - 1) i)
        done;
        Buffer.add_string buf ".end\n";
        let net = Io.Blif.parse_string (Buffer.contents buf) in
        check int "outputs" 1 (Network.num_outputs net));
    test_case "100k-gate tier generates, serializes, and strashes" `Slow (fun () ->
        let net = Io.Gen.scale_network ~name:"smoke100k" ~gates:deep () in
        check bool "nominal size" true (Network.num_gates net >= deep);
        let bin = Io.Aiger.write_network_binary net in
        let back = Io.Aiger.parse_binary_string bin in
        let mig = Core.Mig_of_network.convert back in
        check bool "live size tracks the tier" true (Core.Mig.size mig > deep);
        let strashed, _ = Core.Mig_passes.strash mig in
        check int "strash preserves reachable size" (Core.Mig.size mig)
          (Core.Mig.size strashed));
  ]

let benchmark_tests =
  let open Alcotest in
  [
    test_case "suite sizes" `Quick (fun () ->
        check int "table2" 25 (List.length Io.Benchmarks.table2);
        check int "table3" 25 (List.length Io.Benchmarks.table3_aig));
    test_case "input counts match the paper" `Quick (fun () ->
        List.iter
          (fun e ->
            let net = e.Io.Benchmarks.build () in
            check int e.Io.Benchmarks.name e.Io.Benchmarks.inputs (Network.num_inputs net))
          Io.Benchmarks.all);
    test_case "every benchmark converts to an equivalent MIG" `Quick (fun () ->
        List.iter
          (fun e ->
            let net = e.Io.Benchmarks.build () in
            let mig = Core.Mig_of_network.convert net in
            check bool
              (e.Io.Benchmarks.name ^ " equivalent")
              true
              (Core.Mig_equiv.equivalent_network ~rounds:8 mig net))
          Io.Benchmarks.all);
    test_case "exact flags" `Quick (fun () ->
        let exact = List.filter (fun e -> e.Io.Benchmarks.exact) Io.Benchmarks.all in
        check bool "at least 20 exact entries" true (List.length exact >= 20));
    test_case "rd53f1 is the parity slice" `Quick (fun () ->
        match Io.Benchmarks.find "rd53f1" with
        | None -> fail "missing"
        | Some e ->
            let net = e.Io.Benchmarks.build () in
            let tt = (Network.truth_tables net).(0) in
            let expect =
              Truth_table.of_function 5 (fun a ->
                  Array.fold_left (fun acc b -> acc <> b) false a)
            in
            check bool "parity" true (Truth_table.equal tt expect));
  ]

let error_tests =
  let open Alcotest in
  let blif_fails text =
    match Io.Blif.parse_string text with
    | exception Io.Blif.Parse_error _ -> ()
    | _ -> Alcotest.fail "expected Parse_error"
  in
  let bench_fails text =
    match Io.Bench_format.parse_string text with
    | exception Io.Bench_format.Parse_error _ -> ()
    | _ -> Alcotest.fail "expected Parse_error"
  in
  let pla_fails text =
    match Io.Pla.parse_string text with
    | exception Io.Pla.Parse_error _ -> ()
    | _ -> Alcotest.fail "expected Parse_error"
  in
  [
    test_case "blif: cube width mismatch" `Quick (fun () ->
        blif_fails ".model m\n.inputs a b\n.outputs y\n.names a b y\n111 1\n.end");
    test_case "blif: undefined signal" `Quick (fun () ->
        blif_fails ".model m\n.inputs a\n.outputs y\n.names ghost y\n1 1\n.end");
    test_case "blif: combinational cycle" `Quick (fun () ->
        blif_fails
          ".model m\n.inputs a\n.outputs y\n.names y2 y\n1 1\n.names y y2\n1 1\n.end");
    test_case "blif: mixed cover polarities" `Quick (fun () ->
        blif_fails ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n00 0\n.end");
    test_case "blif: unknown directive" `Quick (fun () ->
        blif_fails ".model m\n.wavelength 42\n.end");
    test_case "bench: unknown gate" `Quick (fun () ->
        bench_fails "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n");
    test_case "bench: cycle" `Quick (fun () ->
        bench_fails "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = NOT(y)\n");
    test_case "bench: missing assignment" `Quick (fun () ->
        bench_fails "INPUT(a)\nOUTPUT(y)\njust some words\n");
    test_case "pla: cube before header" `Quick (fun () -> pla_fails "11 1\n.i 2\n.o 1\n");
    test_case "pla: wrong input plane width" `Quick (fun () ->
        pla_fails ".i 3\n.o 1\n11 1\n.e");
    test_case "pla: wrong output plane width" `Quick (fun () ->
        pla_fails ".i 2\n.o 2\n11 1\n.e");
    test_case "aiger: truncated file" `Quick (fun () ->
        match Io.Aiger.parse_string "aag 3 2 0 1 1\n2\n4\n" with
        | exception Io.Aiger.Parse_error _ -> ()
        | _ -> Alcotest.fail "expected Parse_error");
    test_case "aiger: bad header" `Quick (fun () ->
        match Io.Aiger.parse_string "aig 1 1 0 0 0\n" with
        | exception Io.Aiger.Parse_error _ -> ()
        | _ -> Alcotest.fail "expected Parse_error");
    test_case "aiger: header counts the input cannot hold" `Quick (fun () ->
        (* each would allocate or loop by the declared count if trusted *)
        let rejects name parse text =
          match parse text with
          | exception Io.Aiger.Parse_error _ -> ()
          | exception e -> Alcotest.failf "%s: %s" name (Printexc.to_string e)
          | _ -> Alcotest.failf "%s: expected Parse_error" name
        in
        let huge = "4611686018427387903" in
        rejects "aag M" Io.Aiger.parse_string
          ("aag " ^ huge ^ " 2 0 1 0\n2\n4\n6\n6 2 4\n");
        rejects "aag I" Io.Aiger.parse_string ("aag 10 " ^ huge ^ " 0 0 0\n");
        rejects "aag O" Io.Aiger.parse_string ("aag 10 1 0 " ^ huge ^ " 0\n2\n");
        rejects "aag A" Io.Aiger.parse_string ("aag 10 1 0 0 " ^ huge ^ "\n2\n");
        rejects "aag negative count" Io.Aiger.parse_string "aag 3 -1 0 0 0\n";
        rejects "aag negative literal" Io.Aiger.parse_string "aag 3 1 0 1 0\n-2\n2\n";
        rejects "aag input beyond M" Io.Aiger.parse_string "aag 3 1 0 1 0\n40\n40\n";
        rejects "aig M" Io.Aiger.parse_binary_string ("aig " ^ huge ^ " 2 0 1 0\n6\n");
        rejects "aig O" Io.Aiger.parse_binary_string ("aig 10 1 0 " ^ huge ^ " 0\n2\n");
        rejects "aig A" Io.Aiger.parse_binary_string
          ("aig " ^ huge ^ " 1 0 0 4611686018427387900\n\001\001"));
    test_case "netlist: one located error for every reader" `Quick (fun () ->
        let error f =
          match f () with
          | exception Io.Netlist.Error msg -> msg
          | _ -> Alcotest.fail "expected Io.Netlist.Error"
        in
        check string "bench parse error"
          "circuit:2: unknown gate FOO"
          (error (fun () ->
               Io.Netlist.read_string "bench" "INPUT(a)\nb = FOO(a)\nOUTPUT(b)\n"));
        check string "aig byte offset" "circuit:14: header M smaller than I + A"
          (error (fun () -> Io.Netlist.read_string "aig" "aig 1 1 0 0 1\n"));
        check string "unknown format"
          "circuit: unknown circuit format \"edif\" (expected blif, bench, pla, aag, aig)"
          (error (fun () -> Io.Netlist.read_string "edif" ""));
        check string "unknown extension"
          "net.edif: unsupported netlist extension .edif (expected .blif, .bench, \
           .pla, .aag or .aig)"
          (error (fun () -> Io.Netlist.read_file "net.edif"));
        check string "missing file" "no/such.blif: No such file or directory"
          (error (fun () -> Io.Netlist.read_file "no/such.blif"));
        check string "format by extension" "aig" (Io.Netlist.format_of_path "a/b.aig"));
  ]

let export_tests =
  let open Alcotest in
  [
    test_case "mig dot output well-formed" `Quick (fun () ->
        let mig = Core.Mig_of_network.convert (Funcgen.full_adder ()) in
        let dot = Io.Export.mig_to_dot mig in
        check bool "digraph" true (String.length dot > 20 && String.sub dot 0 7 = "digraph");
        (* one node line per gate *)
        let count_occurrences needle hay =
          let n = String.length needle in
          let rec go i acc =
            if i + n > String.length hay then acc
            else if String.sub hay i n = needle then go (i + 1) (acc + 1)
            else go (i + 1) acc
          in
          go 0 0
        in
        check int "gates drawn" (Core.Mig.size mig)
          (count_occurrences "shape=circle" dot));
    test_case "mig verilog references all ports" `Quick (fun () ->
        let mig = Core.Mig_of_network.convert (Funcgen.rd 5 3) in
        let v = Io.Export.mig_to_verilog mig in
        let contains needle =
          let n = String.length needle in
          let rec go i =
            i + n <= String.length v && (String.sub v i n = needle || go (i + 1))
          in
          go 0
        in
        check bool "module" true (contains "module mig(");
        check bool "inputs" true (contains "input  x4");
        check bool "outputs" true (contains "assign y2");
        check bool "endmodule" true (contains "endmodule"));
    test_case "network dot output well-formed" `Quick (fun () ->
        let dot = Io.Export.network_to_dot (Funcgen.full_adder ()) in
        check bool "digraph" true (String.sub dot 0 7 = "digraph"));
    test_case "verilog semantics via blif comparison" `Quick (fun () ->
        (* the Verilog writer mirrors the MIG exactly; compare through the
           BLIF export of the same graph *)
        let mig = Core.Mig_of_network.convert (Funcgen.comparator 3) in
        let back = Io.Blif.parse_string (Io.Blif.write_string (Core.Mig_to_network.export mig)) in
        check bool "blif export preserves function" true
          (Core.Mig_equiv.equivalent_network mig back));
  ]

let () =
  Alcotest.run "io"
    [
      ("blif", blif_tests);
      ("bench-format", bench_tests);
      ("pla", pla_tests);
      ("aiger", aiger_tests);
      ("gen", gen_tests);
      ("scale", scale_tests);
      ("benchmarks", benchmark_tests);
      ("export", export_tests);
      ("errors", error_tests);
    ]
