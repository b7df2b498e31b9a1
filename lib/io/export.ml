open Logic

let mig_to_dot mig =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "digraph mig {\n  rankdir=BT;\n";
  Buffer.add_string buf "  n0 [label=\"0\", shape=box, style=filled, fillcolor=gray90];\n";
  for i = 0 to Core.Mig.num_pis mig - 1 do
    let n = Core.Mig.node_of (Core.Mig.pi mig i) in
    Buffer.add_string buf
      (Printf.sprintf "  n%d [label=\"x%d\", shape=box, style=filled, fillcolor=lightblue];\n" n i)
  done;
  List.iter
    (fun g ->
      Buffer.add_string buf (Printf.sprintf "  n%d [label=\"M\", shape=circle];\n" g);
      Array.iter
        (fun s ->
          Buffer.add_string buf
            (Printf.sprintf "  n%d -> n%d%s;\n" (Core.Mig.node_of s) g
               (if Core.Mig.is_compl s then " [style=dashed]" else "")))
        (Core.Mig.fanins mig g))
    (Core.Mig.topo_order mig);
  Array.iteri
    (fun i s ->
      Buffer.add_string buf
        (Printf.sprintf
           "  y%d [label=\"y%d\", shape=box, style=filled, fillcolor=lightyellow];\n" i i);
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> y%d%s;\n" (Core.Mig.node_of s) i
           (if Core.Mig.is_compl s then " [style=dashed]" else "")))
    (Core.Mig.pos mig);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let mig_to_verilog ?(module_name = "mig") mig =
  let buf = Buffer.create 4096 in
  let num_pis = Core.Mig.num_pis mig and num_pos = Core.Mig.num_pos mig in
  Buffer.add_string buf (Printf.sprintf "module %s(\n" module_name);
  for i = 0 to num_pis - 1 do
    Buffer.add_string buf (Printf.sprintf "  input  x%d,\n" i)
  done;
  for i = 0 to num_pos - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  output y%d%s\n" i (if i = num_pos - 1 then "" else ","))
  done;
  Buffer.add_string buf ");\n";
  let name_of = Hashtbl.create 97 in
  Hashtbl.replace name_of 0 "1'b0";
  for i = 0 to num_pis - 1 do
    Hashtbl.replace name_of (Core.Mig.node_of (Core.Mig.pi mig i)) (Printf.sprintf "x%d" i)
  done;
  let operand s =
    let base = Hashtbl.find name_of (Core.Mig.node_of s) in
    if Core.Mig.is_compl s then
      if base = "1'b0" then "1'b1" else "~" ^ base
    else base
  in
  List.iter
    (fun g ->
      let w = Printf.sprintf "m%d" g in
      Hashtbl.replace name_of g w;
      Buffer.add_string buf (Printf.sprintf "  wire %s;\n" w))
    (Core.Mig.topo_order mig);
  List.iter
    (fun g ->
      let f = Core.Mig.fanins mig g in
      let a = operand f.(0) and b = operand f.(1) and c = operand f.(2) in
      Buffer.add_string buf
        (Printf.sprintf "  assign m%d = (%s & %s) | (%s & %s) | (%s & %s);\n" g a b a c b c))
    (Core.Mig.topo_order mig);
  Array.iteri
    (fun i s -> Buffer.add_string buf (Printf.sprintf "  assign y%d = %s;\n" i (operand s)))
    (Core.Mig.pos mig);
  Buffer.add_string buf "endmodule\n";
  Buffer.contents buf

let network_to_dot net =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "digraph network {\n  rankdir=BT;\n";
  let label id =
    match Network.kind net id with
    | Network.Const b -> if b then "1" else "0"
    | Network.Input k -> Printf.sprintf "x%d" k
    | Network.And -> "AND"
    | Network.Or -> "OR"
    | Network.Xor -> "XOR"
    | Network.Nand -> "NAND"
    | Network.Nor -> "NOR"
    | Network.Xnor -> "XNOR"
    | Network.Not -> "NOT"
    | Network.Buf -> "BUF"
    | Network.Maj -> "MAJ"
    | Network.Mux -> "MUX"
    | Network.Table _ -> "TBL"
  in
  for id = 0 to Network.num_nodes net - 1 do
    let shape =
      match Network.kind net id with
      | Network.Input _ | Network.Const _ -> "box"
      | _ -> "ellipse"
    in
    Buffer.add_string buf
      (Printf.sprintf "  n%d [label=\"%s\", shape=%s];\n" id (label id) shape);
    Array.iter
      (fun f -> Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" f id))
      (Network.fanins net id)
  done;
  List.iteri
    (fun i (name, id) ->
      Buffer.add_string buf (Printf.sprintf "  o%d [label=\"%s\", shape=box];\n" i name);
      Buffer.add_string buf (Printf.sprintf "  n%d -> o%d;\n" id i))
    (Network.outputs net);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let write_file path contents =
  Out_channel.with_open_text path (fun oc -> output_string oc contents)
