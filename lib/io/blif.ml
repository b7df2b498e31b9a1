open Logic

exception Parse_error of int * string

let fail line msg = raise (Parse_error (line, msg))

(* Physical lines -> logical lines (comments stripped, continuations
   joined), each tagged with its starting line number.  Streaming: [iter]
   produces one physical line at a time (from a string or straight off a
   channel, so parsing a file never materializes its whole text) and [k] is
   called per completed logical line. *)
let iter_logical_lines iter k =
  let pending = ref None and pending_line = ref 1 and n = ref 0 in
  let feed line =
    incr n;
    let line =
      match String.index_opt line '#' with
      | Some i -> String.sub line 0 i
      | None -> line
    in
    let line = String.trim line in
    let joined, start =
      match !pending with
      | None -> (line, !n)
      | Some prefix -> (prefix ^ " " ^ line, !pending_line)
    in
    if String.length joined > 0 && joined.[String.length joined - 1] = '\\' then begin
      pending := Some (String.sub joined 0 (String.length joined - 1));
      pending_line := start
    end
    else if String.trim joined = "" then pending := None
    else begin
      pending := None;
      k start joined
    end
  in
  iter feed;
  match !pending with None -> () | Some s -> k !pending_line s

let iter_string_lines text feed = List.iter feed (String.split_on_char '\n' text)

let iter_channel_lines ic feed =
  try
    while true do
      feed (input_line ic)
    done
  with End_of_file -> ()

let tokens line = String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

type names_block = {
  block_line : int;
  deps : string list;
  target : string;
  mutable cover : (string * char) list; (* cube text, output value *)
}

let parse_internal ~sequential iter_lines =
  let inputs = ref [] and outputs = ref [] in
  let latches = ref [] in
  let blocks = ref [] and current = ref None in
  let finish_current () =
    match !current with
    | Some b ->
        blocks := b :: !blocks;
        current := None
    | None -> ()
  in
  iter_logical_lines iter_lines
    (fun n line ->
      match tokens line with
      | [] -> ()
      | cmd :: args when cmd.[0] = '.' -> (
          finish_current ();
          match cmd with
          | ".model" | ".end" | ".exdc" -> ()
          | ".inputs" -> inputs := !inputs @ args
          | ".outputs" -> outputs := !outputs @ args
          | ".names" -> (
              match List.rev args with
              | target :: rev_deps ->
                  current :=
                    Some { block_line = n; deps = List.rev rev_deps; target; cover = [] }
              | [] -> fail n ".names needs a target")
          | ".latch" ->
              if not sequential then
                fail n "sequential BLIF (.latch) is not supported here; use parse_sequential"
              else begin
                match args with
                | data :: out :: rest ->
                    let init =
                      match List.rev rest with
                      | last :: _ when last = "1" -> true
                      | _ -> false
                    in
                    latches := (data, out, init) :: !latches
                | _ -> fail n ".latch needs input and output"
              end
          | _ -> fail n ("unknown directive " ^ cmd))
      | toks -> (
          match !current with
          | None -> fail n "cube line outside of .names"
          | Some b -> (
              match toks with
              | [ out ] when List.length b.deps = 0 ->
                  if String.length out <> 1 then fail n "bad constant cover";
                  b.cover <- ("", out.[0]) :: b.cover
              | [ cube; out ] ->
                  if String.length cube <> List.length b.deps then
                    fail n "cube width does not match .names inputs";
                  if String.length out <> 1 then fail n "bad output column";
                  b.cover <- (cube, out.[0]) :: b.cover
              | _ -> fail n "malformed cover line")));
  finish_current ();
  let blocks = List.rev !blocks in
  (* Build the network, resolving blocks on demand (BLIF order is free). *)
  let latches = List.rev !latches in
  let net = Network.create () in
  let node_of_name = Hashtbl.create 97 in
  List.iter (fun name -> Hashtbl.replace node_of_name name (Network.add_input net name)) !inputs;
  (* latch outputs are pseudo primary inputs of the combinational core *)
  List.iter
    (fun (_, out, _) -> Hashtbl.replace node_of_name out (Network.add_input net out))
    latches;
  let block_of_target = Hashtbl.create 97 in
  List.iter (fun b -> Hashtbl.replace block_of_target b.target b) blocks;
  let in_progress = Hashtbl.create 17 in
  (* Iterative dependency walk (stack-safe on deep netlists): [`Visit]
     expands a block's unresolved deps on top of its deferred [`Emit], which
     builds the gate once every dep id is known.  Deps are pushed in reverse
     so the leftmost resolves first — the order the recursive resolver
     produced, which fixes node numbering. *)
  let resolve root =
    let stack = ref [ `Visit root ] in
    while !stack <> [] do
      let fr = List.hd !stack in
      stack := List.tl !stack;
      match fr with
      | `Visit name ->
          if not (Hashtbl.mem node_of_name name) then begin
            match Hashtbl.find_opt block_of_target name with
            | None -> fail 0 ("undefined signal " ^ name)
            | Some b ->
                if Hashtbl.mem in_progress name then
                  fail b.block_line ("combinational cycle at " ^ name);
                Hashtbl.add in_progress name ();
                stack := `Emit b :: !stack;
                List.iter
                  (fun d -> stack := `Visit d :: !stack)
                  (List.rev b.deps)
          end
      | `Emit b ->
          Hashtbl.remove in_progress b.target;
          let dep_ids = List.map (Hashtbl.find node_of_name) b.deps in
          let k = List.length b.deps in
          let out_values = List.map snd b.cover in
          let polarity =
            match List.sort_uniq compare out_values with
            | [] | [ '1' ] -> `On
            | [ '0' ] -> `Off
            | _ -> fail b.block_line "mixed output polarities in one cover"
          in
          let sop =
            Sop.of_cubes k (List.rev_map (fun (cube, _) -> Cube.of_string cube) b.cover)
          in
          let table = Network.gate net (Network.Table sop) (Array.of_list dep_ids) in
          let id =
            match polarity with `On -> table | `Off -> Network.not_ net table
          in
          Hashtbl.replace node_of_name b.target id
    done;
    Hashtbl.find node_of_name root
  in
  List.iter (fun name -> Network.add_output net name (resolve name)) !outputs;
  (* latch data pins are pseudo primary outputs *)
  List.iter
    (fun (data, out, _) -> Network.add_output net (out ^ "_next") (resolve data))
    latches;
  (net, List.length !inputs, List.length !outputs,
   Array.of_list (List.map (fun (_, _, init) -> init) latches))

let parse_string text =
  let net, _, _, _ = parse_internal ~sequential:false (iter_string_lines text) in
  net

let parse_sequential_string text =
  let net, pis, pos, init = parse_internal ~sequential:true (iter_string_lines text) in
  Seq.create net ~num_pis:pis ~num_pos:pos ~init

let with_file path f =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f ic)

let parse_file path =
  with_file path (fun ic ->
      let net, _, _, _ = parse_internal ~sequential:false (iter_channel_lines ic) in
      net)

(* ------------------------------------------------------------------ *)
(* Writer                                                               *)
(* ------------------------------------------------------------------ *)

let write_string ?(model_name = "network") net =
  let buf = Buffer.create 4096 in
  let name_of = Hashtbl.create 97 in
  let input_names = Network.input_names net in
  let gate_name id =
    match Hashtbl.find_opt name_of id with
    | Some n -> n
    | None ->
        let n = Printf.sprintf "n%d" id in
        Hashtbl.replace name_of id n;
        n
  in
  Buffer.add_string buf (Printf.sprintf ".model %s\n" model_name);
  Buffer.add_string buf ".inputs";
  Array.iter (fun n -> Buffer.add_string buf (" " ^ n)) input_names;
  Buffer.add_string buf "\n.outputs";
  List.iter (fun (n, _) -> Buffer.add_string buf (" " ^ n)) (Network.outputs net);
  Buffer.add_string buf "\n";
  let emit_names deps target lines =
    Buffer.add_string buf ".names";
    List.iter (fun d -> Buffer.add_string buf (" " ^ d)) deps;
    Buffer.add_string buf (" " ^ target ^ "\n");
    List.iter (fun l -> Buffer.add_string buf (l ^ "\n")) lines
  in
  let dashes k i ch =
    String.init k (fun j -> if j = i then ch else '-')
  in
  for id = 0 to Network.num_nodes net - 1 do
    let deps () =
      Array.to_list (Array.map gate_name (Network.fanins net id))
    in
    let k = Array.length (Network.fanins net id) in
    match Network.kind net id with
    | Network.Input i -> Hashtbl.replace name_of id input_names.(i)
    | Network.Const b -> emit_names [] (gate_name id) (if b then [ "1" ] else [])
    | Network.And -> emit_names (deps ()) (gate_name id) [ String.make k '1' ^ " 1" ]
    | Network.Nand -> emit_names (deps ()) (gate_name id) [ String.make k '1' ^ " 0" ]
    | Network.Or ->
        emit_names (deps ()) (gate_name id) (List.init k (fun i -> dashes k i '1' ^ " 1"))
    | Network.Nor ->
        emit_names (deps ()) (gate_name id) (List.init k (fun i -> dashes k i '1' ^ " 0"))
    | Network.Not -> emit_names (deps ()) (gate_name id) [ "0 1" ]
    | Network.Buf -> emit_names (deps ()) (gate_name id) [ "1 1" ]
    | Network.Maj -> emit_names (deps ()) (gate_name id) [ "11- 1"; "1-1 1"; "-11 1" ]
    | Network.Mux -> emit_names (deps ()) (gate_name id) [ "11- 1"; "0-1 1" ]
    | Network.Xor | Network.Xnor ->
        (* Wide parities are decomposed into a chain of 2-input XORs with
           intermediate names; enumerating 2^k cubes is kept for small k. *)
        let base = match Network.kind net id with Network.Xor -> false | _ -> true in
        let dep_names = deps () in
        if k <= 4 then begin
          let lines = ref [] in
          for m = 0 to (1 lsl k) - 1 do
            let ones = ref 0 in
            let cube =
              String.init k (fun i ->
                  if m land (1 lsl i) <> 0 then begin
                    incr ones;
                    '1'
                  end
                  else '0')
            in
            if (!ones land 1 = 1) <> base then lines := (cube ^ " 1") :: !lines
          done;
          emit_names dep_names (gate_name id) (List.rev !lines)
        end
        else begin
          let counter = ref 0 in
          let rec chain = function
            | [] -> assert false
            | [ x ] -> x
            | x :: y :: rest ->
                incr counter;
                let tmp = Printf.sprintf "%s_x%d" (gate_name id) !counter in
                emit_names [ x; y ] tmp [ "10 1"; "01 1" ];
                chain (tmp :: rest)
          in
          let all = chain dep_names in
          emit_names [ all ] (gate_name id) [ (if base then "0 1" else "1 1") ]
        end
    | Network.Table sop ->
        emit_names (deps ()) (gate_name id)
          (List.map (fun c -> Cube.to_string c ^ " 1") (Sop.cubes sop))
  done;
  (* Output aliases: a .names buffer when the output name differs. *)
  List.iter
    (fun (name, id) ->
      let inner = gate_name id in
      if inner <> name then emit_names [ inner ] name [ "1 1" ])
    (Network.outputs net);
  Buffer.add_string buf ".end\n";
  Buffer.contents buf
