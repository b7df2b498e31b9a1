open Logic

exception Parse_error of int * string

let fail line msg = raise (Parse_error (line, msg))

type def =
  | Gate of string * string list (* kind, operands *)
  | Dff of string (* data operand *)

(* Streaming: [iter_lines] hands over one physical line at a time, so a
   file parse reads straight off the channel instead of materializing the
   whole text. *)
let parse_internal iter_lines =
  let inputs = ref [] and outputs = ref [] and defs = ref [] in
  let lineno = ref 0 in
  iter_lines
    (fun raw ->
      incr lineno;
      let n = !lineno in
      let line =
        match String.index_opt raw '#' with
        | Some j -> String.sub raw 0 j
        | None -> raw
      in
      let line = String.trim line in
      if line <> "" then begin
        let upper = String.uppercase_ascii line in
        let paren_arg () =
          match (String.index_opt line '(', String.rindex_opt line ')') with
          | Some l, Some r when r > l -> String.trim (String.sub line (l + 1) (r - l - 1))
          | _ -> fail n "expected (...)"
        in
        if String.length upper >= 6 && String.sub upper 0 6 = "INPUT(" then
          inputs := paren_arg () :: !inputs
        else if String.length upper >= 7 && String.sub upper 0 7 = "OUTPUT(" then
          outputs := paren_arg () :: !outputs
        else
          match String.index_opt line '=' with
          | None -> fail n "expected assignment"
          | Some eq ->
              let target = String.trim (String.sub line 0 eq) in
              let rhs = String.trim (String.sub line (eq + 1) (String.length line - eq - 1)) in
              let kind, args =
                match String.index_opt rhs '(' with
                | None -> (String.uppercase_ascii rhs, [])
                | Some l ->
                    let r =
                      match String.rindex_opt rhs ')' with
                      | Some r when r > l -> r
                      | _ -> fail n "unbalanced parentheses"
                    in
                    let kind = String.uppercase_ascii (String.trim (String.sub rhs 0 l)) in
                    let inner = String.sub rhs (l + 1) (r - l - 1) in
                    let args =
                      String.split_on_char ',' inner
                      |> List.map String.trim
                      |> List.filter (fun s -> s <> "")
                    in
                    (kind, args)
              in
              if kind = "DFF" then begin
                match args with
                | [ d ] -> defs := (n, target, Dff d) :: !defs
                | _ -> fail n "DFF takes one operand"
              end
              else defs := (n, target, Gate (kind, args)) :: !defs
      end);
  let inputs = List.rev !inputs and outputs = List.rev !outputs and defs = List.rev !defs in
  let net = Network.create () in
  let node_of_name = Hashtbl.create 97 in
  List.iter (fun nm -> Hashtbl.replace node_of_name nm (Network.add_input net nm)) inputs;
  (* DFF outputs become pseudo primary inputs. *)
  List.iter
    (fun (_, target, def) ->
      match def with
      | Dff _ -> Hashtbl.replace node_of_name target (Network.add_input net (target ^ "_q"))
      | Gate _ -> ())
    defs;
  let def_of = Hashtbl.create 97 in
  List.iter
    (fun (n, target, def) ->
      match def with
      | Gate (kind, args) -> Hashtbl.replace def_of target (n, kind, args)
      | Dff _ -> ())
    defs;
  let in_progress = Hashtbl.create 17 in
  (* Iterative dependency walk — same discipline as {!Blif}: [`Visit]
     expands unresolved operands over a deferred [`Emit]; operands are
     pushed in reverse so the leftmost resolves first, preserving the
     recursive resolver's node numbering; stack-safe on deep netlists. *)
  let resolve root =
    let stack = ref [ `Visit root ] in
    while !stack <> [] do
      let fr = List.hd !stack in
      stack := List.tl !stack;
      match fr with
      | `Visit name ->
          if not (Hashtbl.mem node_of_name name) then begin
            match Hashtbl.find_opt def_of name with
            | None -> fail 0 ("undefined signal " ^ name)
            | Some (n, kind, args) ->
                if Hashtbl.mem in_progress name then
                  fail n ("combinational cycle at " ^ name);
                Hashtbl.add in_progress name ();
                stack := `Emit (name, n, kind, args) :: !stack;
                List.iter (fun a -> stack := `Visit a :: !stack) (List.rev args)
          end
      | `Emit (name, n, kind, args) ->
          Hashtbl.remove in_progress name;
          let ids = Array.of_list (List.map (Hashtbl.find node_of_name) args) in
          let id =
            match kind with
            | "AND" -> Network.gate net Network.And ids
            | "OR" -> Network.gate net Network.Or ids
            | "NAND" -> Network.gate net Network.Nand ids
            | "NOR" -> Network.gate net Network.Nor ids
            | "XOR" -> Network.gate net Network.Xor ids
            | "XNOR" -> Network.gate net Network.Xnor ids
            | "NOT" -> Network.gate net Network.Not ids
            | "BUF" | "BUFF" -> Network.gate net Network.Buf ids
            | "GND" -> Network.const net false
            | "VDD" -> Network.const net true
            | "MUX" -> Network.gate net Network.Mux ids
            | "MAJ" -> Network.gate net Network.Maj ids
            | _ -> fail n ("unknown gate " ^ kind)
          in
          Hashtbl.replace node_of_name name id
    done;
    Hashtbl.find node_of_name root
  in
  List.iter (fun name -> Network.add_output net name (resolve name)) outputs;
  (* DFF inputs become pseudo primary outputs. *)
  let dffs = ref 0 in
  List.iter
    (fun (_, target, def) ->
      match def with
      | Dff d ->
          incr dffs;
          Network.add_output net (target ^ "_d") (resolve d)
      | Gate _ -> ())
    defs;
  (net, List.length inputs, List.length outputs, !dffs)

let iter_string_lines text feed = List.iter feed (String.split_on_char '\n' text)

let iter_channel_lines ic feed =
  try
    while true do
      feed (input_line ic)
    done
  with End_of_file -> ()

let parse_string text =
  let net, _, _, _ = parse_internal (iter_string_lines text) in
  net

let parse_sequential_string text =
  let net, pis, pos, dffs = parse_internal (iter_string_lines text) in
  Seq.create net ~num_pis:pis ~num_pos:pos ~init:(Array.make dffs false)

let with_file path f =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f ic)

let parse_file path =
  with_file path (fun ic ->
      let net, _, _, _ = parse_internal (iter_channel_lines ic) in
      net)

let write_string net =
  let buf = Buffer.create 4096 in
  let input_names = Network.input_names net in
  let name_of = Hashtbl.create 97 in
  let gate_name id =
    match Hashtbl.find_opt name_of id with
    | Some n -> n
    | None ->
        let n = Printf.sprintf "n%d" id in
        Hashtbl.replace name_of id n;
        n
  in
  Array.iter (fun n -> Buffer.add_string buf (Printf.sprintf "INPUT(%s)\n" n)) input_names;
  List.iter
    (fun (n, _) -> Buffer.add_string buf (Printf.sprintf "OUTPUT(%s)\n" n))
    (Network.outputs net);
  let emit target kind operands =
    Buffer.add_string buf
      (Printf.sprintf "%s = %s(%s)\n" target kind (String.concat ", " operands))
  in
  for id = 0 to Network.num_nodes net - 1 do
    let deps () = Array.to_list (Array.map gate_name (Network.fanins net id)) in
    match Network.kind net id with
    | Network.Input i -> Hashtbl.replace name_of id input_names.(i)
    | Network.Const b ->
        Buffer.add_string buf (Printf.sprintf "%s = %s\n" (gate_name id) (if b then "vdd" else "gnd"))
    | Network.And -> emit (gate_name id) "AND" (deps ())
    | Network.Or -> emit (gate_name id) "OR" (deps ())
    | Network.Nand -> emit (gate_name id) "NAND" (deps ())
    | Network.Nor -> emit (gate_name id) "NOR" (deps ())
    | Network.Xor -> emit (gate_name id) "XOR" (deps ())
    | Network.Xnor -> emit (gate_name id) "XNOR" (deps ())
    | Network.Not -> emit (gate_name id) "NOT" (deps ())
    | Network.Buf -> emit (gate_name id) "BUFF" (deps ())
    | Network.Maj -> emit (gate_name id) "MAJ" (deps ())
    | Network.Mux -> emit (gate_name id) "MUX" (deps ())
    | Network.Table sop ->
        (* .bench has no table construct: expand the cover as OR of ANDs. *)
        let deps = deps () in
        let counter = ref 0 in
        let cube_names =
          List.map
            (fun cube ->
              let lits =
                List.map
                  (fun (v, positive) ->
                    if positive then List.nth deps v
                    else begin
                      incr counter;
                      let inv = Printf.sprintf "%s_i%d" (gate_name id) !counter in
                      emit inv "NOT" [ List.nth deps v ];
                      inv
                    end)
                  (Cube.literals cube)
              in
              match lits with
              | [] ->
                  incr counter;
                  let c = Printf.sprintf "%s_c%d" (gate_name id) !counter in
                  Buffer.add_string buf (Printf.sprintf "%s = vdd\n" c);
                  c
              | [ single ] -> single
              | _ ->
                  incr counter;
                  let c = Printf.sprintf "%s_c%d" (gate_name id) !counter in
                  emit c "AND" lits;
                  c)
            (Sop.cubes sop)
        in
        (match cube_names with
        | [] -> Buffer.add_string buf (Printf.sprintf "%s = gnd\n" (gate_name id))
        | [ single ] -> emit (gate_name id) "BUFF" [ single ]
        | _ -> emit (gate_name id) "OR" cube_names)
  done;
  List.iter
    (fun (name, id) ->
      let inner = gate_name id in
      if inner <> name then emit name "BUFF" [ inner ])
    (Network.outputs net);
  Buffer.contents buf
