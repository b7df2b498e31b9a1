open Logic

exception Parse_error of int * string

let fail line msg = raise (Parse_error (line, msg))

let parse_string text =
  let lines = String.split_on_char '\n' text in
  let ni = ref (-1) and no = ref (-1) in
  let ilb = ref None and ob = ref None in
  let cubes = ref [] in
  let consumed = ref 0 in
  (* Each declared input or output takes a column of every cube plane (or
     a name in .ilb/.ob), so a count beyond the bytes that follow its header
     line cannot be encoded: reject it before anything is sized by it. *)
  let count n what v =
    let rest = String.length text - !consumed in
    match int_of_string_opt v with
    | Some c when c >= 0 && c <= rest -> c
    | Some c when c >= 0 ->
        fail n (Printf.sprintf "%s declares %d but only %d bytes follow" what c rest)
    | _ -> fail n (Printf.sprintf "bad %s count %S" what v)
  in
  List.iteri
    (fun i raw ->
      let n = i + 1 in
      consumed := !consumed + String.length raw + 1;
      let line =
        match String.index_opt raw '#' with Some j -> String.sub raw 0 j | None -> raw
      in
      let line = String.trim line in
      if line <> "" then begin
        let toks = String.split_on_char ' ' line |> List.filter (fun s -> s <> "") in
        match toks with
        | ".i" :: v :: _ -> ni := count n ".i" v
        | ".o" :: v :: _ -> no := count n ".o" v
        | ".p" :: _ | ".type" :: _ | ".e" :: _ | ".end" :: _ -> ()
        | ".ilb" :: names -> ilb := Some names
        | ".ob" :: names -> ob := Some names
        | [ input_plane; output_plane ] when input_plane.[0] <> '.' ->
            if !ni < 0 || !no < 0 then fail n "cube before .i/.o";
            if String.length input_plane <> !ni then fail n "input plane width";
            if String.length output_plane <> !no then fail n "output plane width";
            cubes := (n, input_plane, output_plane) :: !cubes
        | [ single ] when !ni = 0 && single.[0] <> '.' ->
            cubes := (n, "", single) :: !cubes
        | _ -> fail n ("malformed PLA line: " ^ line)
      end)
    lines;
  let ni = if !ni < 0 then fail 0 "missing .i" else !ni in
  let no = if !no < 0 then fail 0 "missing .o" else !no in
  let net = Network.create () in
  let input_names =
    match !ilb with
    | Some names when List.length names = ni -> Array.of_list names
    | _ -> Array.init ni (Printf.sprintf "x%d")
  in
  let output_names =
    match !ob with
    | Some names when List.length names = no -> Array.of_list names
    | _ -> Array.init no (Printf.sprintf "y%d")
  in
  let input_ids = Array.map (Network.add_input net) input_names in
  let per_output = Array.make no [] in
  List.iter
    (fun (n, input_plane, output_plane) ->
      let cube = Cube.of_string input_plane in
      String.iteri
        (fun o ch ->
          match ch with
          | '1' | '4' -> per_output.(o) <- cube :: per_output.(o)
          | '0' | '-' | '~' | '2' | '3' -> ()
          | c -> fail n (Printf.sprintf "bad output literal %c" c))
        output_plane)
    (List.rev !cubes);
  Array.iteri
    (fun o cubes ->
      let sop = Sop.of_cubes ni (List.rev cubes) in
      let id = Network.gate net (Network.Table sop) input_ids in
      Network.add_output net output_names.(o) id)
    per_output;
  net

let parse_file path = parse_string (In_channel.with_open_text path In_channel.input_all)

let write_string net =
  let ni = Network.num_inputs net in
  if ni > Truth_table.max_vars then invalid_arg "Pla.write_string: too many inputs";
  let tts = Network.truth_tables net in
  let sops = Array.map Sop.of_truth_table tts in
  let no = Array.length sops in
  (* Collect the union of cubes; output plane marks which outputs each cube
     belongs to (no cube sharing beyond exact equality). *)
  let all_cubes = Hashtbl.create 97 in
  let order = ref [] in
  Array.iteri
    (fun o sop ->
      List.iter
        (fun cube ->
          let key = Cube.to_string cube in
          (match Hashtbl.find_opt all_cubes key with
          | None ->
              Hashtbl.replace all_cubes key (Array.make no false);
              order := key :: !order
          | Some _ -> ());
          (Hashtbl.find all_cubes key).(o) <- true)
        (Sop.cubes sop))
    sops;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf ".i %d\n.o %d\n" ni no);
  Buffer.add_string buf ".ilb";
  Array.iter (fun n -> Buffer.add_string buf (" " ^ n)) (Network.input_names net);
  Buffer.add_string buf "\n.ob";
  List.iter (fun (n, _) -> Buffer.add_string buf (" " ^ n)) (Network.outputs net);
  Buffer.add_string buf "\n";
  Buffer.add_string buf (Printf.sprintf ".p %d\n" (List.length !order));
  List.iter
    (fun key ->
      let marks = Hashtbl.find all_cubes key in
      Buffer.add_string buf key;
      Buffer.add_char buf ' ';
      Array.iter (fun b -> Buffer.add_char buf (if b then '1' else '0')) marks;
      Buffer.add_char buf '\n')
    (List.rev !order);
  Buffer.add_string buf ".e\n";
  Buffer.contents buf

let of_sops ?input_names ?output_names sops =
  let ni = if Array.length sops = 0 then 0 else Sop.num_vars sops.(0) in
  let net = Network.create () in
  let input_names =
    match input_names with Some a -> a | None -> Array.init ni (Printf.sprintf "x%d")
  in
  let output_names =
    match output_names with
    | Some a -> a
    | None -> Array.init (Array.length sops) (Printf.sprintf "y%d")
  in
  let input_ids = Array.map (Network.add_input net) input_names in
  Array.iteri
    (fun o sop ->
      let id = Network.gate net (Network.Table sop) input_ids in
      Network.add_output net output_names.(o) id)
    sops;
  net
