open Logic

exception Parse_error of int * string

let fail line msg = raise (Parse_error (line, msg))

(* ------------------------------------------------------------------ *)
(* Shared network construction                                         *)
(* ------------------------------------------------------------------ *)

(* Both readers decode to the same intermediate — input variables, output
   literals, and [(lhs, rhs0, rhs1)] AND definitions in file order — and
   feed it here, so an [aag] file and its binary twin build bit-identical
   networks (same node-creation order, same lazily shared negation nodes).
   Variables live in a table rather than an array of [M + 1] slots: a
   header's [M] costs nothing to declare, so it must not size an
   allocation. *)
let build_network ~fail ~m ~input_vars ~output_lits ~and_defs =
  let net = Network.create () in
  let node_of_var = Hashtbl.create 1024 in
  Hashtbl.replace node_of_var 0 (Network.const net false);
  Array.iteri
    (fun k v -> Hashtbl.replace node_of_var v (Network.add_input net (Printf.sprintf "i%d" k)))
    input_vars;
  let negations = Hashtbl.create 97 in
  let literal lit =
    let v = lit / 2 in
    if lit < 0 || v > m then fail "literal out of range";
    let base = Option.value (Hashtbl.find_opt node_of_var v) ~default:(-1) in
    if base < 0 then fail (Printf.sprintf "undefined variable %d" v);
    if lit land 1 = 0 then base
    else
      match Hashtbl.find_opt negations lit with
      | Some id -> id
      | None ->
          let id = Network.not_ net base in
          Hashtbl.replace negations lit id;
          id
  in
  (* AIGER files are topologically sorted (lhs > rhs), so one pass works. *)
  Array.iter
    (fun (lhs, r0, r1) ->
      let id = Network.and2 net (literal r0) (literal r1) in
      Hashtbl.replace node_of_var (lhs / 2) id)
    and_defs;
  Array.iteri
    (fun k lit -> Network.add_output net (Printf.sprintf "o%d" k) (literal lit))
    output_lits;
  net

(* The five header counts [M I L O A], each a non-negative integer. *)
let header_counts tag fields =
  match fields with
  | [ t; m; i; l; o; a ] when t = tag -> (
      match List.map int_of_string_opt [ m; i; l; o; a ] with
      | [ Some m; Some i; Some l; Some o; Some a ]
        when List.for_all (fun c -> c >= 0) [ m; i; l; o; a ] ->
          Some (m, i, l, o, a)
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* ASCII reader                                                        *)
(* ------------------------------------------------------------------ *)

let parse_string text =
  let lines = String.split_on_char '\n' text |> Array.of_list in
  let header =
    String.split_on_char ' ' (String.trim lines.(0)) |> List.filter (fun s -> s <> "")
  in
  let m, i, l, o, a =
    match header_counts "aag" header with
    | Some counts -> counts
    | None -> fail 1 "expected 'aag M I L O A' header"
  in
  if l <> 0 then fail 1 "latches are not supported (combinational subset)";
  (* every input, output and AND takes a line of its own: reject counts the
     text cannot hold before anything is sized by them *)
  let body = Array.length lines - 1 in
  if i > body || o > body - i || a > body - i - o then
    fail 1
      (Printf.sprintf "header declares %d inputs, %d outputs and %d ANDs but only %d lines follow"
         i o a body);
  let line_no = ref 1 in
  let next_line () =
    incr line_no;
    String.trim lines.(!line_no - 1)
  in
  let ints s =
    String.split_on_char ' ' s
    |> List.filter (fun x -> x <> "")
    |> List.map (fun x ->
           match int_of_string_opt x with
           | Some v -> v
           | None -> fail !line_no (Printf.sprintf "bad literal %S" x))
  in
  (* a defining literal is positive, non-constant and within M *)
  let defined what lit =
    if lit land 1 = 1 then fail !line_no ("negated " ^ what ^ " definition");
    if lit < 2 || lit / 2 > m then fail !line_no (what ^ " literal out of range");
    lit / 2
  in
  let input_vars =
    Array.init i (fun _ ->
        match ints (next_line ()) with
        | [ v ] -> defined "input" v
        | _ -> fail !line_no "bad input line")
  in
  (* outputs (literals resolved after ANDs are read) *)
  let output_lits =
    Array.init o (fun _ ->
        match ints (next_line ()) with
        | [ v ] -> v
        | _ -> fail !line_no "bad output line")
  in
  (* AND definitions *)
  let and_defs =
    Array.init a (fun _ ->
        match ints (next_line ()) with
        | [ lhs; r0; r1 ] ->
            ignore (defined "AND" lhs);
            (lhs, r0, r1)
        | _ -> fail !line_no "bad AND line")
  in
  build_network ~fail:(fail 0) ~m ~input_vars ~output_lits ~and_defs

(* ------------------------------------------------------------------ *)
(* Binary reader                                                       *)
(* ------------------------------------------------------------------ *)

(* Binary AIGER: same header with tag [aig], inputs implicit (variables
   1..I), ASCII output lines, then A AND definitions as two 7-bit
   variable-length deltas each — [lhs - rhs0] and [rhs0 - rhs1] with
   [lhs = 2*(I+L+k+1)] for the k-th AND and [lhs > rhs0 >= rhs1].  Parse
   errors report the byte offset instead of a line number. *)
let parse_binary_string text =
  let len = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let read_line () =
    if !pos >= len then fail "unexpected end of file";
    let start = !pos in
    let stop = try String.index_from text start '\n' with Not_found -> len in
    pos := min len (stop + 1);
    String.sub text start (stop - start)
  in
  let header =
    String.split_on_char ' ' (String.trim (read_line ()))
    |> List.filter (fun s -> s <> "")
  in
  let m, i, l, o, a =
    match header_counts "aig" header with
    | Some counts -> counts
    | None -> fail "expected 'aig M I L O A' header"
  in
  if l <> 0 then fail "latches are not supported (combinational subset)";
  if i > m || a > m - i then fail "header M smaller than I + A";
  (* each output line takes at least one byte and each AND two delta
     bytes; the inputs are implicit and cost none *)
  let rest = len - !pos in
  if o > rest || a > (rest - o) / 2 then
    fail
      (Printf.sprintf "header declares %d outputs and %d ANDs but only %d bytes follow"
         o a rest);
  let input_vars = Array.init i (fun k -> k + 1) in
  let output_lits =
    Array.init o (fun _ ->
        match int_of_string_opt (String.trim (read_line ())) with
        | Some v -> v
        | None -> fail "bad output line")
  in
  let read_delta () =
    let x = ref 0 and shift = ref 0 and fin = ref false in
    while not !fin do
      if !pos >= len then fail "truncated AND delta";
      if !shift > 62 then fail "AND delta overflows";
      let b = Char.code text.[!pos] in
      incr pos;
      x := !x lor ((b land 0x7f) lsl !shift);
      shift := !shift + 7;
      if b < 0x80 then fin := true
    done;
    !x
  in
  let and_defs =
    Array.init a (fun k ->
        let lhs = 2 * (i + k + 1) in
        let rhs0 = lhs - read_delta () in
        if rhs0 < 0 then fail "AND delta out of range";
        let rhs1 = rhs0 - read_delta () in
        if rhs1 < 0 then fail "AND delta out of range";
        (lhs, rhs0, rhs1))
  in
  build_network ~fail ~m ~input_vars ~output_lits ~and_defs

let read_file path = In_channel.with_open_bin path In_channel.input_all
let parse_file path = parse_string (read_file path)
let parse_binary_file path = parse_binary_string (read_file path)

(* ------------------------------------------------------------------ *)
(* Writers                                                             *)
(* ------------------------------------------------------------------ *)

(* Shared variable numbering: inputs first, then ANDs in topological
   order — the layout the binary format mandates, reused for ASCII so the
   two writers emit the same circuit description. *)
let number_vars aig =
  let open Aig_lib in
  let order = Aig.topo_order aig in
  let var_of = Hashtbl.create 997 in
  Hashtbl.replace var_of 0 0;
  let next = ref 1 in
  for k = 0 to Aig.num_pis aig - 1 do
    Hashtbl.replace var_of (Aig.node_of (Aig.pi aig k)) !next;
    incr next
  done;
  List.iter
    (fun n ->
      Hashtbl.replace var_of n !next;
      incr next)
    order;
  let lit s =
    let v = Hashtbl.find var_of (Aig.node_of s) in
    (2 * v) + if Aig.is_compl s then 1 else 0
  in
  (order, var_of, lit, !next - 1)

let write_aig aig =
  let open Aig_lib in
  let order, var_of, lit, m = number_vars aig in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "aag %d %d 0 %d %d\n" m (Aig.num_pis aig) (Aig.num_pos aig)
       (List.length order));
  for k = 0 to Aig.num_pis aig - 1 do
    Buffer.add_string buf (Printf.sprintf "%d\n" (lit (Aig.pi aig k)))
  done;
  Array.iter (fun s -> Buffer.add_string buf (Printf.sprintf "%d\n" (lit s))) (Aig.pos aig);
  (* Operands largest-literal first — the binary format's [rhs0 >= rhs1]
     normal form — so an [aag] file and its [aig] twin decode to identical
     AND definitions and round-trip byte-stably through either reader. *)
  List.iter
    (fun n ->
      let f0, f1 = Aig.fanins aig n in
      let a = lit f0 and b = lit f1 in
      Buffer.add_string buf
        (Printf.sprintf "%d %d %d\n" (2 * Hashtbl.find var_of n) (max a b) (min a b)))
    order;
  Buffer.contents buf

let encode_delta buf x =
  let x = ref x in
  while !x >= 0x80 do
    Buffer.add_char buf (Char.chr (0x80 lor (!x land 0x7f)));
    x := !x lsr 7
  done;
  Buffer.add_char buf (Char.chr !x)

let write_aig_binary aig =
  let open Aig_lib in
  let order, var_of, lit, m = number_vars aig in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "aig %d %d 0 %d %d\n" m (Aig.num_pis aig) (Aig.num_pos aig)
       (List.length order));
  Array.iter (fun s -> Buffer.add_string buf (Printf.sprintf "%d\n" (lit s))) (Aig.pos aig);
  List.iter
    (fun n ->
      let f0, f1 = Aig.fanins aig n in
      let a = lit f0 and b = lit f1 in
      let lhs = 2 * Hashtbl.find var_of n in
      let rhs0 = max a b and rhs1 = min a b in
      encode_delta buf (lhs - rhs0);
      encode_delta buf (rhs0 - rhs1))
    order;
  Buffer.contents buf

let write_network net = write_aig (Aig_lib.Aig_of_network.convert net)
let write_network_binary net = write_aig_binary (Aig_lib.Aig_of_network.convert net)
