exception Error of string

let formats = [ "blif"; "bench"; "pla"; "aag"; "aig" ]
let output_formats = [ "blif"; "bench"; "aag"; "aig" ]

let fail ~source ?position message =
  raise
    (Error
       (match position with
       | Some p -> Printf.sprintf "%s:%d: %s" source p message
       | None -> Printf.sprintf "%s: %s" source message))

let expected = "(expected .blif, .bench, .pla, .aag or .aig)"

let format_of_path path =
  match Filename.extension path with
  | "" -> fail ~source:path ("missing extension " ^ expected)
  | ext ->
      let format = String.sub ext 1 (String.length ext - 1) in
      if List.mem format formats then format
      else
        fail ~source:path
          (Printf.sprintf "unsupported netlist extension %s %s" ext expected)

let input_only ~source format =
  fail ~source
    (Printf.sprintf "%s is an input format only (expected %s)"
       (String.uppercase_ascii format) (String.concat ", " output_formats))

let output_format_of_path path =
  let format = format_of_path path in
  if List.mem format output_formats then format else input_only ~source:path format

(* Every failure of a reader is a fault of the text it was handed, so the
   boundary turns all of them — the four Parse_errors, and the Failure or
   Invalid_argument a reader may still raise on input it does not
   anticipate — into one located error. *)
let guard ~source f =
  try f () with
  | Blif.Parse_error (line, msg)
  | Bench_format.Parse_error (line, msg)
  | Pla.Parse_error (line, msg)
  | Aiger.Parse_error (line, msg) ->
      fail ~source ~position:line msg
  | Sys_error msg -> raise (Error msg) (* already names the path *)
  | Failure msg | Invalid_argument msg -> fail ~source msg

(* The one dispatch on format names.  The file readers of the
   line-oriented formats stream instead of loading the whole file. *)
type codec = {
  of_string : string -> Logic.Network.t;
  of_file : string -> Logic.Network.t;
  to_string : Logic.Network.t -> string;
}

let codec ~source ?model_name = function
  | "blif" ->
      { of_string = Blif.parse_string; of_file = Blif.parse_file;
        to_string = Blif.write_string ?model_name }
  | "bench" ->
      { of_string = Bench_format.parse_string; of_file = Bench_format.parse_file;
        to_string = Bench_format.write_string }
  | "pla" ->
      { of_string = Pla.parse_string; of_file = Pla.parse_file;
        to_string = (fun _ -> input_only ~source "pla") }
  | "aag" ->
      { of_string = Aiger.parse_string; of_file = Aiger.parse_file;
        to_string = Aiger.write_network }
  | "aig" ->
      { of_string = Aiger.parse_binary_string; of_file = Aiger.parse_binary_file;
        to_string = Aiger.write_network_binary }
  | format ->
      fail ~source
        (Printf.sprintf "unknown circuit format %S (expected %s)" format
           (String.concat ", " formats))

let read_string format text =
  let c = codec ~source:"circuit" format in
  guard ~source:"circuit" (fun () -> c.of_string text)

let read_file path =
  let c = codec ~source:path (format_of_path path) in
  guard ~source:path (fun () -> c.of_file path)

let write_string ?model_name format net =
  let c = codec ~source:format ?model_name format in
  guard ~source:format (fun () -> c.to_string net)

let write_file ?model_name path net =
  let c = codec ~source:path ?model_name (output_format_of_path path) in
  guard ~source:path (fun () -> Export.write_file path (c.to_string net))
