(** The one front door for netlists: every reader and writer of the five
    interchange formats, chosen by file extension or by format name.

    The CLI and the serve daemon read and write circuits only through this
    module, so a format is added, renamed or hardened in one place.  Every
    way a read can fail — an unknown format, an unreadable file, and the
    per-reader [Parse_error]s of {!Blif}, {!Bench_format}, {!Pla} and
    {!Aiger} — surfaces as the single located {!Error}. *)

val formats : string list
(** ["blif"; "bench"; "pla"; "aag"; "aig"] — the format names, which are
    also the file extensions without the dot. *)

val output_formats : string list
(** The formats {!write_string} and {!write_file} produce: all but [pla],
    whose writer collapses every output to a two-level cover (exponential
    in the input count). *)

exception Error of string
(** ["SOURCE:POSITION: message"], or ["SOURCE: message"] when the failure
    has no position.  [SOURCE] is the file path, or ["circuit"] for inline
    text; [POSITION] is a line number ([aag] and the text formats) or a
    byte offset ([aig]). *)

val format_of_path : string -> string
(** The format name of a file path's extension.
    @raise Error on a missing or unknown extension. *)

val output_format_of_path : string -> string
(** The format of a path that {!write_file} can write — the check a
    writer runs before any work, so a bad [-o] fails fast.
    @raise Error on a missing or unknown extension, or an input-only
    format (["PATH: PLA is an input format only (expected ...)"]). *)

val read_string : string -> string -> Logic.Network.t
(** [read_string format text] parses inline circuit text, named
    ["circuit"] in errors.
    @raise Error on an unknown format or malformed text. *)

val read_file : string -> Logic.Network.t
(** Parse a file, choosing the reader by its extension.
    @raise Error on a missing or unknown extension, an unreadable file or
    malformed contents. *)

val write_string : ?model_name:string -> string -> Logic.Network.t -> string
(** [write_string format net] serializes [net]; [model_name] names the
    BLIF model (the other formats carry no name).
    @raise Error on a format outside {!output_formats}. *)

val write_file : ?model_name:string -> string -> Logic.Network.t -> unit
(** Write a file, choosing the writer by its extension.
    @raise Error on an extension outside {!output_formats} or an
    unwritable path. *)
