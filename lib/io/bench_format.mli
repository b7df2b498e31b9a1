(** ISCAS-89 [.bench] netlist reader and writer.

    Grammar: [INPUT(x)], [OUTPUT(x)], [y = GATE(a, b, ...)] with gates AND,
    OR, NAND, NOR, XOR, XNOR, NOT, BUF/BUFF, plus the constants
    [y = gnd]/[y = vdd].  [DFF] gates are cut into a pseudo primary input
    (the Q pin) and a pseudo primary output (the D pin) — the combinational
    profile the ISCAS-89 comparison of the paper uses [17]. *)

exception Parse_error of int * string

val parse_string : string -> Logic.Network.t
val parse_file : string -> Logic.Network.t

val parse_sequential_string : string -> Logic.Seq.t
(** Keep the registers explicit instead of only returning the cut network;
    initial state is all-zero (the ISCAS-89 convention). *)

val write_string : Logic.Network.t -> string
