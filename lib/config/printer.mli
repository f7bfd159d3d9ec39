(** Render configurations back to the surface syntax.

    [parse (print d)] yields a device equal to [d], and a printed
    network parses back with the same devices and the same link set: it
    starts with a [topology explicit] line, so the parser infers no link
    the topology lacks.  The printed form is also used to measure "lines
    of configuration" in the benchmarks (the header line not counted). *)

val device_to_string : Ast.device -> string
val network_to_string : Ast.network -> string

val config_lines : Ast.device -> int
(** Number of non-blank, non-comment configuration lines. *)

val network_config_lines : Ast.network -> int
