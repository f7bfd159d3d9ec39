(** Parser for the Cisco-flavoured configuration language.

    The language is line-oriented.  Top-level stanzas are introduced by
    [hostname], [interface], [router bgp], [router ospf], [route-map],
    and single-line commands ([ip prefix-list], [access-list],
    [ip route]).  Lines consisting of ['!'] or blanks are separators.

    A multi-device file contains several [hostname] stanzas; links
    between devices are inferred from interfaces sharing a subnet, or
    declared explicitly with [link <dev1> <if1> <dev2> <if2>] lines.  A
    [topology explicit] line (what {!Printer} writes) turns inference
    off: the links are then exactly the [link] lines. *)

type error = {
  line : int;  (** 1-based; 0 when the error is not tied to a line *)
  col : int;  (** 1-based column of the offending token; 0 when unknown *)
  token : string option;  (** the offending token, when identified *)
  message : string;
}

exception Parse_error of error

val error_to_string : ?file:string -> error -> string
(** ["net.cfg:12:4: unknown or misplaced command (near \"bananas\")"];
    without [?file], ["line 12:4: ..."]. *)

val parse_device : string -> Ast.device
(** Parse a single device configuration.
    @raise Parse_error on malformed input. *)

val parse_network : string -> Ast.network
(** Parse a multi-device configuration file; topology from explicit
    [link] lines plus subnet inference, or from the [link] lines alone
    under [topology explicit].  The links inference finds come first, in
    the order and orientation of {!infer_topology}; the other [link]
    lines follow, last line first. *)

val infer_topology : Ast.device list -> Net.Topology.t
(** Link two devices whenever they own distinct addresses inside the
    same connected subnet.
    @raise Parse_error if two interfaces of one device share a subnet
    (that would be a self-link). *)
