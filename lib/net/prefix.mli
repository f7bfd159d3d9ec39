(** IPv4 prefixes in CIDR notation. *)

type t = private { network : Ipv4.t; length : int }
(** [network] is always masked to [length] bits. *)

val mask_of_length : int -> Ipv4.t
(** The netmask of a prefix length in [0, 32]: [mask_of_length 24] is
    [255.255.255.0]. *)

val make : Ipv4.t -> int -> t
(** [make addr len] masks [addr] to [len] bits.
    @raise Invalid_argument if [len] is outside [0, 32]. *)

val of_string : string -> t
(** ["10.0.0.0/24"]. @raise Invalid_argument on malformed input. *)

val of_string_opt : string -> t option
val to_string : t -> string
val pp : Format.formatter -> t -> unit
val compare : t -> t -> int
val equal : t -> t -> bool

val network : t -> Ipv4.t
val length : t -> int

val first : t -> Ipv4.t
(** First address covered (the network address). *)

val last : t -> Ipv4.t
(** Last address covered (the broadcast address). *)

val contains : t -> Ipv4.t -> bool
val subset : t -> t -> bool
(** [subset p q] is true when every address of [p] is in [q]. *)

val overlaps : t -> t -> bool

val host : Ipv4.t -> t
(** The /32 prefix of a single address. *)

val supernet : t -> int -> t
(** [supernet p len] truncates [p] to the shorter length [len].
    @raise Invalid_argument if [len > length p]. *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
