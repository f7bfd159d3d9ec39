(** Network topologies: named routers connected by point-to-point links
    between named interfaces.

    A topology is its link list plus a per-device index of incident
    links, built in one pass the first time a per-device query
    ({!neighbors}, {!peer}, {!degree}) needs it: those queries cost
    O(degree), not O(links).  A topology value must not be compared,
    hashed or marshalled structurally (the index is a lazy table). *)

type endpoint = { device : string; interface : string }

type link = { a : endpoint; b : endpoint }

type t

val empty : t
val add_device : t -> string -> t
(** Idempotent. *)

val add_link : t -> link -> t
(** Adds both devices if missing; idempotent (a link already present in
    either orientation is not duplicated).
    @raise Invalid_argument for self-links. *)

val of_links : link list -> t
(** [of_links ls] is [List.fold_left add_link empty ls], in linear
    time: duplicates (in either orientation) are dropped by a hash on
    the endpoint pair, keeping the first occurrence.
    @raise Invalid_argument if [ls] contains a self-link. *)

val devices : t -> string list
(** Sorted device names. *)

val links : t -> link list
(** In insertion order, oldest first. *)

val has_device : t -> string -> bool

val neighbors : t -> string -> (string * string * string) list
(** [neighbors t d] is [(local_interface, peer_device, peer_interface)]
    for every link incident to [d], in {!links} order. *)

val peer : t -> string -> string -> (string * string) option
(** [peer t d iface] is the [(device, interface)] on the other side of
    the link attached to [d.iface], if any; the most recently added
    one if several are. *)

val restrict : t -> keep:(string -> bool) -> t
(** The sub-topology induced by the kept devices: devices failing
    [keep] are removed along with every link touching them. *)

val degree : t -> string -> int
val num_devices : t -> int
val num_links : t -> int
