(** Growable int arrays, used pervasively by the SAT core.

    The representation is visible so that the search loops can read
    [data] and [len] in place: dev builds compile every module with
    [-opaque], so no function of this module is ever inlined into
    another, and an accessor call per watcher or trail read would cost
    more than the read.  Slots at [len] and beyond hold stale ints; only
    [data.(0)] to [data.(len - 1)] are elements.  Because the elements
    are ints, [clear], [shrink] and [pop] need not overwrite the freed
    slots and run in constant time. *)

type t = { mutable data : int array; mutable len : int }

val create : ?capacity:int -> unit -> t

val debug : bool
(** Whether the [unsafe_*] accessors, and the copies of them inlined in
    the SAT core, carry bounds checks in this process (environment
    variable [MS_VEC_DEBUG], read once at startup; unset, empty or
    ["0"] means off). *)

val size : t -> int
val is_empty : t -> bool
val get : t -> int -> int
val set : t -> int -> int -> unit

val unsafe_get : t -> int -> int
(** [get] without the bounds check.  Reading past [size] is undefined
    behavior in release mode; with [MS_VEC_DEBUG] set it raises
    [Invalid_argument] like {!get} (see {!debug}). *)

val unsafe_set : t -> int -> int -> unit
(** [set] without the bounds check; same debug-mode contract as
    {!unsafe_get}. *)

val grow : t -> unit
(** Double the capacity ([Array.length data]), keeping the elements:
    the slow path of an inlined [push]. *)

val push : t -> int -> unit
val pop : t -> int
(** @raise Invalid_argument when empty. *)

val clear : t -> unit
val shrink : t -> int -> unit
(** [shrink v n] truncates [v] to its first [n] elements. *)

val blit : t -> int -> t -> int -> int -> unit
(** [blit src spos dst dpos len] copies [len] elements, growing [dst]'s
    length to [dpos + len] when the copy extends past its current size
    ([dpos] itself must not: holes are never created).
    @raise Invalid_argument when a range is out of bounds. *)

val copy_ints : int array -> int -> int array -> int -> int -> unit
(** [Array.blit] for int arrays, without the per-element write barrier
    [Array.blit] pays when the destination is on the major heap.
    @raise Invalid_argument when a range is out of bounds. *)

val iter : (int -> unit) -> t -> unit
val to_list : t -> int list
val sort_in_place : (int -> int -> int) -> t -> unit
val swap_remove : t -> int -> unit
(** [swap_remove v i] removes element [i] by swapping in the last element
    (constant time, does not preserve order). *)
