(** Concrete routes as computed by the {!Simulator}. *)

type action =
  | Receive  (** destination is locally attached; deliver *)
  | Forward of string  (** forward to an internal device *)
  | Forward_external of string  (** forward to an external peer (by name) *)
  | Discard  (** null route *)

type t = {
  prefix : Net.Prefix.t;
  proto : Config.Ast.protocol;
  ad : int;  (** administrative distance *)
  lp : int;  (** BGP local preference (default 100) *)
  metric : int;  (** IGP cost or AS-path length *)
  med : int;
  rid : int;  (** tie-break identifier of the advertising router *)
  bgp_internal : bool;
  as_path : int list;  (** traversed ASNs, most recent first (BGP only) *)
  communities : Net.Community.Set.t;
  action : action;
}

val attribute : Config.Semantics.attribute -> t -> int
(** An attribute as the {!Config.Semantics} decision steps compare it. *)

val pp : Format.formatter -> t -> unit
