(** Routing semantics shared by the SMT encoder and the concrete
    simulator.  Every IOS protocol decision the two must agree on is
    made here, once: the decision process of each route selection, the
    ECMP policy, the attributes a route starts with where it enters a
    protocol, the OSPF interface cost and the BGP export rules.  The
    encoder turns this data into terms, the simulator into integers;
    neither re-decides any of it. *)

module A = Ast

(* -- the decision process ------------------------------------------------------- *)

(** A route attribute a decision step compares. *)
type attribute =
  | Admin_distance
  | Local_pref
  | Metric  (** IGP cost, or AS-path length in BGP *)
  | Med
  | Internal  (** learned over iBGP; as a number, eBGP is 0 and iBGP 1 *)
  | Router_id

(** One step of a decision process: which value of the attribute wins. *)
type step = Higher of attribute | Lower of attribute

(** One of a device's route selections: within a protocol, or across
    them (the routing table). *)
type selection = Protocol of A.protocol | Overall

(** The ECMP policy: whether routes tied on every step of the decision
    all survive.  BGP [maximum-paths] governs BGP selection only;
    connected, static, OSPF and the routing table always keep ties. *)
let keeps_ties (dev : A.device) = function
  | Protocol A.Pbgp -> (match dev.A.dev_bgp with Some b -> b.A.bgp_multipath | None -> false)
  | Protocol (A.Pconnected | A.Pstatic | A.Pospf) | Overall -> true

(** The decision process of a selection, most significant step first.
    BGP: local preference, AS-path length, MED, eBGP over iBGP, and the
    router id unless ties are kept.  Connected, static and OSPF: the
    metric.  The routing table: administrative distance (each
    protocol's own process has already ranked its routes). *)
let decision dev sel =
  match sel with
  | Protocol A.Pbgp ->
    [ Higher Local_pref; Lower Metric; Lower Med; Lower Internal ]
    @ if keeps_ties dev sel then [] else [ Lower Router_id ]
  | Protocol (A.Pconnected | A.Pstatic | A.Pospf) -> [ Lower Metric ]
  | Overall -> [ Lower Admin_distance ]

(** Order two routes by [steps], reading attributes as integers through
    [value]: negative when the first is preferred, 0 on a tie. *)
let compare steps value a b =
  List.fold_left
    (fun c step ->
      if c <> 0 then c
      else
        match step with
        | Lower f -> Int.compare (value f a) (value f b)
        | Higher f -> Int.compare (value f b) (value f a))
    0 steps

(* -- where a route enters a protocol -------------------------------------------- *)

let default_lp = 100

(** The attributes a route starts with in a protocol.  Nothing of a
    redistributed route carries over but its prefix and forwarding. *)
type attributes = { ad : int; lp : int; metric : int; med : int }

(** A route originated into [proto] at a device: connected and static
    routes, OSPF's own subnets, BGP [network] statements and
    aggregates. *)
let originated proto = { ad = A.default_ad proto; lp = default_lp; metric = 0; med = 0 }

(** A route redistributed into [into]: [metric N] sets the OSPF external
    metric (default 20) or the BGP MED (default 0). *)
let redistributed ~into (rd : A.redistribute) =
  match into with
  | A.Pospf -> { (originated into) with metric = Option.value rd.A.rd_metric ~default:20 }
  | A.Pbgp -> { (originated into) with med = Option.value rd.A.rd_metric ~default:0 }
  | A.Pconnected | A.Pstatic -> invalid_arg "Semantics.redistributed: target must be OSPF or BGP"

(** The OSPF cost of leaving [dev] through interface [ifname]
    ([ip ospf cost], 1 when the interface is unknown). *)
let ospf_cost (dev : A.device) ifname =
  match A.find_interface dev ifname with Some i -> i.A.if_cost | None -> 1

(* -- BGP sessions ---------------------------------------------------------------- *)

let max_path_length = 255

(** Administrative distance of a BGP route learned over iBGP or not. *)
let bgp_ad ~internal = if internal then A.ibgp_ad else A.default_ad A.Pbgp

(** How a speaker's best route changes on its way out over one session,
    before the neighbor's out-map. *)
type export = {
  exports_internal : bool;  (** iBGP-learned routes may leave too *)
  path_increment : int;  (** added to the AS-path length *)
  max_path : int option;  (** longest path length that may leave *)
  reset_lp : int option;  (** local preference on the wire *)
  reset_med : int option;  (** MED on the wire *)
  internal : bool;  (** the receiver learns it over iBGP *)
}

(** Over iBGP a speaker passes on iBGP-learned routes only as a route
    reflector (one with some [route-reflector-client] neighbor), and
    changes nothing.  Over eBGP the path grows by one (up to
    [max_path_length]) and local preference and MED are reset. *)
let export ~(sender : A.bgp_config) ~ibgp =
  if ibgp then
    {
      exports_internal =
        List.exists (fun (n : A.bgp_neighbor) -> n.A.nbr_rr_client) sender.A.bgp_neighbors;
      path_increment = 0;
      max_path = None;
      reset_lp = None;
      reset_med = None;
      internal = true;
    }
  else
    {
      exports_internal = true;
      path_increment = 1;
      max_path = Some max_path_length;
      reset_lp = Some default_lp;
      reset_med = Some 0;
      internal = false;
    }
