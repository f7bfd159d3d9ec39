(** Abstract syntax of device configurations.

    The surface syntax (see {!Parser} and {!Printer}) is a
    Cisco-flavoured, line-oriented language covering the features
    Minesweeper models: interfaces with addresses and ACLs, prefix
    lists, route maps (match / set), BGP (eBGP and iBGP, route
    reflectors, networks, aggregates, redistribution, multipath), OSPF,
    static routes and connected routes. *)

type action = Permit | Deny

(** One [ip prefix-list] entry: match a prefix against [pl_prefix]'s
    first [length pl_prefix] bits, with the prefix length within
    [ge..le] (defaults: exactly [length pl_prefix]). *)
type prefix_list_entry = {
  pl_action : action;
  pl_prefix : Net.Prefix.t;
  pl_ge : int option;
  pl_le : int option;
}

type prefix_list = { pl_name : string; pl_entries : prefix_list_entry list }

(** Data-plane ACL entry matching on the destination address. *)
type acl_entry = { acl_action : action; acl_dst : Net.Prefix.t }

type acl = { acl_name : string; acl_entries : acl_entry list }

type match_cond =
  | Match_prefix_list of string
  | Match_community of Net.Community.t

type set_action =
  | Set_local_pref of int
  | Set_metric of int
  | Set_med of int
  | Set_community of Net.Community.t
  | Delete_community of Net.Community.t

type rm_clause = {
  rm_seq : int;
  rm_action : action;
  rm_matches : match_cond list;
  rm_sets : set_action list;
}

type route_map = { rm_name : string; rm_clauses : rm_clause list }

type interface = {
  if_name : string;
  if_prefix : Net.Prefix.t option;  (** address and mask; the connected subnet *)
  if_ip : Net.Ipv4.t option;  (** the interface's own address *)
  if_acl_in : string option;  (** ACL applied to packets arriving here *)
  if_acl_out : string option;  (** ACL applied to packets sent out here *)
  if_cost : int;  (** OSPF link cost (default 1) *)
}

type protocol = Pconnected | Pstatic | Pospf | Pbgp

type redistribute = { rd_from : protocol; rd_metric : int option }

type bgp_neighbor = {
  nbr_ip : Net.Ipv4.t;
  nbr_remote_as : int;
  nbr_rm_in : string option;
  nbr_rm_out : string option;
  nbr_rr_client : bool;
}

type bgp_config = {
  bgp_asn : int;
  bgp_router_id : Net.Ipv4.t option;
  bgp_networks : Net.Prefix.t list;
  bgp_neighbors : bgp_neighbor list;
  bgp_redistribute : redistribute list;
  bgp_multipath : bool;
  bgp_aggregates : (Net.Prefix.t * bool) list;  (** prefix, summary-only *)
}

type ospf_config = {
  ospf_networks : Net.Prefix.t list;
      (** interfaces whose address falls inside one of these participate *)
  ospf_redistribute : redistribute list;
}

type static_route = {
  st_prefix : Net.Prefix.t;
  st_next_hop : Net.Ipv4.t option;
  st_interface : string option;  (** [Some "Null0"] encodes a discard route *)
}

type device = {
  dev_name : string;
  dev_interfaces : interface list;
  dev_prefix_lists : prefix_list list;
  dev_route_maps : route_map list;
  dev_acls : acl list;
  dev_bgp : bgp_config option;
  dev_ospf : ospf_config option;
  dev_statics : static_route list;
}

type network = { net_devices : device list; net_topology : Net.Topology.t }

(* -- accessors and small helpers --------------------------------------------- *)

let empty_device name =
  {
    dev_name = name;
    dev_interfaces = [];
    dev_prefix_lists = [];
    dev_route_maps = [];
    dev_acls = [];
    dev_bgp = None;
    dev_ospf = None;
    dev_statics = [];
  }

let empty_bgp asn =
  {
    bgp_asn = asn;
    bgp_router_id = None;
    bgp_networks = [];
    bgp_neighbors = [];
    bgp_redistribute = [];
    bgp_multipath = false;
    bgp_aggregates = [];
  }

let empty_ospf = { ospf_networks = []; ospf_redistribute = [] }

let find_device net name = List.find_opt (fun d -> d.dev_name = name) net.net_devices
let find_interface dev name = List.find_opt (fun i -> i.if_name = name) dev.dev_interfaces
let find_route_map dev name = List.find_opt (fun rm -> rm.rm_name = name) dev.dev_route_maps

let find_prefix_list dev name =
  List.find_opt (fun pl -> pl.pl_name = name) dev.dev_prefix_lists

let find_acl dev name = List.find_opt (fun a -> a.acl_name = name) dev.dev_acls

(** The device (if any) owning the interface numbered [ip]. *)
let device_of_ip net ip =
  List.find_opt
    (fun d ->
      List.exists (fun i -> match i.if_ip with Some a -> Net.Ipv4.equal a ip | None -> false)
        d.dev_interfaces)
    net.net_devices

(** [device_index net] is [find_device net] after one pass over the
    network: build it once, then look up in O(1). *)
let device_index net =
  let tbl = Hashtbl.create (2 * List.length net.net_devices) in
  List.iter
    (fun d -> if not (Hashtbl.mem tbl d.dev_name) then Hashtbl.add tbl d.dev_name d)
    net.net_devices;
  Hashtbl.find_opt tbl

(** Interfaces over all devices: a size hint for per-address tables. *)
let interface_count net =
  List.fold_left (fun n d -> n + List.length d.dev_interfaces) 0 net.net_devices

(** Hash tables keyed by an integer (an IPv4 address, a pair of device
    positions), hashed as the integer itself. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

(** [address_owners net] maps every interface address to the devices
    owning it: [Int_tbl.find_all] lists them in [net_devices] order, so
    [Int_tbl.find_opt] gives the first. *)
let address_owners net =
  let tbl = Int_tbl.create (interface_count net) in
  List.iter
    (fun d ->
      List.iter
        (fun i -> Option.iter (fun a -> Int_tbl.add tbl a d) i.if_ip)
        (List.rev d.dev_interfaces))
    (List.rev net.net_devices);
  tbl

(** [address_index net] is [device_of_ip net] after one pass over the
    network: the first device (in [net_devices] order) owning each
    interface address. *)
let address_index net = Int_tbl.find_opt (address_owners net)

(** Interfaces participating in OSPF on this device. *)
let ospf_interfaces dev =
  match dev.dev_ospf with
  | None -> []
  | Some o ->
    List.filter
      (fun i ->
        match i.if_ip with
        | None -> false
        | Some ip -> List.exists (fun net -> Net.Prefix.contains net ip) o.ospf_networks)
      dev.dev_interfaces

(** All connected subnets of a device. *)
let connected_prefixes dev =
  List.filter_map (fun i -> i.if_prefix) dev.dev_interfaces

(** Whether a prefix-list entry matches a given prefix. *)
let prefix_list_entry_matches e (p : Net.Prefix.t) =
  let plen = Net.Prefix.length p in
  let base = Net.Prefix.length e.pl_prefix in
  let ge, le =
    match (e.pl_ge, e.pl_le) with
    | None, None -> (base, base)
    | Some g, None -> (g, 32)
    | None, Some l -> (base, l)
    | Some g, Some l -> (g, l)
  in
  plen >= ge && plen <= le && Net.Prefix.contains e.pl_prefix (Net.Prefix.network p)

(** First-match semantics; an empty or exhausted list denies. *)
let prefix_list_permits pl p =
  let rec go = function
    | [] -> false
    | e :: rest -> if prefix_list_entry_matches e p then e.pl_action = Permit else go rest
  in
  go pl.pl_entries

(** First-match semantics for ACLs on a destination address; default deny. *)
let acl_permits acl ip =
  let rec go = function
    | [] -> false
    | e :: rest -> if Net.Prefix.contains e.acl_dst ip then e.acl_action = Permit else go rest
  in
  go acl.acl_entries

let protocol_to_string = function
  | Pconnected -> "connected"
  | Pstatic -> "static"
  | Pospf -> "ospf"
  | Pbgp -> "bgp"

let protocol_of_string = function
  | "connected" -> Some Pconnected
  | "static" -> Some Pstatic
  | "ospf" -> Some Pospf
  | "bgp" -> Some Pbgp
  | _ -> None

(** Default administrative distances (Cisco values). *)
let default_ad = function Pconnected -> 0 | Pstatic -> 1 | Pospf -> 110 | Pbgp -> 20
let ibgp_ad = 200
