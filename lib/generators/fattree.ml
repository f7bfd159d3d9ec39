module A = Config.Ast
module P = Net.Prefix
module Ip = Net.Ipv4

type t = {
  network : A.network;
  pods : int;
  tors : string list;
  aggregations : string list;
  cores : string list;
  tor_subnet : string -> P.t;
  core_peer : string -> string;
}

let num_routers ~pods = (pods * pods) + (pods * pods / 4)
(* k pods * (k/2 tor + k/2 agg) + (k/2)^2 cores = k^2 + k^2/4 *)

(* Mutable device builders keyed by name. *)
type dev_b = {
  mutable ifaces : A.interface list;
  mutable neighbors : A.bgp_neighbor list;
  mutable networks : P.t list;
  mutable plists : A.prefix_list list;
  mutable rmaps : A.route_map list;
  asn : int;
}

let make ~pods =
  if pods < 2 || pods mod 2 <> 0 then invalid_arg "Fattree.make: pods must be even and >= 2";
  let half = pods / 2 in
  let devices : (string, dev_b) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let next_asn = ref 64512 in
  let declare name =
    if not (Hashtbl.mem devices name) then begin
      let b = { ifaces = []; neighbors = []; networks = []; plists = []; rmaps = []; asn = !next_asn } in
      incr next_asn;
      Hashtbl.replace devices name b;
      order := name :: !order
    end
  in
  let tor p i = Printf.sprintf "tor_%d_%d" p i in
  let agg p j = Printf.sprintf "agg_%d_%d" p j in
  let core c = Printf.sprintf "core_%d" c in
  for p = 0 to pods - 1 do
    for i = 0 to half - 1 do
      declare (tor p i);
      declare (agg p i)
    done
  done;
  for c = 0 to (half * half) - 1 do
    declare (core c)
  done;
  let iface_count = Hashtbl.create 64 in
  let next_iface name =
    let n = match Hashtbl.find_opt iface_count name with Some n -> n | None -> 0 in
    Hashtbl.replace iface_count name (n + 1);
    Printf.sprintf "e%d" n
  in
  let add_iface name prefix ip =
    let b = Hashtbl.find devices name in
    let ifname = next_iface name in
    b.ifaces <-
      b.ifaces
      @ [
          {
            A.if_name = ifname;
            if_prefix = Some prefix;
            if_ip = Some ip;
            if_acl_in = None;
            if_acl_out = None;
            if_cost = 1;
          };
        ];
    ifname
  in
  let link_counter = ref 0 in
  let links = ref [] in
  (* point-to-point /30s out of 172.16.0.0/12 *)
  let connect a b =
    let base = Ip.of_string "172.16.0.0" + (4 * !link_counter) in
    incr link_counter;
    let pfx = P.make base 30 in
    let ip_a = base + 1 and ip_b = base + 2 in
    let if_a = add_iface a pfx ip_a and if_b = add_iface b pfx ip_b in
    links := (a, if_a, b, if_b) :: !links;
    let ba = Hashtbl.find devices a and bb = Hashtbl.find devices b in
    ba.neighbors <-
      ba.neighbors
      @ [
          {
            A.nbr_ip = ip_b;
            nbr_remote_as = bb.asn;
            nbr_rm_in = None;
            nbr_rm_out = None;
            nbr_rr_client = false;
          };
        ];
    bb.neighbors <-
      bb.neighbors
      @ [
          {
            A.nbr_ip = ip_a;
            nbr_remote_as = ba.asn;
            nbr_rm_in = None;
            nbr_rm_out = None;
            nbr_rr_client = false;
          };
        ]
  in
  (* intra-pod full bipartite tor-agg; agg j uplinks to its core group *)
  for p = 0 to pods - 1 do
    for i = 0 to half - 1 do
      for j = 0 to half - 1 do
        connect (tor p i) (agg p j)
      done
    done;
    for j = 0 to half - 1 do
      for c = 0 to half - 1 do
        connect (agg p j) (core ((j * half) + c))
      done
    done
  done;
  (* ToR host subnets *)
  let tor_subnets = Hashtbl.create 32 in
  for p = 0 to pods - 1 do
    for i = 0 to half - 1 do
      let name = tor p i in
      let subnet = P.make (Ip.of_octets 10 p i 0) 24 in
      Hashtbl.replace tor_subnets name subnet;
      let _ = add_iface name subnet (Ip.of_octets 10 p i 1) in
      let b = Hashtbl.find devices name in
      b.networks <- b.networks @ [ subnet ]
    done
  done;
  (* core external backbone peers behind an import filter *)
  let core_peers = Hashtbl.create 16 in
  for c = 0 to (half * half) - 1 do
    let name = core c in
    let b = Hashtbl.find devices name in
    let base = Ip.of_octets 192 168 (c mod 256) 0 in
    let pfx = P.make base 30 in
    let my_ip = base + 1 and peer_ip = base + 2 in
    let _ = add_iface name pfx my_ip in
    Hashtbl.replace core_peers name ("peer:" ^ Ip.to_string peer_ip);
    b.plists <-
      [
        {
          A.pl_name = "NO_INTERNAL";
          pl_entries =
            [
              {
                A.pl_action = A.Deny;
                pl_prefix = P.of_string "10.0.0.0/8";
                pl_ge = None;
                pl_le = Some 32;
              };
              {
                A.pl_action = A.Deny;
                pl_prefix = P.of_string "172.16.0.0/12";
                pl_ge = None;
                pl_le = Some 32;
              };
              {
                A.pl_action = A.Permit;
                pl_prefix = P.of_string "0.0.0.0/0";
                pl_ge = Some 0;
                pl_le = Some 32;
              };
            ];
        };
      ];
    b.rmaps <-
      [
        {
          A.rm_name = "BACKBONE_IN";
          rm_clauses =
            [
              {
                A.rm_seq = 10;
                rm_action = A.Permit;
                rm_matches = [ A.Match_prefix_list "NO_INTERNAL" ];
                rm_sets = [];
              };
            ];
        };
      ];
    b.neighbors <-
      b.neighbors
      @ [
          {
            A.nbr_ip = peer_ip;
            nbr_remote_as = 65000;
            nbr_rm_in = Some "BACKBONE_IN";
            nbr_rm_out = None;
            nbr_rr_client = false;
          };
        ]
  done;
  (* materialize *)
  let finish name =
    let b = Hashtbl.find devices name in
    {
      (A.empty_device name) with
      A.dev_interfaces = b.ifaces;
      dev_prefix_lists = b.plists;
      dev_route_maps = b.rmaps;
      dev_bgp =
        Some
          {
            (A.empty_bgp b.asn) with
            A.bgp_networks = b.networks;
            bgp_neighbors = b.neighbors;
            bgp_multipath = true;
          };
    }
  in
  let names = List.rev !order in
  let devs = List.map finish names in
  let topo =
    Net.Topology.of_links
      (List.map
         (fun (a, ia, b, ib) ->
           { Net.Topology.a = { device = a; interface = ia }; b = { device = b; interface = ib } })
         !links)
  in
  let network = { A.net_devices = devs; net_topology = topo } in
  let is_prefix pre name = String.length name >= String.length pre && String.sub name 0 (String.length pre) = pre in
  {
    network;
    pods;
    tors = List.filter (is_prefix "tor_") names;
    aggregations = List.filter (is_prefix "agg_") names;
    cores = List.filter (is_prefix "core_") names;
    tor_subnet = (fun name -> Hashtbl.find tor_subnets name);
    core_peer = (fun name -> Hashtbl.find core_peers name);
  }
