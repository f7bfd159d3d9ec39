let add = Buffer.add_string

let addf b fmt = Printf.ksprintf (fun s -> Buffer.add_string b s) fmt

let action_str = function Ast.Permit -> "permit" | Ast.Deny -> "deny"

let print_interface b (i : Ast.interface) =
  addf b "interface %s\n" i.if_name;
  (match (i.if_ip, i.if_prefix) with
   | Some ip, Some p -> addf b " ip address %s/%d\n" (Net.Ipv4.to_string ip) (Net.Prefix.length p)
   | _ -> ());
  (match i.if_acl_in with Some a -> addf b " ip access-group %s in\n" a | None -> ());
  (match i.if_acl_out with Some a -> addf b " ip access-group %s out\n" a | None -> ());
  if i.if_cost <> 1 then addf b " ip ospf cost %d\n" i.if_cost;
  add b "!\n"

let print_prefix_list b (pl : Ast.prefix_list) =
  List.iter
    (fun (e : Ast.prefix_list_entry) ->
      addf b "ip prefix-list %s %s %s" pl.pl_name (action_str e.pl_action)
        (Net.Prefix.to_string e.pl_prefix);
      (match e.pl_ge with Some n -> addf b " ge %d" n | None -> ());
      (match e.pl_le with Some n -> addf b " le %d" n | None -> ());
      add b "\n")
    pl.pl_entries

let print_acl b (a : Ast.acl) =
  List.iter
    (fun (e : Ast.acl_entry) ->
      if Net.Prefix.length e.acl_dst = 0 then
        addf b "access-list %s %s ip any any\n" a.acl_name (action_str e.acl_action)
      else
        addf b "access-list %s %s ip any %s\n" a.acl_name (action_str e.acl_action)
          (Net.Prefix.to_string e.acl_dst))
    a.acl_entries

let print_route_map b (rm : Ast.route_map) =
  List.iter
    (fun (cl : Ast.rm_clause) ->
      addf b "route-map %s %s %d\n" rm.rm_name (action_str cl.rm_action) cl.rm_seq;
      List.iter
        (function
          | Ast.Match_prefix_list n -> addf b " match ip address prefix-list %s\n" n
          | Ast.Match_community c -> addf b " match community %s\n" (Net.Community.to_string c))
        cl.rm_matches;
      List.iter
        (function
          | Ast.Set_local_pref n -> addf b " set local-preference %d\n" n
          | Ast.Set_metric n -> addf b " set metric %d\n" n
          | Ast.Set_med n -> addf b " set med %d\n" n
          | Ast.Set_community c -> addf b " set community %s\n" (Net.Community.to_string c)
          | Ast.Delete_community c -> addf b " delete community %s\n" (Net.Community.to_string c))
        cl.rm_sets;
      add b "!\n")
    rm.rm_clauses

let print_bgp b (c : Ast.bgp_config) =
  addf b "router bgp %d\n" c.bgp_asn;
  (match c.bgp_router_id with
   | Some ip -> addf b " bgp router-id %s\n" (Net.Ipv4.to_string ip)
   | None -> ());
  if c.bgp_multipath then add b " maximum-paths 4\n";
  List.iter (fun p -> addf b " network %s\n" (Net.Prefix.to_string p)) c.bgp_networks;
  List.iter
    (fun (p, summary) ->
      addf b " aggregate-address %s%s\n" (Net.Prefix.to_string p)
        (if summary then " summary-only" else ""))
    c.bgp_aggregates;
  List.iter
    (fun (r : Ast.redistribute) ->
      addf b " redistribute %s%s\n"
        (Ast.protocol_to_string r.rd_from)
        (match r.rd_metric with Some m -> Printf.sprintf " metric %d" m | None -> ""))
    c.bgp_redistribute;
  List.iter
    (fun (n : Ast.bgp_neighbor) ->
      let ip = Net.Ipv4.to_string n.nbr_ip in
      addf b " neighbor %s remote-as %d\n" ip n.nbr_remote_as;
      (match n.nbr_rm_in with Some rm -> addf b " neighbor %s route-map %s in\n" ip rm | None -> ());
      (match n.nbr_rm_out with
       | Some rm -> addf b " neighbor %s route-map %s out\n" ip rm
       | None -> ());
      if n.nbr_rr_client then addf b " neighbor %s route-reflector-client\n" ip)
    c.bgp_neighbors;
  add b "!\n"

let print_ospf b (c : Ast.ospf_config) =
  add b "router ospf 1\n";
  List.iter (fun p -> addf b " network %s area 0\n" (Net.Prefix.to_string p)) c.ospf_networks;
  List.iter
    (fun (r : Ast.redistribute) ->
      addf b " redistribute %s%s\n"
        (Ast.protocol_to_string r.rd_from)
        (match r.rd_metric with Some m -> Printf.sprintf " metric %d" m | None -> ""))
    c.ospf_redistribute;
  add b "!\n"

let print_static b (s : Ast.static_route) =
  addf b "ip route %s %s\n"
    (Net.Prefix.to_string s.st_prefix)
    (match (s.st_next_hop, s.st_interface) with
     | Some ip, _ -> Net.Ipv4.to_string ip
     | None, Some i -> i
     | None, None -> "Null0")

let device_to_string (d : Ast.device) =
  let b = Buffer.create 1024 in
  addf b "hostname %s\n!\n" d.dev_name;
  List.iter (print_interface b) d.dev_interfaces;
  List.iter (print_prefix_list b) d.dev_prefix_lists;
  List.iter (print_acl b) d.dev_acls;
  List.iter (print_route_map b) d.dev_route_maps;
  (match d.dev_bgp with Some c -> print_bgp b c | None -> ());
  (match d.dev_ospf with Some c -> print_ospf b c | None -> ());
  List.iter (print_static b) d.dev_statics;
  add b "!\n";
  Buffer.contents b

(* Devices and links, without the [topology explicit] header. *)
let network_body (n : Ast.network) =
  let b = Buffer.create 4096 in
  List.iter (fun d -> add b (device_to_string d)) n.net_devices;
  (* Emit explicit links so the round trip does not depend on inference;
     canonical endpoint order and sorting make the output a function of
     the link set, not of construction order. *)
  let canonical (l : Net.Topology.link) =
    if (l.a.device, l.a.interface) <= (l.b.device, l.b.interface) then l
    else { Net.Topology.a = l.b; b = l.a }
  in
  List.iter
    (fun (l : Net.Topology.link) ->
      addf b "link %s %s %s %s\n" l.a.device l.a.interface l.b.device l.b.interface)
    (List.sort compare (List.map canonical (Net.Topology.links n.net_topology)));
  Buffer.contents b

(* The header makes the parser take the links as written: a link the
   topology lacks between two interfaces of one subnet stays absent. *)
let network_to_string n = "topology explicit\n" ^ network_body n

let count_config_lines text =
  String.split_on_char '\n' text
  |> List.filter (fun l ->
         let l = String.trim l in
         l <> "" && l <> "!")
  |> List.length

let config_lines d = count_config_lines (device_to_string d)
let network_config_lines n = count_config_lines (network_body n)
