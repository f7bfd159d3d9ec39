(** Cross-device consistency checks over the whole network: BGP
    sessions must be two-sided with agreeing AS numbers, router-ids
    unique, iBGP groups fully meshed or covered by route reflectors,
    and OSPF network statements must enable at least one interface.

    Codes:
    - MS-E301: remote-as disagrees with the peer's configured ASN
    - MS-E302: neighbor address belongs to a device that runs no BGP
    - MS-E303: two interfaces on one device share a subnet
    - MS-E304: neighbor address is one of the device's own interfaces
    - MS-E305: several devices share one hostname
    - MS-W301: one-sided session (peer has no matching neighbor statement)
    - MS-W302: duplicate BGP router-id
    - MS-W303: iBGP group neither fully meshed nor covered by a route reflector
    - MS-W304: OSPF network statement matches no interface
    - MS-W305: neighbor address not on any connected subnet *)

module A = Config.Ast
module D = Diagnostic
module P = Net.Prefix
module Ip = Net.Ipv4

(* Address lookups shared by the checks, built once per network over
   one address table ({!A.address_owners}): [owner] is
   [A.device_of_ip net]; [owns_ip dev ip] tests [dev]'s own interface
   addresses; [has_session_to dev peer] holds when [dev] has a neighbor
   statement at one of [peer]'s addresses.  Devices are compared by
   name, sessions keyed by the pair of name positions. *)
type index = {
  owner : Ip.t -> A.device option;
  owns_ip : A.device -> Ip.t -> bool;
  has_session_to : A.device -> A.device -> bool;
}

let index (net : A.network) =
  let owners = A.address_owners net in
  let position = Hashtbl.create 64 in
  List.iteri
    (fun i (d : A.device) ->
      if not (Hashtbl.mem position d.A.dev_name) then Hashtbl.add position d.A.dev_name i)
    net.A.net_devices;
  let n = Hashtbl.length position in
  let pos (d : A.device) = Hashtbl.find position d.A.dev_name in
  let sessions = A.Int_tbl.create (A.interface_count net) in
  List.iter
    (fun (d : A.device) ->
      Option.iter
        (fun (bgp : A.bgp_config) ->
          let row = pos d * n in
          List.iter
            (fun (nb : A.bgp_neighbor) ->
              List.iter
                (fun peer -> A.Int_tbl.add sessions (row + pos peer) ())
                (A.Int_tbl.find_all owners nb.A.nbr_ip))
            bgp.A.bgp_neighbors)
        d.A.dev_bgp)
    net.A.net_devices;
  {
    owner = A.Int_tbl.find_opt owners;
    owns_ip =
      (fun dev ip ->
        List.exists (fun (d : A.device) -> d.A.dev_name = dev.A.dev_name) (A.Int_tbl.find_all owners ip));
    has_session_to = (fun dev peer -> A.Int_tbl.mem sessions ((pos dev * n) + pos peer));
  }

let check_neighbors idx (dev : A.device) =
  match dev.A.dev_bgp with
  | None -> []
  | Some bgp ->
    let d = dev.A.dev_name in
    let subnets = A.connected_prefixes dev in
    List.concat_map
      (fun (n : A.bgp_neighbor) ->
        let ip () = Ip.to_string n.A.nbr_ip in
        let diag code severity = D.make ~code ~severity ~device:d ~obj:("neighbor " ^ ip ()) in
        if idx.owns_ip dev n.A.nbr_ip then
          [
            diag "MS-E304" D.Error "neighbor address %s is one of this device's own interfaces"
              (ip ());
          ]
        else
          let subnet_diag =
            if List.exists (fun p -> P.contains p n.A.nbr_ip) subnets then []
            else
              [
                diag "MS-W305" D.Warning
                  "neighbor address %s is not on any connected subnet of this device" (ip ());
              ]
          in
          match idx.owner n.A.nbr_ip with
          | None -> subnet_diag (* an external peer: symbolic environment *)
          | Some peer ->
            (match peer.A.dev_bgp with
             | None ->
               subnet_diag
               @ [
                   diag "MS-E302" D.Error "neighbor %s belongs to %s, which runs no BGP" (ip ())
                     peer.A.dev_name;
                 ]
             | Some peer_bgp ->
               let as_diag =
                 if n.A.nbr_remote_as <> peer_bgp.A.bgp_asn then
                   [
                     diag "MS-E301" D.Error "remote-as %d, but %s is configured as AS %d"
                       n.A.nbr_remote_as peer.A.dev_name peer_bgp.A.bgp_asn;
                   ]
                 else []
               in
               let reciprocal_diag =
                 if idx.has_session_to peer dev then []
                 else
                   [
                     diag "MS-W301" D.Warning
                       "one-sided session: %s has no neighbor statement back to this device"
                       peer.A.dev_name;
                   ]
               in
               subnet_diag @ as_diag @ reciprocal_diag))
      bgp.A.bgp_neighbors

let check_router_ids (net : A.network) =
  let ids =
    List.filter_map
      (fun (d : A.device) ->
        match d.A.dev_bgp with
        | Some { A.bgp_router_id = Some rid; _ } -> Some (rid, d.A.dev_name)
        | Some _ | None -> None)
      net.A.net_devices
  in
  let groups =
    List.sort_uniq Ip.compare (List.map fst ids)
    |> List.map (fun rid -> (rid, List.filter_map (fun (r, d) -> if Ip.equal r rid then Some d else None) ids))
  in
  List.filter_map
    (fun (rid, devs) ->
      if List.length devs < 2 then None
      else
        Some
          (D.make ~code:"MS-W302" ~severity:D.Warning
             ~obj:(Printf.sprintf "router-id %s" (Ip.to_string rid))
             "router-id %s is configured on several devices: %s" (Ip.to_string rid)
             (String.concat ", " devs)))
    groups

(* iBGP groups: devices sharing an ASN must be fully meshed, or every
   non-reflector must be a client of a route reflector (and reflectors
   meshed among themselves). *)
let check_ibgp_mesh idx (net : A.network) =
  let bgp_devs =
    List.filter_map
      (fun (d : A.device) -> Option.map (fun b -> (d, b)) d.A.dev_bgp)
      net.A.net_devices
  in
  let asns = List.sort_uniq compare (List.map (fun (_, b) -> b.A.bgp_asn) bgp_devs) in
  List.filter_map
    (fun asn ->
      let group = List.filter (fun (_, b) -> b.A.bgp_asn = asn) bgp_devs in
      if List.length group < 2 then None
      else begin
        let connected (a, _) (b, _) = idx.has_session_to a b && idx.has_session_to b a in
        (* diagonal skip by device name — identity (==) on config
           records would silently stop matching if a device were ever
           re-parsed or copied between the two lists *)
        let same (a, _) (b, _) = a.A.dev_name = b.A.dev_name in
        let is_rr (d, b) =
          List.exists
            (fun (n : A.bgp_neighbor) ->
              n.A.nbr_rr_client
              && List.exists (fun (d2, _) -> d2.A.dev_name <> d.A.dev_name && idx.owns_ip d2 n.A.nbr_ip) group)
            b.A.bgp_neighbors
        in
        let rrs = List.filter is_rr group in
        let ok =
          if rrs = [] then
            (* full mesh required *)
            List.for_all
              (fun a ->
                List.for_all
                  (fun b -> same a b || connected a b)
                  group)
              group
          else
            (* every non-reflector peers with some reflector; reflectors meshed *)
            List.for_all
              (fun m ->
                is_rr m
                || List.exists (fun r -> connected m r) rrs)
              group
            && List.for_all
                 (fun a -> List.for_all (fun b -> same a b || connected a b) rrs)
                 rrs
        in
        if ok then None
        else
          Some
            (D.make ~code:"MS-W303" ~severity:D.Warning
               ~obj:(Printf.sprintf "AS %d" asn)
               "iBGP group {%s} is neither fully meshed nor covered by a route reflector"
               (String.concat ", " (List.map (fun ((d : A.device), _) -> d.A.dev_name) group)))
      end)
    asns

let check_ospf (dev : A.device) =
  match dev.A.dev_ospf with
  | None -> []
  | Some o ->
    List.filter_map
      (fun p ->
        let enables =
          List.exists
            (fun (i : A.interface) ->
              match i.A.if_ip with Some ip -> P.contains p ip | None -> false)
            dev.A.dev_interfaces
        in
        if enables then None
        else
          Some
            (D.make ~code:"MS-W304" ~severity:D.Warning ~device:dev.A.dev_name
               ~obj:(Printf.sprintf "ospf network %s" (P.to_string p))
               "OSPF network statement %s matches no interface address" (P.to_string p)))
      o.A.ospf_networks

(* Two interfaces of one device sharing a subnet would make the inferred
   topology link a device to itself; the parser rejects it, this covers
   networks built directly from the AST. *)
let check_self_subnets (dev : A.device) =
  let rec go acc = function
    | [] -> List.rev acc
    | (i1 : A.interface) :: rest ->
      let acc =
        match i1.A.if_prefix with
        | None -> acc
        | Some p1 ->
          (match
             List.find_opt
               (fun (i2 : A.interface) ->
                 match i2.A.if_prefix with Some p2 -> P.equal p1 p2 | None -> false)
               rest
           with
           | Some i2 ->
             D.make ~code:"MS-E303" ~severity:D.Error ~device:dev.A.dev_name
               ~obj:(Printf.sprintf "interfaces %s, %s" i1.A.if_name i2.A.if_name)
               "interfaces %s and %s share subnet %s" i1.A.if_name i2.A.if_name (P.to_string p1)
             :: acc
           | None -> acc)
      in
      go acc rest
  in
  go [] dev.A.dev_interfaces

(* A hostname names one device: sessions, links and encodings all key
   devices by name. *)
let check_hostnames (net : A.network) =
  let count = Hashtbl.create 64 in
  List.iter
    (fun (d : A.device) ->
      let n = Option.value (Hashtbl.find_opt count d.A.dev_name) ~default:0 in
      Hashtbl.replace count d.A.dev_name (n + 1))
    net.A.net_devices;
  Hashtbl.fold
    (fun name n acc ->
      if n < 2 then acc
      else
        D.make ~code:"MS-E305" ~severity:D.Error ~device:name
          ~obj:(Printf.sprintf "hostname %s" name)
          "hostname %s names %d devices" name n
        :: acc)
    count []

let check (net : A.network) =
  let idx = index net in
  check_hostnames net
  @ List.concat_map (check_neighbors idx) net.A.net_devices
  @ check_router_ids net @ check_ibgp_mesh idx net
  @ List.concat_map check_ospf net.A.net_devices
  @ List.concat_map check_self_subnets net.A.net_devices
