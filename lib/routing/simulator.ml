module A = Config.Ast
module Sem = Config.Semantics
module Prefix = Net.Prefix
module Ipv4 = Net.Ipv4
module Smap = Map.Make (String)

type advertisement = {
  adv_prefix : Prefix.t;
  adv_path_len : int;
  adv_med : int;
  adv_communities : Net.Community.Set.t;
}

type env = {
  external_ads : (string * Ipv4.t * advertisement) list;
  failed_links : (string * string) list;
}

let empty_env = { external_ads = []; failed_links = [] }

type device_rib = {
  connected : Route.t list Prefix.Map.t;
  static : Route.t list Prefix.Map.t;
  ospf : Route.t list Prefix.Map.t;
  bgp : Route.t list Prefix.Map.t;
  overall : Route.t list Prefix.Map.t;
}

type state = { ribs : device_rib Smap.t; converged : bool }

let converged s = s.converged
let external_peer_name ip = "peer:" ^ Ipv4.to_string ip

let proto_map rib = function
  | A.Pconnected -> rib.connected
  | A.Pstatic -> rib.static
  | A.Pospf -> rib.ospf
  | A.Pbgp -> rib.bgp

(* -- route map evaluation -------------------------------------------------------- *)

let match_cond dev (r : Route.t) = function
  | A.Match_prefix_list name ->
    (match A.find_prefix_list dev name with
     | Some pl -> A.prefix_list_permits pl r.prefix
     | None -> false)
  | A.Match_community c -> Net.Community.Set.mem c r.communities

let apply_sets (r : Route.t) sets =
  List.fold_left
    (fun (r : Route.t) -> function
      | A.Set_local_pref n -> { r with lp = n }
      | A.Set_metric n -> { r with metric = n }
      | A.Set_med n -> { r with med = n }
      | A.Set_community c -> { r with communities = Net.Community.Set.add c r.communities }
      | A.Delete_community c -> { r with communities = Net.Community.Set.remove c r.communities })
    r sets

(* First clause whose matches all hold wins; deny clause or no matching
   clause drops the route. *)
let apply_route_map dev name_opt (r : Route.t) =
  match name_opt with
  | None -> Some r
  | Some name ->
    (match A.find_route_map dev name with
     | None -> Some r (* referencing an undefined map treated as permit-all *)
     | Some rm ->
       let rec go = function
         | [] -> None
         | (cl : A.rm_clause) :: rest ->
           if List.for_all (match_cond dev r) cl.rm_matches then begin
             match cl.rm_action with
             | A.Permit -> Some (apply_sets r cl.rm_sets)
             | A.Deny -> None
           end
           else go rest
       in
       go rm.rm_clauses)

(* -- helpers ----------------------------------------------------------------------- *)

let link_failed env d1 d2 =
  List.exists (fun (a, b) -> (a = d1 && b = d2) || (a = d2 && b = d1)) env.failed_links

let adjacent topo d1 d2 = List.exists (fun (_, peer, _) -> peer = d2) (Net.Topology.neighbors topo d1)

let device_id devices name =
  let rec go i = function
    | [] -> 0
    | (d : A.device) :: rest -> if d.A.dev_name = name then i + 1 else go (i + 1) rest
  in
  go 0 devices

(* A route entering [proto] at this device with the shared start
   attributes: [attrs] on redistribution, those of an origin otherwise.
   [rid] identifies the originating BGP speaker. *)
let originate ?attrs ?(rid = 0) ~prefix proto ~action =
  let a = match attrs with Some a -> a | None -> Sem.originated proto in
  {
    Route.prefix;
    proto;
    ad = a.Sem.ad;
    lp = a.Sem.lp;
    metric = a.Sem.metric;
    med = a.Sem.med;
    rid;
    bgp_internal = false;
    as_path = [];
    communities = Net.Community.Set.empty;
    action;
  }

(* Group by prefix, keep the most preferred route(s) under the
   selection's decision process and ECMP policy. *)
let best_of_candidates dev sel candidates =
  let compare = Sem.compare (Sem.decision dev sel) Route.attribute in
  let keep_ties = Sem.keeps_ties dev sel in
  let by_prefix =
    List.fold_left
      (fun m (r : Route.t) ->
        Prefix.Map.update r.prefix (function None -> Some [ r ] | Some l -> Some (r :: l)) m)
      Prefix.Map.empty candidates
  in
  Prefix.Map.map
    (fun routes ->
      match List.sort compare routes with
      | [] -> []
      | best :: rest ->
        if keep_ties then best :: List.filter (fun r -> compare best r = 0) rest else [ best ])
    by_prefix

(* Interfaces of [dev] running BGP sessions to internal devices resolve via
   interface addressing; everything else is an external (symbolic) peer. *)
type session = {
  local : A.device;
  neighbor : A.bgp_neighbor;
  kind : [ `Ebgp_internal of string | `Ibgp of string | `External of string ];
}

let sessions_of net (dev : A.device) =
  match dev.A.dev_bgp with
  | None -> []
  | Some bgp ->
    List.map
      (fun (n : A.bgp_neighbor) ->
        match A.device_of_ip net n.A.nbr_ip with
        | Some d2 when d2.A.dev_name <> dev.A.dev_name ->
          let same_as =
            match d2.A.dev_bgp with Some b2 -> b2.A.bgp_asn = bgp.A.bgp_asn | None -> false
          in
          if same_as then { local = dev; neighbor = n; kind = `Ibgp d2.A.dev_name }
          else { local = dev; neighbor = n; kind = `Ebgp_internal d2.A.dev_name }
        | Some _ | None -> { local = dev; neighbor = n; kind = `External (external_peer_name n.A.nbr_ip) })
      bgp.A.bgp_neighbors

(* The session on [d2] whose neighbor IP belongs to [dev] (reverse direction). *)
let reverse_session net (d2 : A.device) (dev : A.device) =
  List.find_opt
    (fun s ->
      match s.kind with
      | `Ebgp_internal name | `Ibgp name -> name = dev.A.dev_name
      | `External _ -> false)
    (sessions_of net d2)

(* Longest-prefix match in an overall rib map. *)
let lookup_map overall ip =
  let best =
    Prefix.Map.fold
      (fun p routes acc ->
        if Prefix.contains p ip && routes <> [] then begin
          match acc with
          | Some (bp, _) when Prefix.length bp >= Prefix.length p -> acc
          | _ -> Some (p, routes)
        end
        else acc)
      overall None
  in
  match best with Some (_, routes) -> routes | None -> []

(* -- per-protocol candidate computation ---------------------------------------------- *)

let connected_routes (dev : A.device) =
  List.map
    (fun prefix -> originate ~prefix A.Pconnected ~action:Route.Receive)
    (A.connected_prefixes dev)

let static_routes net (dev : A.device) =
  List.map
    (fun (s : A.static_route) ->
      let action =
        match (s.A.st_next_hop, s.A.st_interface) with
        | None, Some _ -> Route.Discard
        | Some hop, _ ->
          (match A.device_of_ip net hop with
           | Some d2 when d2.A.dev_name <> dev.A.dev_name -> Route.Forward d2.A.dev_name
           | Some _ -> Route.Receive
           | None ->
             (* next hop outside the network: external if on a connected
                subnet, otherwise an unresolvable (black-hole) route *)
             if List.exists (fun p -> Prefix.contains p hop) (A.connected_prefixes dev) then
               Route.Forward_external (external_peer_name hop)
             else Route.Discard)
        | None, None -> Route.Discard
      in
      originate ~prefix:s.A.st_prefix A.Pstatic ~action)
    dev.A.dev_statics

(* OSPF neighbors: adjacent devices where both ends run OSPF on the
   connecting interfaces. *)
let ospf_neighbors net env (dev : A.device) =
  let topo = net.A.net_topology in
  let my_ospf_ifaces = A.ospf_interfaces dev in
  List.filter_map
    (fun (local_if, peer_name, peer_if) ->
      if link_failed env dev.A.dev_name peer_name then None
      else begin
        match A.find_device net peer_name with
        | None -> None
        | Some peer ->
          let local_ok = List.exists (fun (i : A.interface) -> i.A.if_name = local_if) my_ospf_ifaces in
          let peer_ok =
            List.exists (fun (i : A.interface) -> i.A.if_name = peer_if) (A.ospf_interfaces peer)
          in
          if local_ok && peer_ok then Some (peer_name, Sem.ospf_cost dev local_if) else None
      end)
    (Net.Topology.neighbors topo dev.A.dev_name)

let ospf_candidates net env ribs (dev : A.device) =
  match dev.A.dev_ospf with
  | None -> []
  | Some ocfg ->
    (* own participating interface subnets *)
    let own =
      List.filter_map
        (fun (i : A.interface) ->
          Option.map (fun prefix -> originate ~prefix A.Pospf ~action:Route.Receive) i.A.if_prefix)
        (A.ospf_interfaces dev)
    in
    (* learned from neighbors *)
    let learned =
      List.concat_map
        (fun (peer_name, cost) ->
          match Smap.find_opt peer_name ribs with
          | None -> []
          | Some rib ->
            Prefix.Map.fold
              (fun _ routes acc ->
                List.fold_left
                  (fun acc (r : Route.t) ->
                    { r with Route.metric = r.metric + cost; action = Route.Forward peer_name }
                    :: acc)
                  acc routes)
              rib.ospf [])
        (ospf_neighbors net env dev)
    in
    (* redistribution into OSPF *)
    let redist =
      List.concat_map
        (fun (rd : A.redistribute) ->
          match Smap.find_opt dev.A.dev_name ribs with
          | None -> []
          | Some rib ->
            Prefix.Map.fold
              (fun _ routes acc ->
                List.fold_left
                  (fun acc (r : Route.t) ->
                    originate ~attrs:(Sem.redistributed ~into:A.Pospf rd) ~prefix:r.prefix A.Pospf
                      ~action:r.action
                    :: acc)
                  acc routes)
              (proto_map rib rd.A.rd_from) [])
        ocfg.A.ospf_redistribute
    in
    own @ learned @ redist

let import_external_ads env devices (dev : A.device) =
  match dev.A.dev_bgp with
  | None -> []
  | Some bgp ->
    List.concat_map
      (fun (d, nbr_ip, ad) ->
        if d <> dev.A.dev_name then []
        else begin
          match
            List.find_opt (fun (n : A.bgp_neighbor) -> Ipv4.equal n.A.nbr_ip nbr_ip) bgp.A.bgp_neighbors
          with
          | None -> []
          | Some n ->
            let peer = external_peer_name nbr_ip in
            if link_failed env dev.A.dev_name peer then []
            else begin
              let r =
                {
                  Route.prefix = ad.adv_prefix;
                  proto = A.Pbgp;
                  ad = Sem.bgp_ad ~internal:false;
                  lp = Sem.default_lp;
                  metric = ad.adv_path_len + 1;
                  med = ad.adv_med;
                  rid = 1000 + device_id devices dev.A.dev_name;
                  bgp_internal = false;
                  as_path = [ n.A.nbr_remote_as ];
                  communities = ad.adv_communities;
                  action = Route.Forward_external peer;
                }
              in
              match apply_route_map dev n.A.nbr_rm_in r with Some r -> [ r ] | None -> []
            end
        end)
      env.external_ads

let bgp_candidates net env ribs devices (dev : A.device) =
  match dev.A.dev_bgp with
  | None -> []
  | Some bgp ->
    let my_rib = Smap.find_opt dev.A.dev_name ribs in
    let my_rid = device_id devices dev.A.dev_name in
    (* network statements originate when another protocol provides them *)
    let originated =
      List.filter_map
        (fun p ->
          match my_rib with
          | None -> None
          | Some rib ->
            let candidates =
              List.concat_map
                (fun proto ->
                  match Prefix.Map.find_opt p (proto_map rib proto) with Some l -> l | None -> [])
                [ A.Pconnected; A.Pstatic; A.Pospf ]
            in
            (match candidates with
             | [] -> None
             | (under : Route.t) :: _ ->
               Some (originate ~rid:my_rid ~prefix:p A.Pbgp ~action:under.action)))
        bgp.A.bgp_networks
    in
    (* aggregates originate when a strictly more-specific BGP route exists *)
    let aggregates =
      List.filter_map
        (fun (agg, _summary_only) ->
          match my_rib with
          | None -> None
          | Some rib ->
            let has_contributor =
              Prefix.Map.exists
                (fun p routes ->
                  routes <> [] && Prefix.length p > Prefix.length agg && Prefix.subset p agg)
                rib.bgp
            in
            if has_contributor then
              Some (originate ~rid:my_rid ~prefix:agg A.Pbgp ~action:Route.Discard)
            else None)
        bgp.A.bgp_aggregates
    in
    let externals = import_external_ads env devices dev in
    (* routes from internal BGP sessions *)
    let internal =
      List.concat_map
        (fun s ->
          match s.kind with
          | `External _ -> []
          | `Ebgp_internal peer_name | `Ibgp peer_name ->
            let is_ibgp = match s.kind with `Ibgp _ -> true | _ -> false in
            if link_failed env dev.A.dev_name peer_name && not is_ibgp then []
            else begin
              match (A.find_device net peer_name, Smap.find_opt peer_name ribs) with
              | Some peer_dev, Some peer_rib ->
                let peer_bgp = Option.get peer_dev.A.dev_bgp in
                let rev = reverse_session net peer_dev dev in
                let out_map =
                  match rev with Some r -> r.neighbor.A.nbr_rm_out | None -> None
                in
                let rule = Sem.export ~sender:peer_bgp ~ibgp:is_ibgp in
                (* iBGP session viability: this device must be able to
                   reach the peer address through the current rib *)
                let session_up =
                  if not is_ibgp then adjacent net.A.net_topology dev.A.dev_name peer_name
                  else begin
                    match my_rib with
                    | None -> false
                    | Some rib ->
                      let routes = lookup_map rib.overall s.neighbor.A.nbr_ip in
                      List.exists
                        (fun (r : Route.t) ->
                          match r.Route.action with
                          | Route.Discard -> false
                          | Route.Receive | Route.Forward _ | Route.Forward_external _ -> true)
                        routes
                  end
                in
                if not session_up then []
                else begin
                  (* suppressed more-specifics under summary-only aggregates *)
                  let suppressed (r : Route.t) =
                    List.exists
                      (fun (agg, summary_only) ->
                        summary_only
                        && Prefix.length r.prefix > Prefix.length agg
                        && Prefix.subset r.prefix agg)
                      peer_bgp.A.bgp_aggregates
                  in
                  Prefix.Map.fold
                    (fun _ routes acc ->
                      List.fold_left
                        (fun acc (r : Route.t) ->
                          let metric = r.metric + rule.Sem.path_increment in
                          if
                            suppressed r
                            || (r.bgp_internal && not rule.Sem.exports_internal)
                            || Option.fold ~none:false ~some:(fun m -> metric > m) rule.Sem.max_path
                          then acc
                          else begin
                            (* export rules at the peer *)
                            let exported =
                              {
                                r with
                                Route.metric;
                                as_path =
                                  (if is_ibgp then r.as_path else peer_bgp.A.bgp_asn :: r.as_path);
                                bgp_internal = rule.Sem.internal;
                                lp = Option.value rule.Sem.reset_lp ~default:r.lp;
                                med = Option.value rule.Sem.reset_med ~default:r.med;
                              }
                            in
                            match apply_route_map peer_dev out_map exported with
                            | None -> acc
                            | Some exported ->
                              (* import side *)
                              if
                                (not is_ibgp)
                                && List.mem bgp.A.bgp_asn exported.as_path
                                && bgp.A.bgp_asn <> 0
                              then acc (* AS loop *)
                              else if is_ibgp && exported.rid = my_rid then acc
                              else begin
                                let action =
                                  if not is_ibgp then Route.Forward peer_name
                                  else begin
                                    (* recursive lookup toward the peer *)
                                    match my_rib with
                                    | None -> Route.Forward peer_name
                                    | Some rib ->
                                      (match lookup_map rib.overall s.neighbor.A.nbr_ip with
                                       | { Route.action = Route.Forward h; _ } :: _ ->
                                         Route.Forward h
                                       | _ -> Route.Forward peer_name)
                                  end
                                in
                                let imported =
                                  { exported with Route.ad = Sem.bgp_ad ~internal:is_ibgp; action }
                                in
                                match apply_route_map dev s.neighbor.A.nbr_rm_in imported with
                                | None -> acc
                                | Some r -> r :: acc
                              end
                          end)
                        acc routes)
                    peer_rib.bgp []
                end
              | _ -> []
            end)
        (sessions_of net dev)
    in
    (* redistribution into BGP *)
    let redist =
      List.concat_map
        (fun (rd : A.redistribute) ->
          match my_rib with
          | None -> []
          | Some rib ->
            Prefix.Map.fold
              (fun _ routes acc ->
                List.fold_left
                  (fun acc (r : Route.t) ->
                    originate ~attrs:(Sem.redistributed ~into:A.Pbgp rd) ~rid:my_rid ~prefix:r.prefix
                      A.Pbgp ~action:r.action
                    :: acc)
                  acc routes)
              (proto_map rib rd.A.rd_from) [])
        bgp.A.bgp_redistribute
    in
    originated @ aggregates @ externals @ internal @ redist

(* -- fixpoint -------------------------------------------------------------------------- *)

let route_key (r : Route.t) =
  ( Prefix.to_string r.prefix,
    A.protocol_to_string r.proto,
    (r.ad, r.lp, r.metric, r.med, r.rid),
    r.bgp_internal,
    r.as_path,
    List.map Net.Community.to_string (Net.Community.Set.elements r.communities),
    match r.action with
    | Route.Receive -> "recv"
    | Route.Forward d -> "fwd:" ^ d
    | Route.Forward_external d -> "ext:" ^ d
    | Route.Discard -> "drop" )

let rib_key rib =
  let map_key m =
    Prefix.Map.bindings m
    |> List.map (fun (p, routes) -> (Prefix.to_string p, List.sort compare (List.map route_key routes)))
  in
  (map_key rib.connected, map_key rib.static, map_key rib.ospf, map_key rib.bgp)

let state_key ribs = Smap.bindings ribs |> List.map (fun (d, rib) -> (d, rib_key rib))

let overall_of dev rib =
  let candidates =
    List.concat_map
      (fun m -> Prefix.Map.fold (fun _ routes acc -> routes @ acc) m [])
      [ rib.connected; rib.static; rib.ospf; rib.bgp ]
  in
  best_of_candidates dev Sem.Overall candidates

let run ?max_rounds (net : A.network) env =
  let devices = net.A.net_devices in
  let max_rounds =
    match max_rounds with Some n -> n | None -> (4 * List.length devices) + 16
  in
  let step ribs =
    List.fold_left
      (fun acc (dev : A.device) ->
        let best proto = best_of_candidates dev (Sem.Protocol proto) in
        let connected = best A.Pconnected (connected_routes dev) in
        let static = best A.Pstatic (static_routes net dev) in
        let ospf = best A.Pospf (ospf_candidates net env ribs dev) in
        let bgp = best A.Pbgp (bgp_candidates net env ribs devices dev) in
        let rib = { connected; static; ospf; bgp; overall = Prefix.Map.empty } in
        let rib = { rib with overall = overall_of dev rib } in
        Smap.add dev.A.dev_name rib acc)
      Smap.empty devices
  in
  let rec iterate ribs round =
    let next = step ribs in
    if state_key next = state_key ribs then { ribs = next; converged = true }
    else if round >= max_rounds then { ribs = next; converged = false }
    else iterate next (round + 1)
  in
  iterate Smap.empty 0

let overall_rib s name =
  match Smap.find_opt name s.ribs with
  | None -> []
  | Some rib -> Prefix.Map.fold (fun _ routes acc -> acc @ routes) rib.overall []

let proto_rib s name proto =
  match Smap.find_opt name s.ribs with
  | None -> []
  | Some rib -> Prefix.Map.fold (fun _ routes acc -> acc @ routes) (proto_map rib proto) []

let lookup s name ip =
  match Smap.find_opt name s.ribs with None -> [] | Some rib -> lookup_map rib.overall ip
