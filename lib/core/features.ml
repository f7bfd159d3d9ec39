(** Static scan of a network's configurations driving the slicing
    optimizations (§6.2): attributes that no configuration can ever set
    or test are replaced by shared constants in every record. *)

module A = Config.Ast

type t = {
  any_lp : bool;  (** some route-map sets local-preference *)
  any_med : bool;  (** some route-map sets or matches MED *)
  any_ibgp : bool;
  comm_scope : Net.Community.t list;  (** communities carried by records *)
}

let route_map_sets (net : A.network) f =
  List.exists
    (fun (d : A.device) ->
      List.exists
        (fun (rm : A.route_map) ->
          List.exists (fun (cl : A.rm_clause) -> List.exists f cl.rm_sets) rm.rm_clauses)
        d.dev_route_maps)
    net.net_devices

let mentioned_communities (net : A.network) ~matched_only =
  let add acc c = if List.exists (Net.Community.equal c) acc then acc else c :: acc in
  List.fold_left
    (fun acc (d : A.device) ->
      List.fold_left
        (fun acc (rm : A.route_map) ->
          List.fold_left
            (fun acc (cl : A.rm_clause) ->
              let acc =
                List.fold_left
                  (fun acc -> function A.Match_community c -> add acc c | A.Match_prefix_list _ -> acc)
                  acc cl.rm_matches
              in
              if matched_only then acc
              else
                List.fold_left
                  (fun acc -> function
                    | A.Set_community c | A.Delete_community c -> add acc c
                    | A.Set_local_pref _ | A.Set_metric _ | A.Set_med _ -> acc)
                  acc cl.rm_sets)
            acc rm.rm_clauses)
        acc d.dev_route_maps)
    [] net.net_devices
  |> List.sort Net.Community.compare

let has_ibgp (net : A.network) =
  let owner = A.address_index net in
  List.exists
    (fun (d : A.device) ->
      match d.A.dev_bgp with
      | None -> false
      | Some bgp ->
        List.exists
          (fun (n : A.bgp_neighbor) ->
            match owner n.A.nbr_ip with
            | Some d2 when d2.A.dev_name <> d.A.dev_name ->
              (match d2.A.dev_bgp with
               | Some b2 -> b2.A.bgp_asn = bgp.A.bgp_asn
               | None -> false)
            | Some _ | None -> false)
          bgp.A.bgp_neighbors)
    net.net_devices

let scan (net : A.network) ~slice =
  if slice then
    {
      any_lp = route_map_sets net (function A.Set_local_pref _ -> true | _ -> false);
      any_med = route_map_sets net (function A.Set_med _ -> true | _ -> false);
      any_ibgp = has_ibgp net;
      comm_scope = mentioned_communities net ~matched_only:true;
    }
  else
    {
      any_lp = true;
      any_med = true;
      any_ibgp = true;
      comm_scope = mentioned_communities net ~matched_only:false;
    }
