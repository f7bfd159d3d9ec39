(** Reference (def-use) analysis: every route-map, prefix-list and ACL
    named somewhere in a device's configuration must exist, and every
    defined object should be referenced from somewhere.

    Codes:
    - MS-E001: undefined route-map referenced by a BGP neighbor
    - MS-E002: undefined prefix-list referenced by a route-map clause
    - MS-E003: undefined ACL referenced by an interface
    - MS-W101: route-map defined but never applied
    - MS-W102: prefix-list defined but never matched
    - MS-W103: ACL defined but never applied *)

module A = Config.Ast
module D = Diagnostic

(* Each use pairs the referenced name with a thunk rendering the
   referencing location: most references resolve, and the location
   string is only needed for a diagnostic. *)

(* Route-map names referenced by a device's BGP neighbors. *)
let route_map_uses (dev : A.device) =
  match dev.A.dev_bgp with
  | None -> []
  | Some bgp ->
    List.concat_map
      (fun (n : A.bgp_neighbor) ->
        let where dir () =
          Printf.sprintf "neighbor %s route-map %s" (Net.Ipv4.to_string n.A.nbr_ip) dir
        in
        (match n.A.nbr_rm_in with Some rm -> [ (rm, where "in") ] | None -> [])
        @ match n.A.nbr_rm_out with Some rm -> [ (rm, where "out") ] | None -> [])
      bgp.A.bgp_neighbors

(* Prefix-list names referenced by a device's route-map clauses. *)
let prefix_list_uses (dev : A.device) =
  List.concat_map
    (fun (rm : A.route_map) ->
      List.concat_map
        (fun (cl : A.rm_clause) ->
          List.filter_map
            (function
              | A.Match_prefix_list name ->
                Some
                  ( name,
                    fun () -> Printf.sprintf "route-map %s clause %d" rm.A.rm_name cl.A.rm_seq )
              | A.Match_community _ -> None)
            cl.A.rm_matches)
        rm.A.rm_clauses)
    dev.A.dev_route_maps

(* ACL names referenced by a device's interfaces. *)
let acl_uses (dev : A.device) =
  List.concat_map
    (fun (i : A.interface) ->
      let where dir () = Printf.sprintf "interface %s %s" i.A.if_name dir in
      (match i.A.if_acl_in with Some a -> [ (a, where "in") ] | None -> [])
      @ match i.A.if_acl_out with Some a -> [ (a, where "out") ] | None -> [])
    dev.A.dev_interfaces

let check_device (dev : A.device) =
  let d = dev.A.dev_name in
  let rm_uses = route_map_uses dev in
  let pl_uses = prefix_list_uses dev in
  let acl_uses = acl_uses dev in
  let undefined =
    List.filter_map
      (fun (name, where) ->
        if A.find_route_map dev name = None then
          Some
            (D.make ~code:"MS-E001" ~severity:D.Error ~device:d ~obj:(where ())
               "route-map %s is not defined" name)
        else None)
      rm_uses
    @ List.filter_map
        (fun (name, where) ->
          if A.find_prefix_list dev name = None then
            Some
              (D.make ~code:"MS-E002" ~severity:D.Error ~device:d ~obj:(where ())
                 "prefix-list %s is not defined" name)
          else None)
        pl_uses
    @ List.filter_map
        (fun (name, where) ->
          if A.find_acl dev name = None then
            Some
              (D.make ~code:"MS-E003" ~severity:D.Error ~device:d ~obj:(where ())
                 "access-list %s is not defined" name)
          else None)
        acl_uses
  in
  let used uses name = List.exists (fun (n, _) -> n = name) uses in
  let unused =
    List.filter_map
      (fun (rm : A.route_map) ->
        if used rm_uses rm.A.rm_name then None
        else
          Some
            (D.make ~code:"MS-W101" ~severity:D.Warning ~device:d
               ~obj:(Printf.sprintf "route-map %s" rm.A.rm_name)
               "route-map %s is defined but never applied" rm.A.rm_name))
      dev.A.dev_route_maps
    @ List.filter_map
        (fun (pl : A.prefix_list) ->
          if used pl_uses pl.A.pl_name then None
          else
            Some
              (D.make ~code:"MS-W102" ~severity:D.Warning ~device:d
                 ~obj:(Printf.sprintf "prefix-list %s" pl.A.pl_name)
                 "prefix-list %s is defined but never matched" pl.A.pl_name))
        dev.A.dev_prefix_lists
    @ List.filter_map
        (fun (acl : A.acl) ->
          if used acl_uses acl.A.acl_name then None
          else
            Some
              (D.make ~code:"MS-W103" ~severity:D.Warning ~device:d
                 ~obj:(Printf.sprintf "access-list %s" acl.A.acl_name)
                 "access-list %s is defined but never applied" acl.A.acl_name))
        dev.A.dev_acls
  in
  undefined @ unused

let check (net : A.network) = List.concat_map check_device net.A.net_devices
