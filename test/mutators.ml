(* Configuration mutations and the fuzzing budget shared by the
   differential suites: [test_fuzz] verifies mutated networks against
   the simulator, [test_serve] sends sequences of them through the serve
   daemon as diffs, [test_encode] rebuilds encodings across them and
   [test_config] prints and parses them.  [MS_FUZZ_COUNT] (set by
   [make fuzz]) raises the number of QCheck cases of all of them. *)

module A = Config.Ast

let fuzz_count =
  match Sys.getenv_opt "MS_FUZZ_COUNT" with
  | Some s -> ( try max 1 (int_of_string s) with _ -> 6)
  | None -> 6

(* ---- mutations ---- *)

let map_devices f net = { net with A.net_devices = List.map f net.A.net_devices }

let count_rm_clauses net =
  List.fold_left
    (fun n (d : A.device) ->
      List.fold_left (fun n rm -> n + List.length rm.A.rm_clauses) n d.A.dev_route_maps)
    0 net.A.net_devices

(* Flip Permit <-> Deny on the k-th route-map clause of the network. *)
let flip_rm_action k net =
  let total = count_rm_clauses net in
  if total = 0 then net
  else begin
    let idx = k mod total in
    let i = ref (-1) in
    map_devices
      (fun d ->
        {
          d with
          A.dev_route_maps =
            List.map
              (fun rm ->
                {
                  rm with
                  A.rm_clauses =
                    List.map
                      (fun c ->
                        incr i;
                        if !i = idx then
                          {
                            c with
                            A.rm_action =
                              (match c.A.rm_action with
                               | A.Permit -> A.Deny
                               | A.Deny -> A.Permit);
                          }
                        else c)
                      rm.A.rm_clauses;
                })
              d.A.dev_route_maps;
        })
      net
  end

(* Rotate every Set_local_pref value one position forward, network-wide:
   preserves the multiset of preferences but scrambles who gets which. *)
let rotate_local_prefs net =
  let vals = ref [] in
  List.iter
    (fun (d : A.device) ->
      List.iter
        (fun rm ->
          List.iter
            (fun c ->
              List.iter
                (function A.Set_local_pref v -> vals := v :: !vals | _ -> ())
                c.A.rm_sets)
            rm.A.rm_clauses)
        d.A.dev_route_maps)
    net.A.net_devices;
  match List.rev !vals with
  | [] | [ _ ] -> net
  | vs ->
    let vs = Array.of_list vs in
    let nvs = Array.length vs in
    let j = ref (-1) in
    map_devices
      (fun d ->
        {
          d with
          A.dev_route_maps =
            List.map
              (fun rm ->
                {
                  rm with
                  A.rm_clauses =
                    List.map
                      (fun c ->
                        {
                          c with
                          A.rm_sets =
                            List.map
                              (function
                                | A.Set_local_pref _ ->
                                  incr j;
                                  A.Set_local_pref vs.((!j + 1) mod nvs)
                                | s -> s)
                              c.A.rm_sets;
                        })
                      rm.A.rm_clauses;
                })
              d.A.dev_route_maps;
        })
      net

(* Remove the k-th physical link from the topology. *)
let drop_link k net =
  let links = Net.Topology.links net.A.net_topology in
  match links with
  | [] -> net
  | _ ->
    let idx = k mod List.length links in
    let topo =
      List.fold_left Net.Topology.add_device Net.Topology.empty
        (Net.Topology.devices net.A.net_topology)
    in
    let topo, _ =
      List.fold_left
        (fun (t, i) l -> ((if i = idx then t else Net.Topology.add_link t l), i + 1))
        (topo, 0) links
    in
    { net with A.net_topology = topo }

(* An inbound ACL on the second endpoint of the k-th link, dropping
   10.0.0.0/8: a change to one device that the device across the link
   sees in its own forwarding. *)
let filter_link k net =
  match Net.Topology.links net.A.net_topology with
  | [] -> net
  | links ->
    let ep = (List.nth links (k mod List.length links)).Net.Topology.b in
    let acl =
      {
        A.acl_name = "LINK_IN";
        acl_entries =
          [
            { A.acl_action = A.Deny; acl_dst = Net.Prefix.of_string "10.0.0.0/8" };
            { A.acl_action = A.Permit; acl_dst = Net.Prefix.of_string "0.0.0.0/0" };
          ];
      }
    in
    map_devices
      (fun (d : A.device) ->
        if d.A.dev_name <> ep.Net.Topology.device then d
        else
          {
            d with
            A.dev_acls = acl :: List.filter (fun (a : A.acl) -> a.A.acl_name <> "LINK_IN") d.A.dev_acls;
            dev_interfaces =
              List.map
                (fun (i : A.interface) ->
                  if i.A.if_name = ep.Net.Topology.interface then { i with A.if_acl_in = Some "LINK_IN" }
                  else i)
                d.A.dev_interfaces;
          })
      net

let mutate seed net =
  match seed mod 3 with
  | 0 -> ("flip-rm-action", flip_rm_action (seed / 3) net)
  | 1 -> ("rotate-local-prefs", rotate_local_prefs net)
  | _ -> ("drop-link", drop_link (seed / 3) net)

(* The edits of the serve-churn benchmark, on a generated enterprise
   network: a deny entry for one host of a rack's subnet at the head of
   the rack's HOSTS ACL, and a new local preference on an edge router's
   EDGE_IN import map.  Each changes at most one device. *)
let map_device name f net =
  map_devices (fun (d : A.device) -> if d.A.dev_name = name then f d else d) net

let rack_acl k (t : Generators.Enterprise.t) net =
  match t.Generators.Enterprise.rack_role with
  | [] -> net
  | racks ->
    let rack = List.nth racks (k mod List.length racks) in
    let subnet = t.Generators.Enterprise.rack_subnet rack in
    let host = Net.Prefix.make (Net.Prefix.first subnet + 1 + (k mod 200)) 32 in
    let edit (acl : A.acl) =
      if acl.A.acl_name <> "HOSTS" then acl
      else { acl with A.acl_entries = { A.acl_action = A.Deny; acl_dst = host } :: acl.A.acl_entries }
    in
    map_device rack (fun d -> { d with A.dev_acls = List.map edit d.A.dev_acls }) net

let edge_import k (t : Generators.Enterprise.t) net =
  match t.Generators.Enterprise.edge_routers with
  | [] -> net
  | edges ->
    let edge = List.nth edges (k mod List.length edges) in
    let set = function A.Set_local_pref _ -> A.Set_local_pref (100 + (k mod 100)) | s -> s in
    let clause (c : A.rm_clause) = { c with A.rm_sets = List.map set c.A.rm_sets } in
    let rmap (rm : A.route_map) =
      if rm.A.rm_name = "EDGE_IN" then { rm with A.rm_clauses = List.map clause rm.A.rm_clauses }
      else rm
    in
    map_device edge (fun d -> { d with A.dev_route_maps = List.map rmap d.A.dev_route_maps }) net
