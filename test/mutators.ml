(* Configuration mutations and the fuzzing budget shared by the
   differential suites: [test_fuzz] verifies mutated networks against
   the simulator, [test_serve] sends sequences of them through the serve
   daemon as diffs.  [MS_FUZZ_COUNT] (set by [make fuzz]) raises the
   number of QCheck cases of both. *)

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

let mutate seed net =
  match seed mod 3 with
  | 0 -> ("flip-rm-action", flip_rm_action (seed / 3) net)
  | 1 -> ("rotate-local-prefs", rotate_local_prefs net)
  | _ -> ("drop-link", drop_link (seed / 3) net)

(* [drop_link] whose cut survives printing: the parser re-infers a link
   from the subnet its endpoints share, so the first endpoint's
   interface also loses its address.  A daemon fed the text sees the
   cut. *)
let cut_link k net =
  match Net.Topology.links net.A.net_topology with
  | [] -> net
  | links ->
    let ep = (List.nth links (k mod List.length links)).Net.Topology.a in
    map_devices
      (fun (d : A.device) ->
        if d.A.dev_name <> ep.Net.Topology.device then d
        else
          {
            d with
            A.dev_interfaces =
              List.map
                (fun (i : A.interface) ->
                  if i.A.if_name = ep.Net.Topology.interface then
                    { i with A.if_prefix = None; if_ip = None }
                  else i)
                d.A.dev_interfaces;
          })
      (drop_link k net)
