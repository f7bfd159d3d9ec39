(* Graph fast path for ⟨k⟩-failure fault-invariance (Tiramisu style).

   The reduction: under the conditions of [eligible] the control plane
   is policy-free any-path routing, so a source reaches the destination
   subnet exactly when the surviving internal topology connects it to
   the subnet's owner.  Fault-invariance under at most k internal-link
   failures is then, per source, "min edge cut to the owner > k"
   (Menger), and a minimum cut of size <= k is an explicit violated
   witness.  Everything here is conservative: any condition the scan
   cannot discharge syntactically yields [Undecided], and even an
   eligible network is double-checked against the concrete simulator
   (healthy reachability must equal connectivity; a violated cut must
   actually disconnect when replayed) before a verdict leaves this
   module.  DESIGN.md spells out the full argument. *)

module A = Config.Ast
module Verify = Minesweeper.Verify
module Report = Minesweeper.Verify.Report
module Property = Minesweeper.Property
module Counterexample = Minesweeper.Counterexample
module Topo = Net.Topology

type cut = { src : string; links : (string * string) list }

type answer =
  | Invariant
  | Broken of cut
  | Undecided of string

(* -- feature scan ----------------------------------------------------------- *)

exception Ineligible of string

let ineligible fmt = Printf.ksprintf (fun s -> raise (Ineligible s)) fmt

(* Prefix-list entry semantics mirrored from Filter.entry_match /
   Routing.Policy: an entry matches prefixes whose first
   [length pl_prefix] bits agree and whose length lies in [lo, hi]
   (defaults: exactly [length pl_prefix]). *)
let entry_bounds (e : A.prefix_list_entry) =
  let base = Net.Prefix.length e.pl_prefix in
  match (e.pl_ge, e.pl_le) with
  | None, None -> (base, base)
  | Some g, None -> (g, 32)
  | None, Some l -> (base, l)
  | Some g, Some l -> (g, l)

(* Could [e] match some subprefix of [p] (any q with q ⊆ p)?  An
   overapproximation — used only to reject, so erring towards [true] is
   safe. *)
let entry_touches_subprefixes p (e : A.prefix_list_entry) =
  let lo, hi = entry_bounds e in
  Net.Prefix.overlaps e.pl_prefix p && max lo (Net.Prefix.length p) <= min hi 32

(* Does [e] deny every subprefix of [p]?  Exact: a Deny whose bit
   pattern covers [p] and whose length window spans [length p, 32]. *)
let entry_denies_all_subprefixes p (e : A.prefix_list_entry) =
  let lo, hi = entry_bounds e in
  e.pl_action = A.Deny
  && Net.Prefix.subset p e.pl_prefix
  && lo <= Net.Prefix.length p
  && hi >= 32

(* First-match walk (exhaustion denies): no subprefix of [p] can come
   out permitted.  A Deny that covers only part of the subprefix space
   is treated as inconclusive. *)
let plist_blocks_subprefixes (pl : A.prefix_list) p =
  let rec go = function
    | [] -> true
    | e :: rest ->
      if entry_denies_all_subprefixes p e then true
      else if entry_touches_subprefixes p e then false
      else go rest
  in
  go pl.pl_entries

(* A route map under which no announcement of a subprefix of [p] can be
   permitted: every Permit clause must carry a prefix-list match that
   blocks the whole subprefix space (a clause gated only by communities
   can be satisfied by a crafted announcement; a missing prefix list
   never matches, exactly as the encoding and the simulator treat it). *)
let rm_blocks_subprefixes (dev : A.device) (rm : A.route_map) p =
  List.for_all
    (fun (c : A.rm_clause) ->
      c.A.rm_action = A.Deny
      || List.exists
           (function
             | A.Match_prefix_list name -> (
               match A.find_prefix_list dev name with
               | None -> true
               | Some pl -> plist_blocks_subprefixes pl p)
             | A.Match_community _ -> false)
           c.A.rm_matches)
    rm.A.rm_clauses

let ip_owner_table (net : A.network) =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (d : A.device) ->
      List.iter
        (fun (i : A.interface) ->
          match i.A.if_ip with
          | Some ip -> Hashtbl.replace tbl ip d.A.dev_name
          | None -> ())
        d.A.dev_interfaces)
    net.A.net_devices;
  tbl

let eligible (net : A.network) (dest : Property.destination) =
  try
    let owner, p =
      match dest with
      | Property.Subnet (owner, p) -> (owner, p)
      | Property.Device d ->
        ineligible "destination %s is a device, not a concrete subnet" d
      | Property.External_peer e -> ineligible "destination %s is external" e
    in
    let owner_dev =
      match A.find_device net owner with
      | Some d -> d
      | None -> ineligible "destination owner %s has no configuration" owner
    in
    if
      not
        (List.exists
           (fun (i : A.interface) ->
             match i.A.if_prefix with
             | Some q -> Net.Prefix.equal q p
             | None -> false)
           owner_dev.A.dev_interfaces)
    then
      ineligible "%s is not a connected subnet of %s" (Net.Prefix.to_string p) owner;
    (match owner_dev.A.dev_bgp with
     | Some b when List.exists (Net.Prefix.equal p) b.A.bgp_networks -> ()
     | Some _ | None ->
       ineligible "%s does not originate %s into BGP" owner (Net.Prefix.to_string p));
    (* every topology node must be a configured device, or the graph
       would see connectivity the control plane cannot use *)
    List.iter
      (fun td ->
        if A.find_device net td = None then
          ineligible "topology node %s has no configuration" td)
      (Topo.devices net.A.net_topology);
    let ip_owner = ip_owner_table net in
    let asns = Hashtbl.create 16 in
    List.iter
      (fun (d : A.device) ->
        let name = d.A.dev_name in
        if d.A.dev_ospf <> None then ineligible "%s runs OSPF" name;
        if d.A.dev_statics <> [] then ineligible "%s has static routes" name;
        if d.A.dev_acls <> [] then ineligible "%s has ACLs" name;
        List.iter
          (fun (i : A.interface) ->
            if i.A.if_acl_in <> None || i.A.if_acl_out <> None then
              ineligible "%s applies an interface ACL" name)
          d.A.dev_interfaces;
        let b =
          match d.A.dev_bgp with
          | Some b -> b
          | None -> ineligible "%s does not run BGP" name
        in
        if b.A.bgp_redistribute <> [] then ineligible "%s redistributes into BGP" name;
        if b.A.bgp_aggregates <> [] then ineligible "%s aggregates routes" name;
        (match Hashtbl.find_opt asns b.A.bgp_asn with
         | Some other when other <> name ->
           ineligible "%s and %s share AS %d (AS-path loop rejection)" other name
             b.A.bgp_asn
         | _ -> Hashtbl.replace asns b.A.bgp_asn name);
        List.iter
          (fun (n : A.bgp_neighbor) ->
            if n.A.nbr_remote_as = b.A.bgp_asn then ineligible "%s has an iBGP session" name;
            if n.A.nbr_rr_client then ineligible "%s uses route reflection" name;
            match Hashtbl.find_opt ip_owner n.A.nbr_ip with
            | Some _peer ->
              (* internal session: must be policy-free so routes flood *)
              if n.A.nbr_rm_in <> None || n.A.nbr_rm_out <> None then
                ineligible "%s applies policy on an internal session" name
            | None -> (
              (* external session: imports must provably reject every
                 announcement at least as specific as the destination *)
              match n.A.nbr_rm_in with
              | None ->
                ineligible "%s has an unfiltered external peering" name
              | Some rm_name -> (
                match A.find_route_map d rm_name with
                | None -> ineligible "%s imports through a missing route map" name
                | Some rm ->
                  if not (rm_blocks_subprefixes d rm p) then
                    ineligible
                      "%s's external import may admit a subprefix of %s" name
                      (Net.Prefix.to_string p))))
          b.A.bgp_neighbors)
      net.A.net_devices;
    (* longest-prefix match inside [p] must always land on [owner] *)
    List.iter
      (fun (d : A.device) ->
        if d.A.dev_name <> owner then begin
          List.iter
            (fun (i : A.interface) ->
              match i.A.if_prefix with
              | Some q when Net.Prefix.overlaps q p ->
                ineligible "%s owns %s overlapping the destination" d.A.dev_name
                  (Net.Prefix.to_string q)
              | _ -> ())
            d.A.dev_interfaces;
          match d.A.dev_bgp with
          | Some b ->
            List.iter
              (fun q ->
                if Net.Prefix.overlaps q p then
                  ineligible "%s originates %s overlapping the destination"
                    d.A.dev_name (Net.Prefix.to_string q))
              b.A.bgp_networks
          | None -> ()
        end)
      net.A.net_devices;
    Ok (owner, p)
  with Ineligible reason -> Error reason

(* -- min cut ---------------------------------------------------------------- *)

(* The graph the failure variables quantify over: one unit-capacity
   undirected edge per distinct unordered device pair (the encoding
   allocates one failure variable per canonical pair, and the
   simulator's [failed_links] are unordered pairs). *)
let pair_key a b = if a < b then (a, b) else (b, a)

let internal_pairs topo =
  let seen = Hashtbl.create 97 in
  List.iter
    (fun (l : Topo.link) ->
      Hashtbl.replace seen (pair_key l.Topo.a.Topo.device l.Topo.b.Topo.device) ())
    (Topo.links topo);
  Hashtbl.fold (fun k () acc -> k :: acc) seen []

let min_cut topo ~src ~dst ~limit =
  if src = dst then `Above_limit
  else begin
    let pairs = internal_pairs topo in
    (* residual capacity per directed pair; undirected unit edges start
       at 1 in both directions *)
    let cap = Hashtbl.create 97 in
    let adj = Hashtbl.create 97 in
    let add_arc u v =
      Hashtbl.replace cap (u, v) 1;
      Hashtbl.replace adj u (v :: (try Hashtbl.find adj u with Not_found -> []))
    in
    List.iter
      (fun (a, b) ->
        add_arc a b;
        add_arc b a)
      pairs;
    let residual u v = try Hashtbl.find cap (u, v) with Not_found -> 0 in
    (* BFS for an augmenting path in the residual graph; returns the
       predecessor map when [dst] is reached *)
    let bfs () =
      let pred = Hashtbl.create 97 in
      Hashtbl.replace pred src src;
      let queue = Queue.create () in
      Queue.add src queue;
      let found = ref false in
      while (not !found) && not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        List.iter
          (fun v ->
            if (not (Hashtbl.mem pred v)) && residual u v > 0 then begin
              Hashtbl.replace pred v u;
              if v = dst then found := true else Queue.add v queue
            end)
          (try Hashtbl.find adj u with Not_found -> [])
      done;
      if !found then Some pred else None
    in
    let flow = ref 0 in
    let exhausted = ref false in
    while (not !exhausted) && !flow <= limit do
      match bfs () with
      | None -> exhausted := true
      | Some pred ->
        incr flow;
        let rec unwind v =
          if v <> src then begin
            let u = Hashtbl.find pred v in
            Hashtbl.replace cap (u, v) (residual u v - 1);
            Hashtbl.replace cap (v, u) (residual v u + 1);
            unwind u
          end
        in
        unwind dst
    done;
    if !flow > limit then `Above_limit
    else begin
      (* min cut = original pairs crossing the residual-reachable set *)
      let reach = Hashtbl.create 97 in
      Hashtbl.replace reach src ();
      let queue = Queue.create () in
      Queue.add src queue;
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        List.iter
          (fun v ->
            if (not (Hashtbl.mem reach v)) && residual u v > 0 then begin
              Hashtbl.replace reach v ();
              Queue.add v queue
            end)
          (try Hashtbl.find adj u with Not_found -> [])
      done;
      `Cut
        (List.filter
           (fun (a, b) -> Hashtbl.mem reach a <> Hashtbl.mem reach b)
           pairs)
    end
  end

(* -- the decision procedure ------------------------------------------------- *)

(* Plain BFS connectivity over the unit graph. *)
let component topo start =
  let reach = Hashtbl.create 97 in
  if Topo.has_device topo start then begin
    Hashtbl.replace reach start ();
    let queue = Queue.create () in
    Queue.add start queue;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      List.iter
        (fun (_, peer, _) ->
          if not (Hashtbl.mem reach peer) then begin
            Hashtbl.replace reach peer ();
            Queue.add peer queue
          end)
        (Topo.neighbors topo u)
    done
  end;
  reach

let analyze (net : A.network) ~k ~sources dest =
  match eligible net dest with
  | Error reason -> Undecided reason
  | Ok (owner, p) -> (
    let topo = net.A.net_topology in
    let state = Routing.Simulator.run net Routing.Simulator.empty_env in
    if not (Routing.Simulator.converged state) then
      Undecided "healthy simulation did not converge"
    else begin
      let dst_ip = Net.Prefix.first p in
      let comp = component topo owner in
      let rec go = function
        | [] -> Invariant
        | s :: rest ->
          if not (Topo.has_device topo s) then
            Undecided (Printf.sprintf "source %s is not in the topology" s)
          else begin
            let conn = Hashtbl.mem comp s in
            let healthy = Routing.Dataplane.reachable net state ~src:s ~dst:dst_ip in
            if healthy <> conn then
              Undecided
                (Printf.sprintf
                   "converged forwarding disagrees with connectivity at %s" s)
            else if (not conn) || s = owner then
              (* healthy-unreachable sources stay unreachable under any
                 failure set (failures only remove edges); the owner is
                 never disconnected from itself *)
              go rest
            else
              match min_cut topo ~src:s ~dst:owner ~limit:k with
              | `Above_limit -> go rest
              | `Cut links -> Broken { src = s; links }
          end
      in
      match go sources with
      | Broken cut ->
        (* tripwire: the cut must actually disconnect when replayed
           through the simulator, or the verdict never leaves here *)
        let env =
          { Routing.Simulator.external_ads = []; failed_links = cut.links }
        in
        let failed_state = Routing.Simulator.run net env in
        if
          Routing.Simulator.converged failed_state
          && not
               (Routing.Dataplane.reachable net failed_state ~src:cut.src
                  ~dst:dst_ip)
        then Broken cut
        else
          Undecided
            (Printf.sprintf "cut of size %d did not replay at %s"
               (List.length cut.links) cut.src)
      | other -> other
    end)

(* -- Report surface --------------------------------------------------------- *)

let report ?label (net : A.network) ~k ~sources dest =
  let label =
    match label with Some l -> l | None -> Printf.sprintf "fault-invariant k=%d" k
  in
  let t0 = Unix.gettimeofday () in
  let finish verdict =
    { (Report.v label verdict) with
      Report.wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0;
      method_ = Some Report.Graph }
  in
  match analyze net ~k ~sources dest with
  | Invariant -> finish Report.Verified
  | Undecided reason -> finish (Report.Error ("graph-undecided: " ^ reason))
  | Broken cut ->
    let p =
      match dest with
      | Property.Subnet (_, p) -> p
      | Property.Device _ | Property.External_peer _ ->
        (* analyze only decides Subnet destinations *)
        assert false
    in
    let src_ip =
      match A.find_device net cut.src with
      | Some d ->
        let own =
          List.find_map
            (fun (i : A.interface) ->
              match i.A.if_prefix with
              | Some q when not (Net.Prefix.overlaps q p) -> Some (Net.Prefix.first q)
              | _ -> None)
            d.A.dev_interfaces
        in
        (match own with Some ip -> ip | None -> Net.Prefix.first p)
      | None -> Net.Prefix.first p
    in
    let cx =
      {
        Counterexample.dst_ip = Net.Prefix.first p;
        src_ip;
        dst_port = 0;
        announcements = [];
        failures = cut.links;
        forwarding = [];
        classes = [];
      }
    in
    finish (Report.Violated cx)

(* -- hybrid: the graph path first, SMT when it declines ---------------------- *)

(* The graph path costs a feature scan and at most two simulator runs,
   so trying it first costs a declined query little next to the solve,
   and a decided one never builds the two-copy encoding. *)
let hybrid ?timeout (net : A.network) opts ~k ~sources dest =
  let r = report net ~k ~sources dest in
  match r.Report.verdict with
  | Report.Verified | Report.Violated _ -> r
  | Report.Timeout | Report.Error _ ->
    let r = Verify.fault_invariant ?timeout net opts ~k ~sources dest in
    { r with Report.method_ = Some Report.Fallback }
