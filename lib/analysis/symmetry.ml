(** Symmetry analysis: which devices are interchangeable?

    Regular fabrics (folded-Clos data centers above all) contain large
    groups of devices that differ only in their embedding: every
    non-destination ToR runs the same policy against the same kind of
    neighbors, with different concrete names, addresses and AS numbers.
    This pass makes that precise in two steps:

    - {b canonical fingerprints} ({!fingerprint}): a digest of one
      device's configuration that is invariant under a consistent
      renaming of device names, interface address blocks and AS
      numbers.  Addresses are abstracted positionally (first-occurrence
      numbering of address blocks, offsets within a block kept
      literal), so two ToRs whose configs differ only by which /30s and
      /24s they were assigned hash identically, while any policy
      difference (an extra route-map clause, a different mask length, a
      changed ACL) changes the digest.

    - {b partition refinement} ({!classes}): color refinement over the
      topology graph seeded by those fingerprints.  Two devices end in
      the same class only if they have equal fingerprints and, for
      every class [C'], the same number of neighbors in [C'].  The
      fixpoint is the coarsest such partition; [pins] force named
      devices (property endpoints) into singleton classes, which also
      separates everyone else by their distance/position relative to
      the pinned device.

    On top of the partition sit two consumers: {!reduce} builds the
    quotient network that {!Encode} substitutes for the full one behind
    [Options.symmetry] (one representative per class, with conservative
    bail-outs — see DESIGN.md), and {!check} reports near-symmetries —
    devices whose topological role matches a large group of peers but
    whose policy differs — as stable MS-W401 lint warnings. *)

module A = Config.Ast
module P = Net.Prefix
module Ip = Net.Ipv4
module D = Diagnostic

type partition = { groups : string list list }
(** Disjoint classes covering every device; members sorted, groups
    sorted by their first member.  Singleton classes are included. *)

(* -- canonical fingerprints --------------------------------------------------- *)

(* Abstraction state for one device: address blocks and AS numbers are
   replaced by first-occurrence indices, so the serialization of two
   consistently-renamed devices is byte-identical.  Offsets within a
   block (host part of an interface address, position of a neighbor IP
   inside the shared /30) and mask lengths stay literal: they are
   policy, not naming. *)
type abstr = {
  mutable next : int;
  addrs : (int, int) Hashtbl.t;  (* address-block base or raw IP -> index *)
  mutable next_as : int;
  asns : (int, int) Hashtbl.t;
}

let new_abstr () = { next = 0; addrs = Hashtbl.create 16; next_as = 0; asns = Hashtbl.create 4 }

let addr_id ab v =
  match Hashtbl.find_opt ab.addrs v with
  | Some i -> i
  | None ->
    let i = ab.next in
    ab.next <- i + 1;
    Hashtbl.replace ab.addrs v i;
    i

let as_id ab v =
  match Hashtbl.find_opt ab.asns v with
  | Some i -> i
  | None ->
    let i = ab.next_as in
    ab.next_as <- i + 1;
    Hashtbl.replace ab.asns v i;
    i

let prefix_token ab (p : P.t) = Printf.sprintf "p%d/%d" (addr_id ab (P.network p)) (P.length p)

(* An IP inside one of the device's connected subnets is named relative
   to that block ("third address of block 2"); anything else gets its
   own first-occurrence index. *)
let ip_token ab (ifaces : A.interface list) ip =
  let containing =
    List.find_map
      (fun (i : A.interface) ->
        match i.A.if_prefix with Some p when P.contains p ip -> Some p | Some _ | None -> None)
      ifaces
  in
  match containing with
  | Some p -> Printf.sprintf "i%d+%d" (addr_id ab (P.network p)) (ip - P.network p)
  | None -> Printf.sprintf "a%d" (addr_id ab ip)

let action_token = function A.Permit -> "permit" | A.Deny -> "deny"

let int_opt_token = function None -> "-" | Some n -> string_of_int n

(* One serialized section per configuration area, sharing the
   abstraction tables in a fixed order.  The per-section strings feed
   both the digest and the MS-W401 "which sections differ" message. *)
let sections (dev : A.device) : (string * string) list =
  let ab = new_abstr () in
  let b = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let take () =
    let s = Buffer.contents b in
    Buffer.clear b;
    s
  in
  let ifaces = dev.A.dev_interfaces in
  List.iter
    (fun (i : A.interface) ->
      add "if %s %s %s in=%s out=%s cost=%d;" i.A.if_name
        (match i.A.if_prefix with Some p -> prefix_token ab p | None -> "-")
        (match i.A.if_ip with Some ip -> ip_token ab ifaces ip | None -> "-")
        (Option.value ~default:"-" i.A.if_acl_in)
        (Option.value ~default:"-" i.A.if_acl_out)
        i.A.if_cost)
    ifaces;
  let s_ifaces = take () in
  List.iter
    (fun (pl : A.prefix_list) ->
      add "plist %s:" pl.A.pl_name;
      List.iter
        (fun (e : A.prefix_list_entry) ->
          add " %s %s ge=%s le=%s;" (action_token e.A.pl_action) (prefix_token ab e.A.pl_prefix)
            (int_opt_token e.A.pl_ge) (int_opt_token e.A.pl_le))
        pl.A.pl_entries)
    dev.A.dev_prefix_lists;
  let s_plists = take () in
  List.iter
    (fun (rm : A.route_map) ->
      add "rmap %s:" rm.A.rm_name;
      List.iter
        (fun (c : A.rm_clause) ->
          add " %d %s" c.A.rm_seq (action_token c.A.rm_action);
          List.iter
            (function
              | A.Match_prefix_list n -> add " match-pl=%s" n
              | A.Match_community cm -> add " match-comm=%s" (Net.Community.to_string cm))
            c.A.rm_matches;
          List.iter
            (function
              | A.Set_local_pref n -> add " set-lp=%d" n
              | A.Set_metric n -> add " set-metric=%d" n
              | A.Set_med n -> add " set-med=%d" n
              | A.Set_community cm -> add " set-comm=%s" (Net.Community.to_string cm)
              | A.Delete_community cm -> add " del-comm=%s" (Net.Community.to_string cm))
            c.A.rm_sets;
          add ";")
        rm.A.rm_clauses)
    dev.A.dev_route_maps;
  let s_rmaps = take () in
  List.iter
    (fun (a : A.acl) ->
      add "acl %s:" a.A.acl_name;
      List.iter
        (fun (e : A.acl_entry) ->
          add " %s %s;" (action_token e.A.acl_action) (prefix_token ab e.A.acl_dst))
        a.A.acl_entries)
    dev.A.dev_acls;
  let s_acls = take () in
  let redist_token (r : A.redistribute) =
    Printf.sprintf " redist=%s metric=%s" (A.protocol_to_string r.A.rd_from)
      (int_opt_token r.A.rd_metric)
  in
  (match dev.A.dev_bgp with
   | None -> add "none"
   | Some bgp ->
     add "as%d rid=%s multipath=%b" (as_id ab bgp.A.bgp_asn)
       (match bgp.A.bgp_router_id with Some ip -> ip_token ab ifaces ip | None -> "-")
       bgp.A.bgp_multipath;
     List.iter (fun p -> add " net=%s" (prefix_token ab p)) bgp.A.bgp_networks;
     List.iter (fun (p, so) -> add " aggregate=%s/%b" (prefix_token ab p) so) bgp.A.bgp_aggregates;
     List.iter (fun r -> add "%s" (redist_token r)) bgp.A.bgp_redistribute;
     List.iter
       (fun (n : A.bgp_neighbor) ->
         add " nbr %s as%d in=%s out=%s rr=%b;" (ip_token ab ifaces n.A.nbr_ip)
           (as_id ab n.A.nbr_remote_as)
           (Option.value ~default:"-" n.A.nbr_rm_in)
           (Option.value ~default:"-" n.A.nbr_rm_out)
           n.A.nbr_rr_client)
       bgp.A.bgp_neighbors);
  let s_bgp = take () in
  (match dev.A.dev_ospf with
   | None -> add "none"
   | Some o ->
     List.iter (fun p -> add " net=%s" (prefix_token ab p)) o.A.ospf_networks;
     List.iter (fun r -> add "%s" (redist_token r)) o.A.ospf_redistribute);
  let s_ospf = take () in
  List.iter
    (fun (s : A.static_route) ->
      add "static %s via=%s if=%s;" (prefix_token ab s.A.st_prefix)
        (match s.A.st_next_hop with Some ip -> ip_token ab ifaces ip | None -> "-")
        (Option.value ~default:"-" s.A.st_interface))
    dev.A.dev_statics;
  let s_statics = take () in
  [
    ("interfaces", s_ifaces);
    ("prefix-lists", s_plists);
    ("route-maps", s_rmaps);
    ("acls", s_acls);
    ("bgp", s_bgp);
    ("ospf", s_ospf);
    ("static", s_statics);
  ]

let fingerprint (dev : A.device) =
  Digest.to_hex
    (Digest.string (String.concat "\n" (List.map (fun (n, s) -> n ^ ":" ^ s) (sections dev))))

(* Concrete digest: a hash of the device's printed configuration, with
   addresses and AS numbers literal.  Unlike [fingerprint] this is NOT
   renaming-canonical — two consistently-renamed devices get different
   digests — which is exactly what cache keys and diff detection need:
   a renamed neighbor IP changes behavior and must change the key. *)
let digest (dev : A.device) = Digest.to_hex (Digest.string (Config.Printer.device_to_string dev))

(* -- partition refinement ----------------------------------------------------- *)

(* Color refinement to a fixpoint: each round recolors every device by
   (own color, sorted multiset of neighbor colors); colors only ever
   split, so the class count is monotone and the loop runs at most
   [n] rounds. *)
let refine_colors (names : string list) (topo : Net.Topology.t) (seed : (string, int) Hashtbl.t) =
  let color = Hashtbl.copy seed in
  let get d = match Hashtbl.find_opt color d with Some c -> c | None -> -1 in
  let distinct () =
    List.sort_uniq compare (List.map get names) |> List.length
  in
  let rec go count =
    let sig_tbl : (int * int list, int) Hashtbl.t = Hashtbl.create 64 in
    let next = ref 0 in
    let updates =
      List.map
        (fun d ->
          let nbrs =
            List.sort compare
              (List.map (fun (_, p, _) -> get p) (Net.Topology.neighbors topo d))
          in
          let s = (get d, nbrs) in
          let c =
            match Hashtbl.find_opt sig_tbl s with
            | Some c -> c
            | None ->
              let c = !next in
              incr next;
              Hashtbl.replace sig_tbl s c;
              c
          in
          (d, c))
        names
    in
    List.iter (fun (d, c) -> Hashtbl.replace color d c) updates;
    let count' = distinct () in
    if count' > count then go count' else color
  in
  go (distinct ())

let groups_of_colors names color =
  let tbl : (int, string list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun d ->
      let c = match Hashtbl.find_opt color d with Some c -> c | None -> -1 in
      Hashtbl.replace tbl c (d :: (Option.value ~default:[] (Hashtbl.find_opt tbl c))))
    names;
  Hashtbl.fold (fun _ members acc -> List.sort compare members :: acc) tbl []
  |> List.sort (fun a b -> compare (List.hd a) (List.hd b))

let seeded_classes ~seed_of ?(pins = []) (net : A.network) (topo : Net.Topology.t) : partition =
  let names = List.map (fun (d : A.device) -> d.A.dev_name) net.A.net_devices in
  let seed = Hashtbl.create 64 in
  let ids : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let next = ref 0 in
  List.iter
    (fun (d : A.device) ->
      let key = seed_of d in
      let c =
        match Hashtbl.find_opt ids key with
        | Some c -> c
        | None ->
          let c = !next in
          incr next;
          Hashtbl.replace ids key c;
          c
      in
      Hashtbl.replace seed d.A.dev_name c)
    net.A.net_devices;
  (* a pinned device gets a color nobody shares, making its class a
     singleton and letting refinement propagate position-relative-to-it *)
  List.iter
    (fun p ->
      if Hashtbl.mem seed p then begin
        let c = !next in
        incr next;
        Hashtbl.replace seed p c
      end)
    (List.sort_uniq compare pins);
  { groups = groups_of_colors names (refine_colors names topo seed) }

let classes ?pins (net : A.network) (topo : Net.Topology.t) : partition =
  seeded_classes ~seed_of:fingerprint ?pins net topo

(* Topology-only classes: same refinement with policy-blind seeds.
   Used by {!check} to find devices whose *role* matches a group of
   peers while their policy does not. *)
let topological_classes (net : A.network) (topo : Net.Topology.t) : partition =
  seeded_classes ~seed_of:(fun _ -> "") net topo

(* -- quotient construction ---------------------------------------------------- *)

type reduction = {
  red_network : A.network;
  red_rep : (string * string) list;  (** collapsed member -> representative *)
  red_classes : (string * string list) list;
      (** representative -> full sorted class, for classes of size >= 2 *)
}

let has_ibgp (net : A.network) =
  List.exists
    (fun (d : A.device) ->
      match d.A.dev_bgp with
      | None -> false
      | Some b ->
        List.exists (fun (n : A.bgp_neighbor) -> n.A.nbr_remote_as = b.A.bgp_asn) b.A.bgp_neighbors)
    net.A.net_devices

let has_internal_static_next_hop (net : A.network) =
  let owner = A.address_index net in
  List.exists
    (fun (d : A.device) ->
      List.exists
        (fun (s : A.static_route) ->
          match s.A.st_next_hop with
          | Some ip -> owner ip <> None
          | None -> false)
        d.A.dev_statics)
    net.A.net_devices

(* Remove configuration referring to deleted devices: interfaces whose
   link peer is gone, and BGP sessions whose neighbor address belongs
   to a gone device.  Without this rewriting a dangling neighbor IP
   would be re-interpreted by the encoder as a symbolic *external*
   peer — a different network, not a smaller one.  [owner] is
   [A.device_of_ip net], indexed ({!A.address_index}). *)
let filter_device (net : A.network) owner keep (dev : A.device) =
  let topo = net.A.net_topology in
  let kept_iface (i : A.interface) =
    match Net.Topology.peer topo dev.A.dev_name i.A.if_name with
    | Some (peer, _) -> keep peer
    | None -> true (* host-facing or external-facing: no internal link *)
  in
  let bgp =
    Option.map
      (fun (b : A.bgp_config) ->
        {
          b with
          A.bgp_neighbors =
            List.filter
              (fun (n : A.bgp_neighbor) ->
                match owner n.A.nbr_ip with
                | Some d -> keep d.A.dev_name
                | None -> true)
              b.A.bgp_neighbors;
        })
      dev.A.dev_bgp
  in
  { dev with A.dev_interfaces = List.filter kept_iface dev.A.dev_interfaces; dev_bgp = bgp }

(* Pick one representative per class such that representatives of
   quotient-adjacent classes are themselves adjacent in the concrete
   topology (so the induced subnetwork has an edge wherever the
   quotient graph does).  Greedy repair: while some adjacent class
   pair has non-adjacent representatives, re-pick the representative
   of one side to maximize coverage.  Fat-tree partitions converge on
   the first pass; if the loop cannot reach a consistent choice the
   caller bails out to the full encoding. *)
let choose_representatives (topo : Net.Topology.t) (groups : string list list) =
  let class_of : (string, int) Hashtbl.t = Hashtbl.create 64 in
  List.iteri (fun i members -> List.iter (fun m -> Hashtbl.replace class_of m i) members) groups;
  let garr = Array.of_list groups in
  let n = Array.length garr in
  let neighbors_of d =
    List.filter_map
      (fun (_, p, _) -> Hashtbl.find_opt class_of p)
      (Net.Topology.neighbors topo d)
  in
  (* quotient adjacency *)
  let adj = Array.make_matrix n n false in
  Array.iteri
    (fun i members ->
      List.iter (fun m -> List.iter (fun j -> adj.(i).(j) <- true) (neighbors_of m)) members)
    garr;
  let rep = Array.map List.hd garr in
  let linked a b =
    List.exists (fun (_, p, _) -> p = b) (Net.Topology.neighbors topo a)
  in
  let ok i =
    let r = rep.(i) in
    let good = ref true in
    for j = 0 to n - 1 do
      if i <> j && adj.(i).(j) && not (linked r rep.(j)) then good := false
    done;
    !good
  in
  let coverage i m =
    let c = ref 0 in
    for j = 0 to n - 1 do
      if i <> j && adj.(i).(j) && linked m rep.(j) then incr c
    done;
    !c
  in
  let improved = ref true in
  let passes = ref 0 in
  while !improved && !passes < n + 2 do
    improved := false;
    incr passes;
    for i = 0 to n - 1 do
      if not (ok i) then begin
        let best =
          List.fold_left
            (fun (bm, bc) m ->
              let c = coverage i m in
              if c > bc then (m, c) else (bm, bc))
            (rep.(i), coverage i rep.(i))
            garr.(i)
        in
        if fst best <> rep.(i) then begin
          rep.(i) <- fst best;
          improved := true
        end
      end
    done
  done;
  let all_ok = ref true in
  for i = 0 to n - 1 do
    if not (ok i) then all_ok := false
  done;
  if !all_ok then Some (Array.to_list (Array.mapi (fun i r -> (garr.(i), r)) rep)) else None

let reduce ?(pins = []) (net : A.network) : reduction option =
  let topo = net.A.net_topology in
  let { groups } = classes ~pins net topo in
  let nontrivial = List.exists (fun g -> List.length g >= 2) groups in
  if (not nontrivial) || has_ibgp net || has_internal_static_next_hop net then None
  else begin
    (* an edge inside a class (e.g. a ring of identical routers) cannot
       be represented by deleting the neighbor: bail out *)
    let class_of : (string, int) Hashtbl.t = Hashtbl.create 64 in
    List.iteri (fun i ms -> List.iter (fun m -> Hashtbl.replace class_of m i) ms) groups;
    let intra_class_edge =
      List.exists
        (fun (l : Net.Topology.link) ->
          match
            (Hashtbl.find_opt class_of l.Net.Topology.a.Net.Topology.device,
             Hashtbl.find_opt class_of l.Net.Topology.b.Net.Topology.device)
          with
          | Some i, Some j -> i = j
          | _ -> false)
        (Net.Topology.links topo)
    in
    (* refinement invariant, checked defensively: every member of a
       class has at least one neighbor in each quotient-adjacent class *)
    let neighbor_classes d =
      List.sort_uniq compare
        (List.filter_map
           (fun (_, p, _) -> Hashtbl.find_opt class_of p)
           (Net.Topology.neighbors topo d))
    in
    let uniform_adjacency =
      List.for_all
        (fun members ->
          match members with
          | [] | [ _ ] -> true
          | m0 :: rest ->
            let sig0 = neighbor_classes m0 in
            List.for_all (fun m -> neighbor_classes m = sig0) rest)
        groups
    in
    if intra_class_edge || not uniform_adjacency then None
    else
      match choose_representatives topo groups with
      | None -> None
      | Some chosen ->
        let rep_of : (string, string) Hashtbl.t = Hashtbl.create 64 in
        List.iter
          (fun (members, r) -> List.iter (fun m -> Hashtbl.replace rep_of m r) members)
          chosen;
        let keep d = match Hashtbl.find_opt rep_of d with Some r -> r = d | None -> true in
        let owner = A.address_index net in
        let q_devices =
          List.filter_map
            (fun (d : A.device) ->
              if keep d.A.dev_name then Some (filter_device net owner keep d) else None)
            net.A.net_devices
        in
        let q_topo = Net.Topology.restrict topo ~keep in
        let red_rep =
          List.concat_map
            (fun (members, r) -> List.filter_map (fun m -> if m <> r then Some (m, r) else None) members)
            chosen
          |> List.sort compare
        in
        let red_classes =
          List.filter_map
            (fun (members, r) -> if List.length members >= 2 then Some (r, members) else None)
            chosen
          |> List.sort compare
        in
        Some
          {
            red_network = { A.net_devices = q_devices; net_topology = q_topo };
            red_rep;
            red_classes;
          }
  end

(* -- asymmetry diagnostics (MS-W401) ------------------------------------------ *)

(* Devices refinement *nearly* merges: inside one topological class
   (role twins), group members by policy fingerprint; when a strict
   plurality of at least two devices agrees on one fingerprint and the
   class has at least three members, each dissenting device is exactly
   the "one ToR differs from its 47 siblings" shape operators care
   about.  The thresholds keep the code quiet on small hand-written
   networks where two topologically-paired devices legitimately run
   different policies. *)
let check (net : A.network) : D.t list =
  let topo = net.A.net_topology in
  let dev_tbl : (string, A.device) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun (d : A.device) -> Hashtbl.replace dev_tbl d.A.dev_name d) net.A.net_devices;
  let { groups } = topological_classes net topo in
  List.concat_map
    (fun members ->
      if List.length members < 3 then []
      else begin
        let with_fp =
          List.map
            (fun m ->
              let dev = Hashtbl.find dev_tbl m in
              (m, dev, sections dev))
            members
        in
        let fp_of secs = String.concat "\n" (List.map (fun (n, s) -> n ^ ":" ^ s) secs) in
        let counts : (string, int) Hashtbl.t = Hashtbl.create 8 in
        List.iter
          (fun (_, _, secs) ->
            let fp = fp_of secs in
            Hashtbl.replace counts fp (1 + Option.value ~default:0 (Hashtbl.find_opt counts fp)))
          with_fp;
        let ranked =
          Hashtbl.fold (fun fp n acc -> (fp, n) :: acc) counts []
          |> List.sort (fun (_, a) (_, b) -> compare (b : int) a)
        in
        match ranked with
        | (maj_fp, maj_n) :: (_, n2) :: _ when maj_n >= 2 && n2 < maj_n ->
          (* a unique plurality policy with at least one dissenter *)
          let exemplar_name, _, maj_secs =
            List.find (fun (_, _, secs) -> fp_of secs = maj_fp) with_fp
          in
          List.filter_map
            (fun (m, _, secs) ->
              if fp_of secs = maj_fp then None
              else begin
                let differing =
                  List.filter_map
                    (fun ((name, s), (_, s')) -> if s <> s' then Some name else None)
                    (List.combine secs maj_secs)
                in
                Some
                  (D.make ~code:"MS-W401" ~severity:D.Warning ~device:m
                     ~obj:(Printf.sprintf "sections: %s" (String.concat ", " differing))
                     "device plays the same topological role as %d peer(s) (e.g. %s) but its policy differs: near-symmetry broken"
                     (maj_n) exemplar_name)
              end)
            with_fp
        | _ -> []
      end)
    groups
