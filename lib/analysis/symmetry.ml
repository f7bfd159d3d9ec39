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
   policy, not naming.  [blocks] indexes the device's interface
   prefixes by (network, length) key to their first interface position,
   and [lengths] lists the distinct lengths, so finding the block that
   contains an address costs one lookup per length instead of a scan
   of the interface list. *)
module Itbl = Hashtbl.Make (Int)

type abstr = {
  mutable next : int;
  addrs : int Itbl.t;  (* address-block base or raw IP -> index *)
  mutable next_as : int;
  asns : int Itbl.t;
  blocks : int Itbl.t;
  lengths : int list;
}

let block_key network length = (network lsl 6) lor length

let new_abstr (ifaces : A.interface list) =
  let blocks = Itbl.create 16 in
  let lengths = ref [] in
  List.iteri
    (fun pos (i : A.interface) ->
      match i.A.if_prefix with
      | Some p ->
        let key = block_key (P.network p) (P.length p) in
        if not (Itbl.mem blocks key) then Itbl.add blocks key pos;
        if not (List.mem (P.length p) !lengths) then lengths := P.length p :: !lengths
      | None -> ())
    ifaces;
  { next = 0; addrs = Itbl.create 16; next_as = 0; asns = Itbl.create 4; blocks; lengths = !lengths }

let addr_id ab v =
  match Itbl.find_opt ab.addrs v with
  | Some i -> i
  | None ->
    let i = ab.next in
    ab.next <- i + 1;
    Itbl.replace ab.addrs v i;
    i

let as_id ab v =
  match Itbl.find_opt ab.asns v with
  | Some i -> i
  | None ->
    let i = ab.next_as in
    ab.next_as <- i + 1;
    Itbl.replace ab.asns v i;
    i

(* The serialization writes straight into one buffer: formatting each
   token through [Printf] dominated the fingerprint's cost, and
   [string_of_int] goes through the same runtime format code, so
   integers are written digit by digit.  Every byte must match the
   format strings this replaced ("p%d/%d", "i%d+%d", "%b", ...),
   because fingerprints seed the quotient's classes and MS-W401
   compares the section strings. *)
let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let add_int b n =
  if n >= 0 then add_digits b n
  else if n = min_int then Buffer.add_string b (string_of_int n)
  else begin
    Buffer.add_char b '-';
    add_digits b (-n)
  end

let add_bool b v = Buffer.add_string b (if v then "true" else "false")

let add_prefix b ab (p : P.t) =
  Buffer.add_char b 'p';
  add_int b (addr_id ab (P.network p));
  Buffer.add_char b '/';
  add_int b (P.length p)

(* An IP inside one of the device's connected subnets is named relative
   to that block ("third address of block 2"): [In_block (id, offset)]
   for the first interface (in configuration order) whose prefix
   contains it.  Anything else gets its own first-occurrence index.
   Resolving assigns the ids, so a caller that writes an address
   after another token but numbered it first resolves it early. *)
type ip_ref = In_block of int * int | Addr of int

let resolve_ip ab ip =
  let best =
    List.fold_left
      (fun best len ->
        let network = ip land P.mask_of_length len in
        match Itbl.find_opt ab.blocks (block_key network len) with
        | Some pos when (match best with Some (bpos, _) -> pos < bpos | None -> true) ->
          Some (pos, network)
        | Some _ | None -> best)
      None ab.lengths
  in
  match best with
  | Some (_, network) -> In_block (addr_id ab network, ip - network)
  | None -> Addr (addr_id ab ip)

let add_ip_ref b = function
  | In_block (id, off) ->
    Buffer.add_char b 'i';
    add_int b id;
    Buffer.add_char b '+';
    add_int b off
  | Addr id ->
    Buffer.add_char b 'a';
    add_int b id

let add_ip b ab ip = add_ip_ref b (resolve_ip ab ip)

let action_token = function A.Permit -> "permit" | A.Deny -> "deny"

let add_int_opt b = function None -> Buffer.add_char b '-' | Some n -> add_int b n
let add_name_opt b o = Buffer.add_string b (Option.value ~default:"-" o)

(* One serialized section per configuration area, sharing the
   abstraction tables in a fixed order.  The per-section strings feed
   both the digest and the MS-W401 "which sections differ" message.
   Ids are numbered in first-occurrence order of resolution, and on an
   interface line and a static route the address is resolved before
   the prefix: the order the recorded fingerprints were made with. *)
let sections (dev : A.device) : (string * string) list =
  let ifaces = dev.A.dev_interfaces in
  let ab = new_abstr ifaces in
  let b = Buffer.create 512 in
  let str = Buffer.add_string b in
  let take () =
    let s = Buffer.contents b in
    Buffer.clear b;
    s
  in
  List.iter
    (fun (i : A.interface) ->
      let ip = Option.map (resolve_ip ab) i.A.if_ip in
      str "if ";
      str i.A.if_name;
      str " ";
      (match i.A.if_prefix with Some p -> add_prefix b ab p | None -> str "-");
      str " ";
      (match ip with Some r -> add_ip_ref b r | None -> str "-");
      str " in=";
      add_name_opt b i.A.if_acl_in;
      str " out=";
      add_name_opt b i.A.if_acl_out;
      str " cost=";
      add_int b i.A.if_cost;
      str ";")
    ifaces;
  let s_ifaces = take () in
  List.iter
    (fun (pl : A.prefix_list) ->
      str "plist ";
      str pl.A.pl_name;
      str ":";
      List.iter
        (fun (e : A.prefix_list_entry) ->
          str " ";
          str (action_token e.A.pl_action);
          str " ";
          add_prefix b ab e.A.pl_prefix;
          str " ge=";
          add_int_opt b e.A.pl_ge;
          str " le=";
          add_int_opt b e.A.pl_le;
          str ";")
        pl.A.pl_entries)
    dev.A.dev_prefix_lists;
  let s_plists = take () in
  let comm prefix cm =
    str prefix;
    str (Net.Community.to_string cm)
  in
  let num prefix n =
    str prefix;
    add_int b n
  in
  List.iter
    (fun (rm : A.route_map) ->
      str "rmap ";
      str rm.A.rm_name;
      str ":";
      List.iter
        (fun (c : A.rm_clause) ->
          num " " c.A.rm_seq;
          str " ";
          str (action_token c.A.rm_action);
          List.iter
            (function
              | A.Match_prefix_list n ->
                str " match-pl=";
                str n
              | A.Match_community cm -> comm " match-comm=" cm)
            c.A.rm_matches;
          List.iter
            (function
              | A.Set_local_pref n -> num " set-lp=" n
              | A.Set_metric n -> num " set-metric=" n
              | A.Set_med n -> num " set-med=" n
              | A.Set_community cm -> comm " set-comm=" cm
              | A.Delete_community cm -> comm " del-comm=" cm)
            c.A.rm_sets;
          str ";")
        rm.A.rm_clauses)
    dev.A.dev_route_maps;
  let s_rmaps = take () in
  List.iter
    (fun (a : A.acl) ->
      str "acl ";
      str a.A.acl_name;
      str ":";
      List.iter
        (fun (e : A.acl_entry) ->
          str " ";
          str (action_token e.A.acl_action);
          str " ";
          add_prefix b ab e.A.acl_dst;
          str ";")
        a.A.acl_entries)
    dev.A.dev_acls;
  let s_acls = take () in
  let redist (r : A.redistribute) =
    str " redist=";
    str (A.protocol_to_string r.A.rd_from);
    str " metric=";
    add_int_opt b r.A.rd_metric
  in
  let nets = List.iter (fun p -> str " net="; add_prefix b ab p) in
  (match dev.A.dev_bgp with
   | None -> str "none"
   | Some bgp ->
     num "as" (as_id ab bgp.A.bgp_asn);
     str " rid=";
     (match bgp.A.bgp_router_id with Some ip -> add_ip b ab ip | None -> str "-");
     str " multipath=";
     add_bool b bgp.A.bgp_multipath;
     nets bgp.A.bgp_networks;
     List.iter
       (fun (p, so) ->
         str " aggregate=";
         add_prefix b ab p;
         str "/";
         add_bool b so)
       bgp.A.bgp_aggregates;
     List.iter redist bgp.A.bgp_redistribute;
     List.iter
       (fun (n : A.bgp_neighbor) ->
         str " nbr ";
         add_ip b ab n.A.nbr_ip;
         num " as" (as_id ab n.A.nbr_remote_as);
         str " in=";
         add_name_opt b n.A.nbr_rm_in;
         str " out=";
         add_name_opt b n.A.nbr_rm_out;
         str " rr=";
         add_bool b n.A.nbr_rr_client;
         str ";")
       bgp.A.bgp_neighbors);
  let s_bgp = take () in
  (match dev.A.dev_ospf with
   | None -> str "none"
   | Some o ->
     nets o.A.ospf_networks;
     List.iter redist o.A.ospf_redistribute);
  let s_ospf = take () in
  List.iter
    (fun (s : A.static_route) ->
      let via = Option.map (resolve_ip ab) s.A.st_next_hop in
      str "static ";
      add_prefix b ab s.A.st_prefix;
      str " via=";
      (match via with Some r -> add_ip_ref b r | None -> str "-");
      str " if=";
      add_name_opt b s.A.st_interface;
      str ";")
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

(* The sections joined into the string [fingerprint] digests. *)
let joined secs = String.concat "\n" (List.map (fun (n, s) -> n ^ ":" ^ s) secs)

let fingerprint (dev : A.device) = Digest.to_hex (Digest.string (joined (sections dev)))

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

(* [owner] is [A.device_of_ip net], indexed ({!A.address_index}). *)
let has_internal_static_next_hop (net : A.network) owner =
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
   peer — a different network, not a smaller one.  [owner] is as in
   {!has_internal_static_next_hop}. *)
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
  if (not nontrivial) || has_ibgp net then None
  else
    let owner = A.address_index net in
    if has_internal_static_next_hop net owner then None
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
              let secs = sections (Hashtbl.find dev_tbl m) in
              (m, secs, joined secs))
            members
        in
        let counts : (string, int) Hashtbl.t = Hashtbl.create 8 in
        List.iter
          (fun (_, _, fp) ->
            Hashtbl.replace counts fp (1 + Option.value ~default:0 (Hashtbl.find_opt counts fp)))
          with_fp;
        let ranked =
          Hashtbl.fold (fun fp n acc -> (fp, n) :: acc) counts []
          |> List.sort (fun (_, a) (_, b) -> compare (b : int) a)
        in
        match ranked with
        | (maj_fp, maj_n) :: (_, n2) :: _ when maj_n >= 2 && n2 < maj_n ->
          (* a unique plurality policy with at least one dissenter *)
          let exemplar_name, maj_secs, _ =
            List.find (fun (_, _, fp) -> fp = maj_fp) with_fp
          in
          List.filter_map
            (fun (m, secs, fp) ->
              if fp = maj_fp then None
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
