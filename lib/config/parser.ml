type error = { line : int; col : int; token : string option; message : string }

exception Parse_error of error

let error_to_string ?file (e : error) =
  let pos =
    match file with
    | Some f -> Printf.sprintf "%s:%d" f e.line
    | None -> Printf.sprintf "line %d" e.line
  in
  let pos = if e.col > 0 then Printf.sprintf "%s:%d" pos e.col else pos in
  let near = match e.token with Some t -> Printf.sprintf " (near %S)" t | None -> "" in
  Printf.sprintf "%s: %s%s" pos e.message near

let fail ?(col = 0) ?token line fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { line; col; token; message })) fmt

(* 1-based column of the first occurrence of [tok] in [raw]; 0 when not
   found (e.g. the line was rewritten by trimming). *)
let column_of raw tok =
  let n = String.length raw and m = String.length tok in
  let rec go i = if i + m > n then 0 else if String.sub raw i m = tok then i + 1 else go (i + 1) in
  if m = 0 then 0 else go 0

let tokens_of_line l =
  String.split_on_char ' ' l |> List.filter (fun t -> t <> "")

(* Accept both "10.0.0.0/24" and "10.0.0.0 255.255.255.0". *)
let prefix_of ~line addr rest =
  match Net.Prefix.of_string_opt addr with
  | Some p -> (p, rest)
  | None ->
    (match rest with
     | mask :: rest' ->
       (match (Net.Ipv4.of_string_opt addr, Net.Ipv4.of_string_opt mask) with
        | Some ip, Some m ->
          (* netmask to length; must be contiguous *)
          let rec len bit acc =
            if bit < 0 then acc
            else if (m lsr bit) land 1 = 1 then len (bit - 1) (acc + 1)
            else acc
          in
          let l = len 31 0 in
          let expected = if l = 0 then 0 else (Net.Ipv4.max lsr (32 - l)) lsl (32 - l) in
          if m <> expected then fail line "non-contiguous netmask %s" mask
          else (Net.Prefix.make ip l, rest')
        | _ -> fail line "bad prefix %s" addr)
     | [] -> fail line "bad prefix %s" addr)

(* Wildcard form used by access-lists: "172.10.1.0 0.0.0.255". *)
let wildcard_prefix ~line addr wild =
  match (Net.Ipv4.of_string_opt addr, Net.Ipv4.of_string_opt wild) with
  | Some ip, Some w ->
    let rec len bit acc =
      if bit < 0 then acc else if (w lsr bit) land 1 = 0 then len (bit - 1) (acc + 1) else acc
    in
    let l = len 31 0 in
    let expected = if l = 32 then 0 else Net.Ipv4.max lsr l in
    if w <> expected then fail line "non-contiguous wildcard %s" wild
    else Net.Prefix.make ip l
  | _ -> fail line "bad wildcard address %s %s" addr wild

let int_of ~line s what =
  match int_of_string_opt s with Some n -> n | None -> fail line "bad %s: %s" what s

let ip_of ~line s =
  match Net.Ipv4.of_string_opt s with Some ip -> ip | None -> fail line "bad address: %s" s

let action_of ~line = function
  | "permit" -> Ast.Permit
  | "deny" -> Ast.Deny
  | s -> fail line "expected permit/deny, got %s" s

(* -- builder state ------------------------------------------------------------ *)

type iface_b = {
  mutable ib_prefix : Net.Prefix.t option;
  mutable ib_ip : Net.Ipv4.t option;
  mutable ib_acl_in : string option;
  mutable ib_acl_out : string option;
  mutable ib_cost : int;
}

type context =
  | Top
  | In_interface of string * iface_b
  | In_bgp
  | In_ospf
  | In_route_map of string * int * Ast.action

type device_b = {
  db_name : string;
  mutable db_interfaces : Ast.interface list;
  mutable db_prefix_lists : (string * Ast.prefix_list_entry list) list;  (* reversed entries *)
  mutable db_route_maps : (string * Ast.rm_clause list) list;  (* reversed clauses *)
  mutable db_acls : (string * Ast.acl_entry list) list;
  mutable db_bgp : Ast.bgp_config option;
  mutable db_ospf : Ast.ospf_config option;
  mutable db_statics : Ast.static_route list;
  mutable db_rm_matches : Ast.match_cond list;  (* current clause, reversed *)
  mutable db_rm_sets : Ast.set_action list;
}

let new_device_b name =
  {
    db_name = name;
    db_interfaces = [];
    db_prefix_lists = [];
    db_route_maps = [];
    db_acls = [];
    db_bgp = None;
    db_ospf = None;
    db_statics = [];
    db_rm_matches = [];
    db_rm_sets = [];
  }

let append_assoc key value assoc =
  let rec go = function
    | [] -> [ (key, [ value ]) ]
    | (k, vs) :: rest when k = key -> (k, value :: vs) :: rest
    | kv :: rest -> kv :: go rest
  in
  go assoc

let flush_context b ctx =
  match ctx with
  | Top | In_bgp | In_ospf -> ()
  | In_interface (name, ib) ->
    b.db_interfaces <-
      b.db_interfaces
      @ [
          {
            Ast.if_name = name;
            if_prefix = ib.ib_prefix;
            if_ip = ib.ib_ip;
            if_acl_in = ib.ib_acl_in;
            if_acl_out = ib.ib_acl_out;
            if_cost = ib.ib_cost;
          };
        ]
  | In_route_map (name, seq, action) ->
    let clause =
      {
        Ast.rm_seq = seq;
        rm_action = action;
        rm_matches = List.rev b.db_rm_matches;
        rm_sets = List.rev b.db_rm_sets;
      }
    in
    b.db_rm_matches <- [];
    b.db_rm_sets <- [];
    b.db_route_maps <- append_assoc name clause b.db_route_maps

let finish_device b =
  {
    Ast.dev_name = b.db_name;
    dev_interfaces = b.db_interfaces;
    dev_prefix_lists =
      List.map
        (fun (name, entries) -> { Ast.pl_name = name; pl_entries = List.rev entries })
        b.db_prefix_lists;
    dev_route_maps =
      List.map
        (fun (name, clauses) ->
          let sorted =
            List.sort (fun a b -> compare a.Ast.rm_seq b.Ast.rm_seq) (List.rev clauses)
          in
          { Ast.rm_name = name; rm_clauses = sorted })
        b.db_route_maps;
    dev_acls =
      List.map (fun (name, entries) -> { Ast.acl_name = name; acl_entries = List.rev entries })
        b.db_acls;
    dev_bgp = b.db_bgp;
    dev_ospf = b.db_ospf;
    dev_statics = List.rev b.db_statics;
  }

let require_bgp ~line b =
  match b.db_bgp with Some c -> c | None -> fail line "not inside router bgp"

let require_ospf ~line b =
  match b.db_ospf with Some c -> c | None -> fail line "not inside router ospf"

let update_neighbor bgp ip f =
  let found = ref false in
  let neighbors =
    List.map
      (fun (n : Ast.bgp_neighbor) ->
        if Net.Ipv4.equal n.nbr_ip ip then begin
          found := true;
          f n
        end
        else n)
      bgp.Ast.bgp_neighbors
  in
  let neighbors =
    if !found then neighbors
    else
      neighbors
      @ [
          f
            {
              Ast.nbr_ip = ip;
              nbr_remote_as = 0;
              nbr_rm_in = None;
              nbr_rm_out = None;
              nbr_rr_client = false;
            };
        ]
  in
  { bgp with Ast.bgp_neighbors = neighbors }

(* -- main dispatcher ------------------------------------------------------------ *)

type net_b = {
  mutable devices : Ast.device list;
  mutable links : (string * string * string * string) list;
  mutable explicit : bool;  (* a [topology explicit] line: no inferred links *)
}

let parse_lines text ~(on_unknown_hostname : [ `Implicit | `Error ]) =
  let net = { devices = []; links = []; explicit = false } in
  let device = ref None in
  let ctx = ref Top in
  let get_device line =
    match !device with
    | Some b -> b
    | None ->
      (match on_unknown_hostname with
       | `Implicit ->
         let b = new_device_b "device" in
         device := Some b;
         b
       | `Error -> fail line "configuration before hostname")
  in
  let flush_device () =
    match !device with
    | None -> ()
    | Some b ->
      flush_context b !ctx;
      ctx := Top;
      net.devices <- net.devices @ [ finish_device b ];
      device := None
  in
  let handle line raw toks =
    let b () = get_device line in
    match (!ctx, toks) with
    | _, [] -> ()
    | _, "!" :: _ ->
      (match !device with
       | Some b ->
         flush_context b !ctx;
         ctx := Top
       | None -> ())
    | _, [ "hostname"; name ] ->
      flush_device ();
      device := Some (new_device_b name)
    | _, [ "link"; d1; i1; d2; i2 ] -> net.links <- (d1, i1, d2, i2) :: net.links
    | _, [ "topology"; "explicit" ] -> net.explicit <- true
    | _, "interface" :: [ name ] ->
      let b = b () in
      flush_context b !ctx;
      ctx :=
        In_interface
          (name, { ib_prefix = None; ib_ip = None; ib_acl_in = None; ib_acl_out = None; ib_cost = 1 })
    | _, "router" :: "bgp" :: [ asn ] ->
      let b = b () in
      flush_context b !ctx;
      if b.db_bgp = None then b.db_bgp <- Some (Ast.empty_bgp (int_of ~line asn "ASN"));
      ctx := In_bgp
    | _, "router" :: "ospf" :: _ ->
      let b = b () in
      flush_context b !ctx;
      if b.db_ospf = None then b.db_ospf <- Some Ast.empty_ospf;
      ctx := In_ospf
    | _, [ "route-map"; name; act; seq ] ->
      let b = b () in
      flush_context b !ctx;
      ctx := In_route_map (name, int_of ~line seq "sequence number", action_of ~line act)
    | _, "ip" :: "prefix-list" :: name :: act :: rest ->
      let b = b () in
      let act = action_of ~line act in
      let entry =
        match rest with
        | pfx :: rest ->
          let p, rest = prefix_of ~line pfx rest in
          let rec opts ge le = function
            | "ge" :: n :: rest -> opts (Some (int_of ~line n "ge")) le rest
            | "le" :: n :: rest -> opts ge (Some (int_of ~line n "le")) rest
            | [] -> (ge, le)
            | t :: _ -> fail line "unexpected token %s in prefix-list" t
          in
          let ge, le = opts None None rest in
          { Ast.pl_action = act; pl_prefix = p; pl_ge = ge; pl_le = le }
        | [] ->
          (* bare permit/deny matches everything *)
          {
            Ast.pl_action = act;
            pl_prefix = Net.Prefix.make Net.Ipv4.zero 0;
            pl_ge = Some 0;
            pl_le = Some 32;
          }
      in
      b.db_prefix_lists <- append_assoc name entry b.db_prefix_lists
    | _, "access-list" :: name :: act :: "ip" :: rest ->
      let b = b () in
      let act = action_of ~line act in
      let dst =
        match rest with
        | [ "any"; "any" ] | [ "any" ] -> Net.Prefix.make Net.Ipv4.zero 0
        | [ "any"; addr; wild ] -> wildcard_prefix ~line addr wild
        | [ "any"; pfx ] ->
          let p, _ = prefix_of ~line pfx [] in
          p
        | [ addr; wild ] -> wildcard_prefix ~line addr wild
        | [ pfx ] ->
          let p, _ = prefix_of ~line pfx [] in
          p
        | _ -> fail line "unsupported access-list form"
      in
      b.db_acls <- append_assoc name { Ast.acl_action = act; acl_dst = dst } b.db_acls
    | _, "ip" :: "route" :: pfx :: rest ->
      let b = b () in
      let p, rest = prefix_of ~line pfx rest in
      let st =
        match rest with
        | [ hop ] ->
          (match Net.Ipv4.of_string_opt hop with
           | Some ip -> { Ast.st_prefix = p; st_next_hop = Some ip; st_interface = None }
           | None -> { Ast.st_prefix = p; st_next_hop = None; st_interface = Some hop })
        | _ -> fail line "bad static route"
      in
      b.db_statics <- st :: b.db_statics
    (* ---- interface context ---- *)
    | In_interface (_, ib), "ip" :: "address" :: addr :: rest ->
      (match Net.Prefix.of_string_opt addr with
       | Some _ ->
         (* slash notation carries both the host address and the length *)
         (match String.index_opt addr '/' with
          | Some i ->
            let host = String.sub addr 0 i in
            let len = int_of ~line (String.sub addr (i + 1) (String.length addr - i - 1)) "length" in
            let ip = ip_of ~line host in
            ib.ib_ip <- Some ip;
            ib.ib_prefix <- Some (Net.Prefix.make ip len)
          | None -> assert false)
       | None ->
         let ip = ip_of ~line addr in
         let p, _ = prefix_of ~line addr rest in
         ib.ib_ip <- Some ip;
         ib.ib_prefix <- Some p)
    | In_interface (_, ib), [ "ip"; "access-group"; name; dir ] ->
      (match dir with
       | "in" -> ib.ib_acl_in <- Some name
       | "out" -> ib.ib_acl_out <- Some name
       | _ -> fail line "expected in/out")
    | In_interface (_, ib), [ "ip"; "ospf"; "cost"; n ] -> ib.ib_cost <- int_of ~line n "cost"
    (* ---- bgp context ---- *)
    | In_bgp, [ "bgp"; "router-id"; ip ] ->
      let b = b () in
      let c = require_bgp ~line b in
      b.db_bgp <- Some { c with Ast.bgp_router_id = Some (ip_of ~line ip) }
    | In_bgp, [ "network"; pfx ] ->
      let b = b () in
      let c = require_bgp ~line b in
      let p, _ = prefix_of ~line pfx [] in
      b.db_bgp <- Some { c with Ast.bgp_networks = c.Ast.bgp_networks @ [ p ] }
    | In_bgp, [ "maximum-paths"; _n ] ->
      let b = b () in
      let c = require_bgp ~line b in
      b.db_bgp <- Some { c with Ast.bgp_multipath = true }
    | In_bgp, "aggregate-address" :: pfx :: rest ->
      let b = b () in
      let c = require_bgp ~line b in
      let p, rest = prefix_of ~line pfx rest in
      let summary_only = rest = [ "summary-only" ] in
      b.db_bgp <- Some { c with Ast.bgp_aggregates = c.Ast.bgp_aggregates @ [ (p, summary_only) ] }
    | In_bgp, "redistribute" :: proto :: rest ->
      let b = b () in
      let c = require_bgp ~line b in
      (match Ast.protocol_of_string proto with
       | None -> fail line "unknown protocol %s" proto
       | Some pr ->
         let metric =
           match rest with
           | [ "metric"; n ] -> Some (int_of ~line n "metric")
           | [] -> None
           | _ -> fail line "bad redistribute"
         in
         b.db_bgp <-
           Some
             {
               c with
               Ast.bgp_redistribute = c.Ast.bgp_redistribute @ [ { Ast.rd_from = pr; rd_metric = metric } ];
             })
    | In_bgp, "neighbor" :: ip :: rest ->
      let b = b () in
      let c = require_bgp ~line b in
      let ip = ip_of ~line ip in
      let c =
        match rest with
        | [ "remote-as"; asn ] ->
          let asn = int_of ~line asn "ASN" in
          update_neighbor c ip (fun n -> { n with Ast.nbr_remote_as = asn })
        | [ "route-map"; name; "in" ] -> update_neighbor c ip (fun n -> { n with Ast.nbr_rm_in = Some name })
        | [ "route-map"; name; "out" ] ->
          update_neighbor c ip (fun n -> { n with Ast.nbr_rm_out = Some name })
        | [ "route-reflector-client" ] ->
          update_neighbor c ip (fun n -> { n with Ast.nbr_rr_client = true })
        | _ -> fail line "bad neighbor command"
      in
      b.db_bgp <- Some c
    (* ---- ospf context ---- *)
    | In_ospf, "network" :: pfx :: rest ->
      let b = b () in
      let c = require_ospf ~line b in
      let p, rest = prefix_of ~line pfx rest in
      (match rest with
       | [] | [ "area"; _ ] ->
         b.db_ospf <- Some { c with Ast.ospf_networks = c.Ast.ospf_networks @ [ p ] }
       | _ -> fail line "bad ospf network")
    | In_ospf, "redistribute" :: proto :: rest ->
      let b = b () in
      let c = require_ospf ~line b in
      (match Ast.protocol_of_string proto with
       | None -> fail line "unknown protocol %s" proto
       | Some pr ->
         let metric =
           match rest with
           | [ "metric"; n ] -> Some (int_of ~line n "metric")
           | [] -> None
           | _ -> fail line "bad redistribute"
         in
         b.db_ospf <-
           Some
             {
               c with
               Ast.ospf_redistribute =
                 c.Ast.ospf_redistribute @ [ { Ast.rd_from = pr; rd_metric = metric } ];
             })
    (* ---- route-map context ---- *)
    | In_route_map _, [ "match"; "ip"; "address"; "prefix-list"; name ] ->
      (b ()).db_rm_matches <- Ast.Match_prefix_list name :: (b ()).db_rm_matches
    | In_route_map _, [ "match"; "community"; comm ] ->
      (match Net.Community.of_string_opt comm with
       | Some c -> (b ()).db_rm_matches <- Ast.Match_community c :: (b ()).db_rm_matches
       | None -> fail line "bad community %s" comm)
    | In_route_map _, [ "set"; "local-preference"; n ] ->
      (b ()).db_rm_sets <- Ast.Set_local_pref (int_of ~line n "local-preference") :: (b ()).db_rm_sets
    | In_route_map _, [ "set"; "metric"; n ] ->
      (b ()).db_rm_sets <- Ast.Set_metric (int_of ~line n "metric") :: (b ()).db_rm_sets
    | In_route_map _, [ "set"; "med"; n ] ->
      (b ()).db_rm_sets <- Ast.Set_med (int_of ~line n "med") :: (b ()).db_rm_sets
    | In_route_map _, "set" :: "community" :: comm :: rest ->
      (match Net.Community.of_string_opt comm with
       | Some c when rest = [] || rest = [ "additive" ] ->
         (b ()).db_rm_sets <- Ast.Set_community c :: (b ()).db_rm_sets
       | _ -> fail line "bad set community")
    | In_route_map _, [ "delete"; "community"; comm ] ->
      (match Net.Community.of_string_opt comm with
       | Some c -> (b ()).db_rm_sets <- Ast.Delete_community c :: (b ()).db_rm_sets
       | None -> fail line "bad community %s" comm)
    | _, tok :: _ ->
      fail line ~col:(column_of raw tok) ~token:tok "unknown or misplaced command"
  in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i l ->
      let trimmed = String.trim l in
      handle (i + 1) l (tokens_of_line trimmed))
    lines;
  flush_device ();
  net

(* Two interfaces of one device in the same subnet would pair up below
   as a link from the device to itself; reject the configuration with a
   lint-grade message instead. *)
let check_no_self_subnets devices =
  List.iter
    (fun (d : Ast.device) ->
      let rec go = function
        | [] -> ()
        | (i1 : Ast.interface) :: rest ->
          (match i1.Ast.if_prefix with
           | Some p1 ->
             (match
                List.find_opt
                  (fun (i2 : Ast.interface) ->
                    match i2.Ast.if_prefix with
                    | Some p2 -> Net.Prefix.equal p1 p2
                    | None -> false)
                  rest
              with
              | Some i2 ->
                fail 0 "device %s: interfaces %s and %s share subnet %s" d.Ast.dev_name
                  i1.Ast.if_name i2.Ast.if_name (Net.Prefix.to_string p1)
              | None -> ())
           | None -> ());
          go rest
      in
      go d.Ast.dev_interfaces)
    devices

(* Link interfaces that share a connected subnet but have different
   IPs.  Endpoints are grouped by subnet, and each pairs with the later
   members of its group, so the links come out in the order a pairwise
   scan of the endpoints (device by device, interface by interface)
   would find them. *)
let inferred_links devices =
  check_no_self_subnets devices;
  let endpoints =
    List.concat_map
      (fun (d : Ast.device) ->
        List.filter_map
          (fun (i : Ast.interface) ->
            match (i.Ast.if_prefix, i.Ast.if_ip) with
            | Some p, Some ip -> Some (d.Ast.dev_name, i.Ast.if_name, p, ip)
            | _ -> None)
          d.Ast.dev_interfaces)
      devices
  in
  (* subnet -> its endpoints not yet visited, in endpoint order *)
  let pending : (Net.Prefix.t, (string * string * Net.Ipv4.t) list) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun (d, i, p, ip) ->
      Hashtbl.replace pending p
        ((d, i, ip) :: Option.value ~default:[] (Hashtbl.find_opt pending p)))
    (List.rev endpoints);
  List.concat_map
    (fun (d1, i1, p, ip1) ->
      let later = List.tl (Hashtbl.find pending p) in
      Hashtbl.replace pending p later;
      List.filter_map
        (fun (d2, i2, ip2) ->
          if d2 <> d1 && not (Net.Ipv4.equal ip1 ip2) then
            Some
              { Net.Topology.a = { device = d1; interface = i1 }; b = { device = d2; interface = i2 } }
          else None)
        later)
    endpoints

let with_devices topo (devices : Ast.device list) =
  List.fold_left (fun t (d : Ast.device) -> Net.Topology.add_device t d.Ast.dev_name) topo devices

let infer_topology devices = with_devices (Net.Topology.of_links (inferred_links devices)) devices

let parse_device text =
  let net = parse_lines text ~on_unknown_hostname:`Implicit in
  match net.devices with
  | [ d ] -> d
  | [] -> fail 0 "empty configuration"
  | _ -> fail 0 "multiple devices in parse_device"

let parse_network text =
  let net = parse_lines text ~on_unknown_hostname:`Error in
  (* [net.links] is newest first: explicit links follow the inferred
     ones in that order *)
  let explicit =
    List.map
      (fun (d1, i1, d2, i2) ->
        { Net.Topology.a = { device = d1; interface = i1 }; b = { device = d2; interface = i2 } })
      net.links
  in
  let inferred = inferred_links net.devices in
  (* Under [topology explicit] the links are exactly the [link] lines;
     those inference would also find keep the place and orientation it
     gives them, so a file declaring every link inference finds parses
     to the topology, in order, that it gives without the line. *)
  let inferred =
    if not net.explicit then inferred
    else begin
      let declared = Hashtbl.create 64 in
      List.iter
        (fun (l : Net.Topology.link) ->
          Hashtbl.replace declared (l.a, l.b) ();
          Hashtbl.replace declared (l.b, l.a) ())
        explicit;
      List.filter (fun (l : Net.Topology.link) -> Hashtbl.mem declared (l.a, l.b)) inferred
    end
  in
  let topo = Net.Topology.of_links (inferred @ explicit) in
  { Ast.net_devices = net.devices; net_topology = with_devices topo net.devices }
