(* Tests for the configuration parser, printer, and semantic helpers. *)

module A = Config.Ast
module Parser = Config.Parser
module Printer = Config.Printer
module P = Net.Prefix

let sample_config =
  {|hostname R1
!
interface Ethernet0
 ip address 10.0.0.1/30
 ip access-group BLOCK in
 ip ospf cost 10
!
interface Ethernet1
 ip address 10.1.0.1/24
!
ip prefix-list L deny 192.168.0.0/16 le 32
ip prefix-list L permit 0.0.0.0/0 le 32
!
access-list BLOCK deny ip any 172.10.1.0 0.0.0.255
access-list BLOCK permit ip any any
!
route-map IMPORT permit 10
 match ip address prefix-list L
 set local-preference 120
 set community 65000:100
!
router bgp 65000
 bgp router-id 1.1.1.1
 maximum-paths 4
 network 10.1.0.0/24
 redistribute ospf metric 10
 neighbor 10.0.0.2 remote-as 65001
 neighbor 10.0.0.2 route-map IMPORT in
!
router ospf 1
 network 10.0.0.0/8 area 0
 redistribute connected
!
ip route 0.0.0.0/0 10.0.0.2
ip route 10.9.0.0/16 Null0
|}

let parse () = Parser.parse_device sample_config

let test_parse_basics () =
  let d = parse () in
  Alcotest.(check string) "hostname" "R1" d.A.dev_name;
  Alcotest.(check int) "interfaces" 2 (List.length d.A.dev_interfaces);
  let e0 = Option.get (A.find_interface d "Ethernet0") in
  Alcotest.(check string) "e0 addr" "10.0.0.0/30" (P.to_string (Option.get e0.A.if_prefix));
  Alcotest.(check string) "e0 ip" "10.0.0.1" (Net.Ipv4.to_string (Option.get e0.A.if_ip));
  Alcotest.(check (option string)) "acl in" (Some "BLOCK") e0.A.if_acl_in;
  Alcotest.(check int) "ospf cost" 10 e0.A.if_cost;
  Alcotest.(check int) "statics" 2 (List.length d.A.dev_statics)

let test_parse_bgp () =
  let d = parse () in
  let bgp = Option.get d.A.dev_bgp in
  Alcotest.(check int) "asn" 65000 bgp.A.bgp_asn;
  Alcotest.(check bool) "multipath" true bgp.A.bgp_multipath;
  Alcotest.(check int) "networks" 1 (List.length bgp.A.bgp_networks);
  Alcotest.(check int) "neighbors" 1 (List.length bgp.A.bgp_neighbors);
  let n = List.hd bgp.A.bgp_neighbors in
  Alcotest.(check int) "remote-as" 65001 n.A.nbr_remote_as;
  Alcotest.(check (option string)) "rm in" (Some "IMPORT") n.A.nbr_rm_in;
  Alcotest.(check int) "redistribute" 1 (List.length bgp.A.bgp_redistribute)

let test_parse_route_map () =
  let d = parse () in
  let rm = Option.get (A.find_route_map d "IMPORT") in
  Alcotest.(check int) "clauses" 1 (List.length rm.A.rm_clauses);
  let cl = List.hd rm.A.rm_clauses in
  Alcotest.(check int) "seq" 10 cl.A.rm_seq;
  Alcotest.(check int) "matches" 1 (List.length cl.A.rm_matches);
  Alcotest.(check int) "sets" 2 (List.length cl.A.rm_sets)

let test_parse_acl_wildcard () =
  let d = parse () in
  let acl = Option.get (A.find_acl d "BLOCK") in
  (match acl.A.acl_entries with
   | [ e1; e2 ] ->
     Alcotest.(check string) "wildcard to prefix" "172.10.1.0/24" (P.to_string e1.A.acl_dst);
     Alcotest.(check bool) "deny" true (e1.A.acl_action = A.Deny);
     Alcotest.(check int) "any" 0 (P.length e2.A.acl_dst)
   | _ -> Alcotest.fail "expected two entries");
  Alcotest.(check bool) "blocks" false (A.acl_permits acl (Net.Ipv4.of_string "172.10.1.77"));
  Alcotest.(check bool) "permits" true (A.acl_permits acl (Net.Ipv4.of_string "8.8.8.8"))

let test_prefix_list_semantics () =
  let d = parse () in
  let pl = Option.get (A.find_prefix_list d "L") in
  Alcotest.(check bool) "denied" false (A.prefix_list_permits pl (P.of_string "192.168.4.0/24"));
  Alcotest.(check bool) "permitted" true (A.prefix_list_permits pl (P.of_string "10.1.0.0/24"));
  (* ge/le semantics *)
  let entry =
    { A.pl_action = A.Permit; pl_prefix = P.of_string "10.0.0.0/8"; pl_ge = Some 24; pl_le = Some 28 }
  in
  let pl2 = { A.pl_name = "X"; pl_entries = [ entry ] } in
  Alcotest.(check bool) "inside range" true (A.prefix_list_permits pl2 (P.of_string "10.3.3.0/24"));
  Alcotest.(check bool) "too short" false (A.prefix_list_permits pl2 (P.of_string "10.3.0.0/16"));
  Alcotest.(check bool) "too long" false (A.prefix_list_permits pl2 (P.of_string "10.3.3.0/30"));
  Alcotest.(check bool) "wrong net" false (A.prefix_list_permits pl2 (P.of_string "11.3.3.0/24"))

let test_roundtrip () =
  let d = parse () in
  let printed = Printer.device_to_string d in
  let d2 = Parser.parse_device printed in
  let printed2 = Printer.device_to_string d2 in
  Alcotest.(check string) "print . parse . print fixpoint" printed printed2;
  Alcotest.(check bool) "structurally equal" true (d = d2)

let test_parse_errors () =
  let expect_error text =
    match Parser.parse_device text with
    | exception Parser.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %S" text
  in
  expect_error "hostname R1\nbanana stand\n";
  expect_error "hostname R1\ninterface e0\n ip address 10.0.0.300/24\n";
  expect_error "hostname R1\nrouter bgp notanumber\n";
  expect_error "hostname R1\nroute-map M permit ten\n";
  expect_error "hostname R1\n set local-preference 5\n"

let test_parse_error_location () =
  match Parser.parse_device "hostname R1\n  banana stand\n" with
  | exception Parser.Parse_error e ->
    Alcotest.(check int) "line" 2 e.Parser.line;
    Alcotest.(check int) "col" 3 e.Parser.col;
    Alcotest.(check (option string)) "token" (Some "banana") e.Parser.token;
    let rendered = Parser.error_to_string ~file:"net.cfg" e in
    Alcotest.(check string) "rendered" "net.cfg:2:3: unknown or misplaced command (near \"banana\")"
      rendered
  | _ -> Alcotest.fail "expected parse error"

let test_reject_shared_subnet () =
  let cfg =
    "hostname R1\ninterface e0\n ip address 10.0.0.1/24\ninterface e1\n ip address 10.0.0.2/24\n"
  in
  match Parser.parse_network cfg with
  | exception Parser.Parse_error e ->
    Alcotest.(check bool) "mentions subnet" true
      (Str.string_match (Str.regexp ".*share subnet 10\\.0\\.0\\.0/24.*") e.Parser.message 0)
  | _ -> Alcotest.fail "expected shared-subnet rejection"

let two_device_config =
  {|hostname A
interface e0
 ip address 192.168.12.1/30
router ospf 1
 network 192.168.0.0/16
!
hostname B
interface e0
 ip address 192.168.12.2/30
router ospf 1
 network 192.168.0.0/16
|}

let test_network_inference () =
  let net = Parser.parse_network two_device_config in
  Alcotest.(check int) "devices" 2 (List.length net.A.net_devices);
  Alcotest.(check int) "links" 1 (Net.Topology.num_links net.A.net_topology);
  match Net.Topology.peer net.A.net_topology "A" "e0" with
  | Some (d, _) -> Alcotest.(check string) "peer" "B" d
  | None -> Alcotest.fail "inferred link missing"

let test_config_lines () =
  let d = parse () in
  Alcotest.(check bool) "line count positive" true (Printer.config_lines d > 20)

(* Round-trip property over the synthetic networks: reparsing a printed
   network reproduces every device structurally and the same link set
   (links compared as an orientation-insensitive set: the parser orders
   the links inference would find first, in its orientation). *)
let canonical_links (net : A.network) =
  List.sort compare
    (List.map
       (fun (l : Net.Topology.link) ->
         let ea = (l.Net.Topology.a.device, l.Net.Topology.a.interface) in
         let eb = (l.Net.Topology.b.device, l.Net.Topology.b.interface) in
         if ea <= eb then (ea, eb) else (eb, ea))
       (Net.Topology.links net.A.net_topology))

let test_roundtrip_generators () =
  let nets =
    [
      ("fattree pods=2", (Generators.Fattree.make ~pods:2).Generators.Fattree.network);
      ("fattree pods=4", (Generators.Fattree.make ~pods:4).Generators.Fattree.network);
      ( "enterprise",
        (Generators.Enterprise.make ~seed:7 ~routers:8
           ~inject:{ Generators.Enterprise.hijack = false; acl_gap = false; deep_drop = false; single_homed = false }
           ())
          .Generators.Enterprise.network );
    ]
  in
  List.iter
    (fun (name, net) ->
      let printed = Printer.network_to_string net in
      let net2 = Parser.parse_network printed in
      Alcotest.(check bool) (name ^ ": devices round-trip") true (net.A.net_devices = net2.A.net_devices);
      Alcotest.(check bool)
        (name ^ ": link set round-trips")
        true
        (canonical_links net = canonical_links net2);
      Alcotest.(check string) (name ^ ": print fixpoint") printed (Printer.network_to_string net2))
    nets

(* The same round trip as a property over fat trees, fleet networks
   and every mutation of [Mutators], each drawn at random: a dropped
   link must stay dropped although its two interfaces still share a
   subnet, and printing the parsed network again gives the same text. *)
let fleet = lazy (Array.of_list (Generators.Enterprise.fleet ()))

let prop_print_parse =
  QCheck.Test.make ~name:"print/parse round trip" ~count:(4 * Mutators.fuzz_count)
    (QCheck.make
       ~print:QCheck.Print.(pair int int)
       QCheck.Gen.(pair (int_bound 99999) (int_bound 99999)))
    (fun (pick, k) ->
      let net, edits =
        let generic =
          Mutators.
            [ flip_rm_action k; rotate_local_prefs; drop_link k; filter_link k ]
        in
        if pick mod 4 = 0 then
          ((Generators.Fattree.make ~pods:(2 * (1 + (pick / 4 mod 3)))).Generators.Fattree.network, generic)
        else
          let fleet = Lazy.force fleet in
          let t = fleet.(pick mod Array.length fleet) in
          (t.Generators.Enterprise.network, generic @ [ Mutators.rack_acl k t; Mutators.edge_import k t ])
      in
      let net = (List.nth edits (k mod List.length edits)) net in
      let printed = Printer.network_to_string net in
      let back = Parser.parse_network printed in
      if back.A.net_devices <> net.A.net_devices then QCheck.Test.fail_report "devices differ";
      if Net.Topology.devices back.A.net_topology <> Net.Topology.devices net.A.net_topology then
        QCheck.Test.fail_report "topology devices differ";
      if canonical_links back <> canonical_links net then QCheck.Test.fail_report "link sets differ";
      if Printer.network_to_string back <> printed then QCheck.Test.fail_report "reprint differs";
      true)

(* -- inferred link order ------------------------------------------------------ *)

(* The pairwise scan the parser used before it grouped endpoints by
   subnet: every endpoint against every later one, links added one at a
   time, then the explicit [link] lines newest first.  The oracle for
   the parser's link order. *)
let pairwise_topology text =
  let devices = (Parser.parse_network text).A.net_devices in
  let topo =
    List.fold_left
      (fun t (d : A.device) -> Net.Topology.add_device t d.A.dev_name)
      Net.Topology.empty devices
  in
  let link d1 i1 d2 i2 =
    { Net.Topology.a = { device = d1; interface = i1 }; b = { device = d2; interface = i2 } }
  in
  let endpoints =
    List.concat_map
      (fun (d : A.device) ->
        List.filter_map
          (fun (i : A.interface) ->
            match (i.A.if_prefix, i.A.if_ip) with
            | Some p, Some ip -> Some (d.A.dev_name, i.A.if_name, p, ip)
            | _ -> None)
          d.A.dev_interfaces)
      devices
  in
  let rec pair_up acc = function
    | [] -> acc
    | (d1, i1, p1, ip1) :: rest ->
      let matches =
        List.filter
          (fun (d2, _, p2, ip2) ->
            d2 <> d1 && Net.Prefix.equal p1 p2 && not (Net.Ipv4.equal ip1 ip2))
          rest
      in
      let acc =
        List.fold_left (fun acc (d2, i2, _, _) -> Net.Topology.add_link acc (link d1 i1 d2 i2)) acc matches
      in
      pair_up acc rest
  in
  let explicit =
    List.filter_map
      (fun line ->
        match List.filter (( <> ) "") (String.split_on_char ' ' (String.trim line)) with
        | [ "link"; d1; i1; d2; i2 ] -> Some (link d1 i1 d2 i2)
        | _ -> None)
      (String.split_on_char '\n' text)
  in
  List.fold_left Net.Topology.add_link (pair_up topo endpoints) (List.rev explicit)

let check_link_order name text =
  let topo = (Parser.parse_network text).A.net_topology and oracle = pairwise_topology text in
  Alcotest.(check (list string)) (name ^ ": devices") (Net.Topology.devices oracle)
    (Net.Topology.devices topo);
  Alcotest.(check bool) (name ^ ": links, in order") true
    (Net.Topology.links oracle = Net.Topology.links topo)

(* Three routers on one subnet, plus a fourth reusing one of their
   addresses (never linked to its twin), with explicit lines that
   repeat inferred links in both orientations and add one more. *)
let shared_subnet_config =
  {|hostname A
interface e0
 ip address 10.0.0.1/24
interface e1
 ip address 10.1.0.1/30
!
hostname B
interface e0
 ip address 10.0.0.2/24
interface e1
 ip address 10.1.0.2/30
!
hostname C
interface e0
 ip address 10.0.0.3/24
!
hostname D
interface e0
 ip address 10.0.0.1/24
!
link C e0 A e0
link B e0 C e0
link A e2 C e2
link A e1 B e1
|}

let test_link_order () =
  List.iter
    (fun pods ->
      check_link_order (Printf.sprintf "fattree pods=%d" pods)
        (Printer.network_to_string (Generators.Fattree.make ~pods).Generators.Fattree.network))
    [ 2; 4; 6 ];
  let fleet = Array.of_list (Generators.Enterprise.fleet ()) in
  let rng = Random.State.make [| 503 |] in
  for _ = 1 to 8 do
    let i = Random.State.int rng (Array.length fleet) in
    check_link_order (Printf.sprintf "fleet network %d" i)
      (Printer.network_to_string fleet.(i).Generators.Enterprise.network)
  done;
  check_link_order "shared subnet" shared_subnet_config;
  Alcotest.(check int) "shared subnet: link count" 7
    (Net.Topology.num_links (Parser.parse_network shared_subnet_config).A.net_topology)

let () =
  Alcotest.run "config"
    [
      ( "parser",
        [
          Alcotest.test_case "basics" `Quick test_parse_basics;
          Alcotest.test_case "bgp" `Quick test_parse_bgp;
          Alcotest.test_case "route-map" `Quick test_parse_route_map;
          Alcotest.test_case "acl wildcard" `Quick test_parse_acl_wildcard;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "error location" `Quick test_parse_error_location;
          Alcotest.test_case "shared subnet rejected" `Quick test_reject_shared_subnet;
          Alcotest.test_case "network inference" `Quick test_network_inference;
          Alcotest.test_case "link order" `Quick test_link_order;
        ] );
      ( "semantics",
        [ Alcotest.test_case "prefix-list" `Quick test_prefix_list_semantics ] );
      ( "printer",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "generator roundtrip" `Quick test_roundtrip_generators;
          QCheck_alcotest.to_alcotest prop_print_parse;
          Alcotest.test_case "config lines" `Quick test_config_lines;
        ] );
    ]
