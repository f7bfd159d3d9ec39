(* Simulator and dataplane tests on small hand-built networks. *)

module A = Config.Ast
module Sim = Routing.Simulator
module Dp = Routing.Dataplane
module Route = Routing.Route
module Ip = Net.Ipv4
module P = Net.Prefix

let parse = Config.Parser.parse_network
let run ?(env = Sim.empty_env) net = Sim.run net env

let ip = Ip.of_string

let has_route routes pfx proto =
  List.exists
    (fun (r : Route.t) -> P.equal r.Route.prefix (P.of_string pfx) && r.Route.proto = proto)
    routes

(* -- two routers exchanging routes over OSPF ----------------------------------- *)

let ospf_pair =
  {|hostname R1
interface e0
 ip address 192.168.12.1/30
interface e1
 ip address 10.1.0.1/24
router ospf 1
 network 0.0.0.0/0
!
hostname R2
interface e0
 ip address 192.168.12.2/30
interface e1
 ip address 10.2.0.1/24
router ospf 1
 network 0.0.0.0/0
|}

let test_ospf_pair () =
  let net = parse ospf_pair in
  let st = run net in
  Alcotest.(check bool) "converged" true (Sim.converged st);
  Alcotest.(check bool) "R1 learns 10.2/24" true (has_route (Sim.overall_rib st "R1") "10.2.0.0/24" A.Pospf);
  Alcotest.(check bool) "R2 learns 10.1/24" true (has_route (Sim.overall_rib st "R2") "10.1.0.0/24" A.Pospf);
  (* connected wins over ospf for own subnet *)
  let r1_own = Sim.lookup st "R1" (ip "10.1.0.5") in
  (match r1_own with
   | (r : Route.t) :: _ -> Alcotest.(check bool) "connected preferred" true (r.Route.proto = A.Pconnected)
   | [] -> Alcotest.fail "no route to own subnet");
  let t = Dp.trace net st ~src:"R1" ~dst:(ip "10.2.0.42") in
  (match t.Dp.outcome with
   | Dp.Delivered d -> Alcotest.(check string) "delivered at R2" "R2" d
   | _ -> Alcotest.failf "unexpected outcome: %s" (Format.asprintf "%a" Dp.pp_trace t));
  Alcotest.(check (list string)) "path" [ "R1"; "R2" ] t.Dp.path

(* -- OSPF triangle with costs and failures ----------------------------------------- *)

let ospf_triangle =
  {|hostname R1
interface e0
 ip address 192.168.12.1/30
interface e1
 ip address 192.168.13.1/30
 ip ospf cost 10
router ospf 1
 network 0.0.0.0/0
!
hostname R2
interface e0
 ip address 192.168.12.2/30
interface e1
 ip address 192.168.23.1/30
interface e2
 ip address 10.2.0.1/24
router ospf 1
 network 0.0.0.0/0
!
hostname R3
interface e0
 ip address 192.168.13.2/30
interface e1
 ip address 192.168.23.2/30
router ospf 1
 network 0.0.0.0/0
|}

let test_ospf_costs () =
  let net = parse ospf_triangle in
  let st = run net in
  (* R1 should prefer the direct cheap link to R2 (cost 1) over via R3 (10+1) *)
  let t = Dp.trace net st ~src:"R1" ~dst:(ip "10.2.0.9") in
  Alcotest.(check (list string)) "direct path" [ "R1"; "R2" ] t.Dp.path

let test_ospf_failover () =
  let net = parse ospf_triangle in
  let st = Sim.run net { Sim.empty_env with failed_links = [ ("R1", "R2") ] } in
  let t = Dp.trace net st ~src:"R1" ~dst:(ip "10.2.0.9") in
  Alcotest.(check (list string)) "detour via R3" [ "R1"; "R3"; "R2" ] t.Dp.path;
  (match t.Dp.outcome with
   | Dp.Delivered "R2" -> ()
   | _ -> Alcotest.fail "expected delivery after failover")

(* -- static routes -------------------------------------------------------------------- *)

let test_static_null_route () =
  let net =
    parse
      {|hostname R1
interface e0
 ip address 10.1.0.1/24
ip route 10.9.0.0/16 Null0
|}
  in
  let st = run net in
  let t = Dp.trace net st ~src:"R1" ~dst:(ip "10.9.1.1") in
  (match t.Dp.outcome with
   | Dp.Null_routed "R1" -> ()
   | _ -> Alcotest.fail "expected null route");
  let t2 = Dp.trace net st ~src:"R1" ~dst:(ip "10.77.0.1") in
  match t2.Dp.outcome with
  | Dp.No_route "R1" -> ()
  | _ -> Alcotest.fail "expected no route"

(* -- eBGP pair ------------------------------------------------------------------------- *)

let ebgp_pair =
  {|hostname R1
interface e0
 ip address 192.168.12.1/30
interface e1
 ip address 10.1.0.1/24
router bgp 100
 network 10.1.0.0/24
 neighbor 192.168.12.2 remote-as 200
!
hostname R2
interface e0
 ip address 192.168.12.2/30
interface e1
 ip address 10.2.0.1/24
router bgp 200
 network 10.2.0.0/24
 neighbor 192.168.12.1 remote-as 100
|}

let test_ebgp_pair () =
  let net = parse ebgp_pair in
  let st = run net in
  Alcotest.(check bool) "converged" true (Sim.converged st);
  let r1 = Sim.overall_rib st "R1" in
  Alcotest.(check bool) "R1 learns 10.2/24 via bgp" true (has_route r1 "10.2.0.0/24" A.Pbgp);
  let learned =
    List.find (fun (r : Route.t) -> P.equal r.Route.prefix (P.of_string "10.2.0.0/24")) r1
  in
  Alcotest.(check int) "as-path length 1" 1 learned.Route.metric;
  Alcotest.(check (list int)) "as path" [ 200 ] learned.Route.as_path;
  Alcotest.(check bool) "ebgp" false learned.Route.bgp_internal;
  let t = Dp.trace net st ~src:"R1" ~dst:(ip "10.2.0.77") in
  match t.Dp.outcome with
  | Dp.Delivered "R2" -> ()
  | _ -> Alcotest.fail "expected delivery"

(* -- external announcements and route maps --------------------------------------------- *)

let ebgp_external =
  {|hostname R1
interface e0
 ip address 192.168.100.1/30
interface e1
 ip address 192.168.200.1/30
interface e2
 ip address 10.1.0.1/24
ip prefix-list BLOCK deny 192.168.0.0/16 le 32
ip prefix-list BLOCK permit 0.0.0.0/0 le 32
route-map PREF_N1 permit 10
 match ip address prefix-list BLOCK
 set local-preference 120
router bgp 100
 network 10.1.0.0/24
 neighbor 192.168.100.2 remote-as 65001
 neighbor 192.168.100.2 route-map PREF_N1 in
 neighbor 192.168.200.2 remote-as 65002
|}

let announce prefix =
  {
    Sim.adv_prefix = P.of_string prefix;
    adv_path_len = 1;
    adv_med = 0;
    adv_communities = Net.Community.Set.empty;
  }

let test_external_preference () =
  let net = parse ebgp_external in
  (* both external peers announce the same destination *)
  let env =
    {
      Sim.empty_env with
      Sim.external_ads =
        [
          ("R1", ip "192.168.100.2", announce "8.8.8.0/24");
          ("R1", ip "192.168.200.2", announce "8.8.8.0/24");
        ];
    }
  in
  let st = Sim.run net env in
  let routes = Sim.lookup st "R1" (ip "8.8.8.8") in
  match routes with
  | (r : Route.t) :: _ ->
    Alcotest.(check int) "local-pref applied" 120 r.Route.lp;
    (match r.Route.action with
     | Route.Forward_external peer ->
       Alcotest.(check string) "prefers N1" (Sim.external_peer_name (ip "192.168.100.2")) peer
     | _ -> Alcotest.fail "expected external forward")
  | [] -> Alcotest.fail "no route"

let test_import_filter_blocks () =
  let net = parse ebgp_external in
  (* announcement matching the deny prefix-list never enters the RIB *)
  let env =
    {
      Sim.empty_env with
      Sim.external_ads = [ ("R1", ip "192.168.100.2", announce "192.168.50.0/24") ];
    }
  in
  let st = Sim.run net env in
  let bgp_routes =
    List.filter (fun (r : Route.t) -> r.Route.proto = A.Pbgp) (Sim.lookup st "R1" (ip "192.168.50.1"))
  in
  Alcotest.(check int) "announcement filtered out" 0 (List.length bgp_routes)

(* -- iBGP over an OSPF underlay ---------------------------------------------------------- *)

let ibgp_pair =
  {|hostname R1
interface e0
 ip address 192.168.12.1/30
interface e1
 ip address 192.168.100.1/30
router ospf 1
 network 192.168.12.0/24
router bgp 100
 neighbor 192.168.12.2 remote-as 100
 neighbor 192.168.100.2 remote-as 65001
!
hostname R2
interface e0
 ip address 192.168.12.2/30
interface e1
 ip address 10.2.0.1/24
router ospf 1
 network 192.168.12.0/24
router bgp 100
 neighbor 192.168.12.1 remote-as 100
|}

let test_ibgp () =
  let net = parse ibgp_pair in
  let env =
    {
      Sim.empty_env with
      Sim.external_ads = [ ("R1", ip "192.168.100.2", announce "8.8.8.0/24") ];
    }
  in
  let st = Sim.run net env in
  let r2 = Sim.lookup st "R2" (ip "8.8.8.8") in
  match r2 with
  | (r : Route.t) :: _ ->
    Alcotest.(check bool) "ibgp learned" true r.Route.bgp_internal;
    Alcotest.(check int) "ibgp ad" A.ibgp_ad r.Route.ad;
    (match r.Route.action with
     | Route.Forward "R1" -> ()
     | _ -> Alcotest.fail "expected forward toward R1");
    let t = Dp.trace net st ~src:"R2" ~dst:(ip "8.8.8.8") in
    (match t.Dp.outcome with
     | Dp.Left_network ("R1", _) -> ()
     | _ -> Alcotest.failf "expected to exit at R1, got %s" (Format.asprintf "%a" Dp.pp_trace t))
  | [] -> Alcotest.fail "R2 missing iBGP route"

(* -- ACLs ------------------------------------------------------------------------------------ *)

let acl_net =
  {|hostname R1
interface e0
 ip address 192.168.12.1/30
router ospf 1
 network 0.0.0.0/0
!
hostname R2
interface e0
 ip address 192.168.12.2/30
 ip access-group BLOCK in
interface e1
 ip address 10.2.0.1/24
access-list BLOCK deny ip any 10.2.0.0 0.0.0.255
access-list BLOCK permit ip any any
router ospf 1
 network 0.0.0.0/0
|}

let test_acl_blocks () =
  let net = parse acl_net in
  let st = run net in
  let t = Dp.trace net st ~src:"R1" ~dst:(ip "10.2.0.5") in
  (match t.Dp.outcome with
   | Dp.Acl_denied ("R2", "BLOCK") -> ()
   | _ -> Alcotest.failf "expected acl denial, got %s" (Format.asprintf "%a" Dp.pp_trace t));
  Alcotest.(check bool) "not reachable" false (Dp.reachable net st ~src:"R1" ~dst:(ip "10.2.0.5"))

(* -- ECMP -------------------------------------------------------------------------------------- *)

let ecmp_net =
  {|hostname S
interface e0
 ip address 192.168.1.1/30
interface e1
 ip address 192.168.2.1/30
router ospf 1
 network 0.0.0.0/0
!
hostname A
interface e0
 ip address 192.168.1.2/30
interface e1
 ip address 192.168.3.1/30
router ospf 1
 network 0.0.0.0/0
!
hostname B
interface e0
 ip address 192.168.2.2/30
interface e1
 ip address 192.168.4.1/30
router ospf 1
 network 0.0.0.0/0
!
hostname T
interface e0
 ip address 192.168.3.2/30
interface e1
 ip address 192.168.4.2/30
interface e2
 ip address 10.9.0.1/24
router ospf 1
 network 0.0.0.0/0
|}

let test_ecmp () =
  let net = parse ecmp_net in
  let st = run net in
  let traces = Dp.trace_all net st ~src:"S" ~dst:(ip "10.9.0.3") in
  let paths = List.sort_uniq compare (List.map (fun t -> t.Dp.path) traces) in
  Alcotest.(check int) "two ecmp paths" 2 (List.length paths);
  List.iter
    (fun t ->
      match t.Dp.outcome with
      | Dp.Delivered "T" -> ()
      | _ -> Alcotest.fail "every branch delivers")
    traces

(* IGP ECMP does not depend on BGP: S also runs BGP, without
   maximum-paths, and still keeps both equal-cost OSPF paths. *)
let test_ecmp_without_bgp_multipath () =
  let i = String.index ecmp_net '!' in
  let net =
    parse
      (String.sub ecmp_net 0 i ^ "router bgp 100\n"
      ^ String.sub ecmp_net i (String.length ecmp_net - i))
  in
  let st = run net in
  Alcotest.(check int) "two ospf routes" 2 (List.length (Sim.lookup st "S" (ip "10.9.0.3")));
  let traces = Dp.trace_all net st ~src:"S" ~dst:(ip "10.9.0.3") in
  Alcotest.(check int) "two ecmp paths" 2
    (List.length (List.sort_uniq compare (List.map (fun t -> t.Dp.path) traces)))

let () =
  Alcotest.run "routing"
    [
      ( "ospf",
        [
          Alcotest.test_case "pair" `Quick test_ospf_pair;
          Alcotest.test_case "costs" `Quick test_ospf_costs;
          Alcotest.test_case "failover" `Quick test_ospf_failover;
        ] );
      ("static", [ Alcotest.test_case "null route" `Quick test_static_null_route ]);
      ( "bgp",
        [
          Alcotest.test_case "ebgp pair" `Quick test_ebgp_pair;
          Alcotest.test_case "external preference" `Quick test_external_preference;
          Alcotest.test_case "import filter" `Quick test_import_filter_blocks;
          Alcotest.test_case "ibgp" `Quick test_ibgp;
        ] );
      ( "dataplane",
        [
          Alcotest.test_case "acl" `Quick test_acl_blocks;
          Alcotest.test_case "ecmp" `Quick test_ecmp;
          Alcotest.test_case "ecmp without bgp multipath" `Quick test_ecmp_without_bgp_multipath;
        ] );
    ]
