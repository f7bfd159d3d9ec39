(* Encoder feature tests: iBGP with network copies, communities in
   filters and the symbolic environment, aggregation on export,
   neighbor preferences, the paper's Figure 6(a) multipath
   inconsistency, and eBGP sessions over a missing link. *)

module A = Config.Ast
module MS = Minesweeper

(* shims over the Query/Report API for the bare outcomes these tests match on *)
let verify_check enc prop =
  MS.Verify.Report.to_outcome (MS.Verify.run_query enc (MS.Verify.Query.of_property "query" prop))
let verify_net net opts make =
  let enc = MS.Encode.build net opts in
  MS.Verify.Report.to_outcome (MS.Verify.run_query enc (MS.Verify.Query.v "query" make))
module T = Smt.Term
module P = Net.Prefix
module Ip = Net.Ipv4

let parse = Config.Parser.parse_network
let default = MS.Options.default
let violated = function MS.Verify.Violation _ -> true | MS.Verify.Holds -> false

(* -- iBGP over an IGP underlay (network copies, §4) ----------------------- *)

let ibgp_net =
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

let announce_all enc =
  List.concat_map
    (fun d ->
      List.map
        (fun (p, _) ->
          let r = MS.Encode.env_record enc d p in
          T.and_
            [
              r.MS.Sym_record.valid;
              T.eq r.MS.Sym_record.plen (T.int_const 8);
              T.eq r.MS.Sym_record.metric (T.int_const 2);
            ])
        (MS.Encode.external_peers enc d))
    (MS.Encode.devices enc)

let external_dst enc =
  List.concat_map
    (fun d ->
      List.map
        (fun p -> T.not_ (MS.Packet.dst_in_prefix (MS.Encode.packet enc) p))
        (MS.Encode.subnets enc d))
    (MS.Encode.devices enc)

let test_ibgp_propagation () =
  let net = parse ibgp_net in
  let enc = MS.Encode.build net default in
  let peer = "peer:192.168.100.2" in
  let base = MS.Property.reachability enc ~sources:[ "R2" ] (MS.Property.External_peer peer) in
  (* given an announcement, R2 exits via R1's peer thanks to iBGP *)
  let prop =
    { base with MS.Property.assumptions = base.MS.Property.assumptions @ announce_all enc }
  in
  Alcotest.(check bool) "iBGP carries the route" false (violated (verify_check enc prop));
  (* without the announcement assumption, the empty environment is a
     counterexample *)
  let enc2 = MS.Encode.build net default in
  let bare = MS.Property.reachability enc2 ~sources:[ "R2" ] (MS.Property.External_peer peer) in
  Alcotest.(check bool) "empty environment blocks" true (violated (verify_check enc2 bare))

(* -- communities in the environment and in filters -------------------------- *)

let community_net =
  {|hostname R1
interface e0
 ip address 192.168.100.1/30
interface e1
 ip address 192.168.200.1/30
route-map NO_BLACKLISTED permit 10
 match community 65000:666
route-map NO_BLACKLISTED deny 20
router bgp 100
 neighbor 192.168.100.2 remote-as 65001
 neighbor 192.168.200.2 remote-as 65002
 neighbor 192.168.200.2 route-map NO_BLACKLISTED in
|}

let test_community_match () =
  (* peer2's announcements are accepted only when tagged 65000:666 *)
  let net = parse community_net in
  let comm = Net.Community.make 65000 666 in
  let peer2 = "peer:192.168.200.2" in
  let run ~tagged =
    let enc = MS.Encode.build net default in
    let r = MS.Encode.env_record enc "R1" peer2 in
    let quiet_peer1 = T.not_ (MS.Encode.env_record enc "R1" "peer:192.168.100.2").MS.Sym_record.valid in
    let tag_term = MS.Sym_record.comm_term r comm in
    let base = MS.Property.reachability enc ~sources:[ "R1" ] (MS.Property.External_peer peer2) in
    let prop =
      {
        base with
        MS.Property.assumptions =
          base.MS.Property.assumptions
          @ [
              quiet_peer1;
              r.MS.Sym_record.valid;
              T.eq r.MS.Sym_record.plen (T.int_const 8);
              T.eq r.MS.Sym_record.metric (T.int_const 1);
              (if tagged then tag_term else T.not_ tag_term);
            ]
          @ external_dst enc;
      }
    in
    verify_check enc prop
  in
  Alcotest.(check bool) "tagged accepted" false (violated (run ~tagged:true));
  Alcotest.(check bool) "untagged filtered" true (violated (run ~tagged:false))

(* -- aggregation on export (§4) ---------------------------------------------- *)

let agg_net summary =
  Printf.sprintf
    {|hostname R1
interface e0
 ip address 192.168.100.1/30
interface lan
 ip address 10.78.1.1/24
router bgp 100
 network 10.78.1.0/24
%s neighbor 192.168.100.2 remote-as 65001
|}
    (if summary then " aggregate-address 10.78.0.0/16 summary-only\n" else "")

let quiet_env enc =
  List.concat_map
    (fun d ->
      List.map
        (fun (p, _) -> T.not_ (MS.Encode.env_record enc d p).MS.Sym_record.valid)
        (MS.Encode.external_peers enc d))
    (MS.Encode.devices enc)

let test_aggregation () =
  (* with the aggregate, no self-originated route longer than /16 leaves
     the network (the environment is silenced: re-announced transit
     routes are a separate, legitimate leak) *)
  let run summary =
    let enc = MS.Encode.build (parse (agg_net summary)) default in
    let base = MS.Property.no_leak enc ~max_len:16 in
    let prop = { base with MS.Property.assumptions = base.MS.Property.assumptions @ quiet_env enc } in
    verify_check enc prop
  in
  Alcotest.(check bool) "aggregated" false (violated (run true));
  Alcotest.(check bool) "unaggregated /24 leaks" true (violated (run false))

(* -- neighbor preference (§5) -------------------------------------------------- *)

let pref_net =
  {|hostname R1
interface e0
 ip address 192.168.100.1/30
interface e1
 ip address 192.168.200.1/30
route-map P1 permit 10
 set local-preference 120
route-map P2 permit 10
 set local-preference 110
router bgp 100
 neighbor 192.168.100.2 remote-as 65001
 neighbor 192.168.100.2 route-map P1 in
 neighbor 192.168.200.2 remote-as 65002
 neighbor 192.168.200.2 route-map P2 in
|}

let test_neighbor_preference () =
  (* the preference is about policy, so compare like-for-like
     announcements: equal prefix lengths and path lengths (otherwise
     longest-prefix forwarding legitimately overrides the preference) *)
  let net = parse pref_net in
  let p1 = "peer:192.168.100.2" and p2 = "peer:192.168.200.2" in
  let like_for_like enc =
    List.concat_map
      (fun p ->
        let r = MS.Encode.env_record enc "R1" p in
        [
          T.implies r.MS.Sym_record.valid (T.eq r.MS.Sym_record.plen (T.int_const 8));
          T.implies r.MS.Sym_record.valid (T.eq r.MS.Sym_record.metric (T.int_const 1));
        ])
      [ p1; p2 ]
  in
  let run peers =
    let enc = MS.Encode.build net default in
    let base = MS.Property.neighbor_preference enc ~device:"R1" ~peers in
    let prop =
      {
        base with
        MS.Property.assumptions =
          base.MS.Property.assumptions @ like_for_like enc @ external_dst enc;
      }
    in
    verify_check enc prop
  in
  Alcotest.(check bool) "prefers p1 over p2" false (violated (run [ p1; p2 ]));
  Alcotest.(check bool) "reverse order fails" true (violated (run [ p2; p1 ]))

(* -- Figure 6(a): multipath inconsistency --------------------------------------- *)

let fig6a =
  {|hostname R1
interface e0
 ip address 192.168.1.1/30
interface e1
 ip address 192.168.2.1/30
router ospf 1
 network 0.0.0.0/0
!
hostname R2
interface e0
 ip address 192.168.1.2/30
interface e1
 ip address 192.168.3.1/30
router ospf 1
 network 0.0.0.0/0
!
hostname R3
interface e0
 ip address 192.168.2.2/30
interface e1
 ip address 192.168.4.1/30
 ip access-group BAD out
access-list BAD deny ip any 10.9.0.0/24
access-list BAD permit ip any any
router ospf 1
 network 0.0.0.0/0
!
hostname S
interface e0
 ip address 192.168.3.2/30
interface e1
 ip address 192.168.4.2/30
interface lan
 ip address 10.9.0.1/24
router ospf 1
 network 0.0.0.0/0
|}

let test_multipath_inconsistency () =
  let net = parse fig6a in
  let dest = MS.Property.Subnet ("S", P.of_string "10.9.0.0/24") in
  (* R1 load-balances over R2 and R3, but R3's ACL drops the traffic *)
  Alcotest.(check bool) "figure 6a violated" true
    (violated (verify_net net default (fun enc -> MS.Property.multipath_consistency enc dest)));
  (* removing the ACL restores consistency *)
  let clean = Str.global_replace (Str.regexp_string " ip access-group BAD out\n") "" fig6a in
  Alcotest.(check bool) "clean consistent" false
    (violated
       (verify_net (parse clean) default (fun enc -> MS.Property.multipath_consistency enc dest)))

(* -- encoding statistics sanity --------------------------------------------------- *)

(* -- eBGP sessions need a physical link ---------------------------------------- *)

(* A configured eBGP session whose link is missing from the topology
   never comes up, exactly as in the simulator: once the tor_0_0 --
   agg_0_0 link is gone, no route tor_0_0 exports can be valid at
   agg_0_0. *)
let test_ebgp_needs_link () =
  let net = (Generators.Fattree.make ~pods:2).Generators.Fattree.network in
  let topo = net.A.net_topology in
  let kept (l : Net.Topology.link) =
    List.sort compare [ l.Net.Topology.a.Net.Topology.device; l.Net.Topology.b.Net.Topology.device ]
    <> [ "agg_0_0"; "tor_0_0" ]
  in
  let cut =
    List.fold_left
      (fun t l -> if kept l then Net.Topology.add_link t l else t)
      (List.fold_left Net.Topology.add_device Net.Topology.empty (Net.Topology.devices topo))
      (Net.Topology.links topo)
  in
  let enc = MS.Encode.build { net with A.net_topology = cut } default in
  match List.assoc_opt "tor_0_0" (MS.Encode.internal_imports enc "agg_0_0") with
  | None -> Alcotest.fail "the configured session should still be encoded"
  | Some r ->
    let s = Smt.Solver.create () in
    List.iter (Smt.Solver.assert_term s) (MS.Encode.assertions enc);
    Smt.Solver.assert_term s r.MS.Sym_record.valid;
    (match Smt.Solver.check s with
     | Smt.Solver.Unsat -> ()
     | Smt.Solver.Sat _ -> Alcotest.fail "a route crossed the missing tor_0_0 -- agg_0_0 link")

let test_slicing_shrinks () =
  let t = Generators.Fattree.make ~pods:2 in
  let sliced = MS.Encode.build t.Generators.Fattree.network default in
  let unsliced = MS.Encode.build t.Generators.Fattree.network MS.Options.naive in
  let _, sliced_size = MS.Encode.stats sliced in
  let _, naive_size = MS.Encode.stats unsliced in
  Alcotest.(check bool)
    (Printf.sprintf "sliced %d < naive %d" sliced_size naive_size)
    true (sliced_size < naive_size)

(* Encoding size pinned to the values recorded before the encoder
   looked devices up through per-build name and address indexes: the
   indexes must not change a single assertion.  The fleet networks
   (picked by a seeded draw) exercise iBGP copies and static next hops;
   the quotient exercises the reduced network's filtered sessions. *)
let test_stats_pinned () =
  let check name ?pins net opts expected =
    Alcotest.(check (pair int int)) name expected (MS.Encode.stats (MS.Encode.build ?pins net opts))
  in
  let ft = (Generators.Fattree.make ~pods:4).Generators.Fattree.network in
  check "fattree pods=4" ft default (289, 10668);
  check "fattree pods=4 quotient" ~pins:[ "tor_1_0" ] ft (MS.Options.with_symmetry default) (77, 2333);
  let fleet = Array.of_list (Generators.Enterprise.fleet ()) in
  let rng = Random.State.make [| 18 |] in
  List.iter
    (fun expected ->
      let i = Random.State.int rng (Array.length fleet) in
      check (Printf.sprintf "fleet network %d" i) fleet.(i).Generators.Enterprise.network default
        expected)
    [ (567, 31031); (952, 51000); (600, 34183) ]

let () =
  Alcotest.run "encode"
    [
      ("ibgp", [ Alcotest.test_case "propagation" `Quick test_ibgp_propagation ]);
      ("communities", [ Alcotest.test_case "match in filter" `Quick test_community_match ]);
      ("aggregation", [ Alcotest.test_case "export length" `Quick test_aggregation ]);
      ("preferences", [ Alcotest.test_case "neighbor order" `Quick test_neighbor_preference ]);
      ("multipath", [ Alcotest.test_case "figure 6a" `Quick test_multipath_inconsistency ]);
      ( "stats",
        [
          Alcotest.test_case "slicing shrinks" `Quick test_slicing_shrinks;
          Alcotest.test_case "pinned sizes" `Quick test_stats_pinned;
        ] );
      ("ebgp", [ Alcotest.test_case "session needs a link" `Quick test_ebgp_needs_link ]);
    ]
