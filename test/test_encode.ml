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

(* -- a BGP route learned over iBGP and redistributed into OSPF ---------------- *)

(* R1 learns R2's external route over iBGP and redistributes it into
   OSPF, where it beats iBGP on distance.  It must still forward the way
   the iBGP route does (through the iBGP copy, toward R2); certification
   replays the verdicts through the simulator. *)
let ibgp_redist_net =
  {|hostname R1
interface e0
 ip address 192.168.12.1/30
interface e1
 ip address 10.1.0.1/24
router ospf 1
 network 192.168.12.0/24
 redistribute bgp
router bgp 100
 neighbor 192.168.12.2 remote-as 100
!
hostname R2
interface e0
 ip address 192.168.12.2/30
interface e1
 ip address 192.168.100.1/30
router ospf 1
 network 192.168.12.0/24
router bgp 100
 neighbor 192.168.12.1 remote-as 100
 neighbor 192.168.100.2 remote-as 65001
|}

let test_ibgp_redistributed () =
  let net = parse ibgp_redist_net in
  let peer = MS.Property.External_peer "peer:192.168.100.2" in
  let run make =
    let enc = MS.Encode.build net (MS.Options.with_certify default) in
    let base = make enc in
    let prop =
      {
        base with
        MS.Property.assumptions = base.MS.Property.assumptions @ announce_all enc @ external_dst enc;
      }
    in
    MS.Verify.run_query enc (MS.Verify.Query.of_property "query" prop)
  in
  let certified what (r : MS.Verify.Report.t) =
    match r.MS.Verify.Report.certificate with
    | MS.Verify.Report.Checked_unsat_proof _ | MS.Verify.Report.Checked_model -> ()
    | MS.Verify.Report.Uncertified -> Alcotest.failf "%s: uncertified" what
    | MS.Verify.Report.Certification_failed msg -> Alcotest.failf "%s: %s" what msg
  in
  let reach = run (fun enc -> MS.Property.reachability enc ~sources:[ "R1" ] peer) in
  certified "reachability" reach;
  Alcotest.(check bool) "R1 reaches the peer" false
    (violated (MS.Verify.Report.to_outcome reach));
  let iso = run (fun enc -> MS.Property.isolation enc ~sources:[ "R1" ] peer) in
  certified "isolation" iso;
  Alcotest.(check bool) "so R1 is not isolated" true (violated (MS.Verify.Report.to_outcome iso))

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

(* -- local preference ranks before eBGP-over-iBGP ------------------------------ *)

(* R1 and R2 (AS 65000, iBGP between them) each hear 10.99.0.0/24 with
   path length 1 from their own eBGP peer; R1's import map raises local
   preference to 200.  R2 must prefer the iBGP route through R1 over its
   own eBGP one, in the simulator and in the encoding alike. *)
let lp_net =
  {|hostname R1
interface e0
 ip address 192.168.12.1/30
interface e1
 ip address 192.168.101.1/30
route-map PREFER permit 10
 set local-preference 200
router bgp 65000
 neighbor 192.168.12.2 remote-as 65000
 neighbor 192.168.101.2 remote-as 65001
 neighbor 192.168.101.2 route-map PREFER in
!
hostname R2
interface e0
 ip address 192.168.12.2/30
interface e1
 ip address 192.168.102.1/30
router bgp 65000
 neighbor 192.168.12.1 remote-as 65000
 neighbor 192.168.102.2 remote-as 65002
|}

let test_local_pref_first () =
  let net = parse lp_net in
  let dst = P.of_string "10.99.0.0/24" in
  let ad =
    { Routing.Simulator.adv_prefix = dst; adv_path_len = 1; adv_med = 0;
      adv_communities = Net.Community.Set.empty }
  in
  let env =
    {
      Routing.Simulator.external_ads =
        [ ("R1", Ip.of_string "192.168.101.2", ad); ("R2", Ip.of_string "192.168.102.2", ad) ];
      failed_links = [];
    }
  in
  let st = Routing.Simulator.run net env in
  (match Routing.Simulator.proto_rib st "R2" A.Pbgp with
   | [ r ] ->
     Alcotest.(check bool) "simulator: R2 picks the iBGP route" true r.Routing.Route.bgp_internal;
     Alcotest.(check int) "with local preference 200" 200 r.Routing.Route.lp
   | rs -> Alcotest.failf "simulator: R2 has %d BGP routes, expected one" (List.length rs));
  let enc = MS.Encode.build net default in
  let announced =
    List.map
      (fun (d, p) ->
        let r = MS.Encode.env_record enc d p in
        T.and_
          [
            r.MS.Sym_record.valid;
            T.eq r.MS.Sym_record.plen (T.int_const 24);
            T.eq r.MS.Sym_record.metric (T.int_const 1);
            T.eq r.MS.Sym_record.med (T.int_const 0);
          ])
      [ ("R1", "peer:192.168.101.2"); ("R2", "peer:192.168.102.2") ]
  in
  let prop =
    {
      MS.Property.instrumentation = [];
      assumptions = MS.Packet.dst_in_prefix (MS.Encode.packet enc) dst :: announced;
      goal =
        T.and_
          [
            MS.Encode.datafwd enc "R2" (MS.Nexthop.To_device "R1");
            T.not_ (MS.Encode.datafwd enc "R2" (MS.Nexthop.To_external "peer:192.168.102.2"));
          ];
    }
  in
  Alcotest.(check bool) "encoding: R2 forwards through R1 only" false
    (violated (verify_check enc prop))

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
   the quotients exercise the reduced network's filtered sessions.
   All three fleet networks redistribute iBGP-learned routes into OSPF;
   their sizes include that route's forwarding through the iBGP copy. *)
let test_stats_pinned () =
  let check name ?pins net opts expected =
    Alcotest.(check (pair int int)) name expected (MS.Encode.stats (MS.Encode.build ?pins net opts))
  in
  let ft = (Generators.Fattree.make ~pods:4).Generators.Fattree.network in
  check "fattree pods=4" ft default (289, 10668);
  check "fattree pods=4 quotient" ~pins:[ "tor_1_0" ] ft (MS.Options.with_symmetry default) (77, 2333);
  (* the paper's 405-router scale point: the analysis the quotient
     rests on (pre-flight, fingerprints, refinement) must not move *)
  let ft18 = (Generators.Fattree.make ~pods:18).Generators.Fattree.network in
  let pins = [ "tor_0_0"; "tor_17_8" ] in
  check "fattree pods=18 quotient" ~pins ft18 (MS.Options.with_symmetry default) (113, 3543);
  (match Analysis.Symmetry.reduce ~pins ft18 with
   | Some r ->
     Alcotest.(check int) "pods=18 collapsed devices" 396 (List.length r.Analysis.Symmetry.red_rep)
   | None -> Alcotest.fail "pods=18 fabric should reduce");
  let fleet = Array.of_list (Generators.Enterprise.fleet ()) in
  let rng = Random.State.make [| 18 |] in
  List.iter
    (fun expected ->
      let i = Random.State.int rng (Array.length fleet) in
      check (Printf.sprintf "fleet network %d" i) fleet.(i).Generators.Enterprise.network default
        expected)
    [ (567, 31143); (952, 51137); (600, 34292) ]

(* -- rebuild: re-encode only what a diff touched -------------------------------- *)

(* The unscoped assertions and each device's slice, in emission order. *)
let slices enc =
  let tagged = MS.Encode.tagged_assertions enc in
  let slice d = List.filter_map (fun (s, term) -> if s = Some d then Some term else None) tagged in
  ( List.filter_map (fun (s, term) -> if s = None then Some term else None) tagged,
    List.map (fun d -> (d, slice d)) (MS.Encode.devices enc) )

(* [rebuilt] must be, term for term, the encoding [built]: the same
   unscoped assertions, the same slice for every device, the whole
   assertion list in the same order, and the same forwarding and
   best-route terms where properties read them. *)
let same_encoding what rebuilt built =
  let fail fmt = Printf.ksprintf (fun m -> failwith (what ^ ": " ^ m)) fmt in
  let u1, s1 = slices rebuilt and u2, s2 = slices built in
  if not (List.equal ( == ) u1 u2) then fail "unscoped assertions differ";
  List.iter2
    (fun (d, a) (d', b) ->
      if d <> d' then fail "device order differs (%s, %s)" d d';
      if not (List.equal ( == ) a b) then
        fail "slice of %s differs (%d terms rebuilt, %d built)" d (List.length a) (List.length b))
    s1 s2;
  if
    not
      (List.equal
         (fun (s, a) (s', b) -> s = s' && a == b)
         (MS.Encode.tagged_assertions rebuilt) (MS.Encode.tagged_assertions built))
  then fail "assertion order differs";
  List.iter
    (fun d ->
      List.iter
        (fun h ->
          if MS.Encode.controlfwd rebuilt d h != MS.Encode.controlfwd built d h then
            fail "controlfwd %s %s differs" d (MS.Nexthop.to_string h);
          if MS.Encode.datafwd rebuilt d h != MS.Encode.datafwd built d h then
            fail "datafwd %s %s differs" d (MS.Nexthop.to_string h))
        (MS.Encode.hops built d);
      if
        (MS.Encode.best_overall rebuilt d).MS.Sym_record.valid
        != (MS.Encode.best_overall built d).MS.Sym_record.valid
      then fail "best record of %s differs" d)
    (MS.Encode.devices built)

let rebuild_spaces = ref 0

(* A chain of serve-churn steps over a generated enterprise network
   (two iBGP copies): each network is rebuilt from the previous
   rebuild, as the serve daemon does, and must equal a build in the
   same name-space; the devices re-encoded must be the ones [affected]
   names. *)
let prop_rebuild =
  QCheck.Test.make ~name:"rebuild equals build" ~count:Mutators.fuzz_count
    (QCheck.make
       ~print:QCheck.Print.(triple int int (list int))
       QCheck.Gen.(
         triple (int_bound 9999) (int_range 5 12) (list_size (int_range 1 4) (int_bound 99999))))
    (fun (seed, routers, steps) ->
      let t = Generators.Enterprise.make ~seed ~routers ~inject:Generators.Enterprise.no_bugs () in
      let opts =
        match seed mod 3 with
        | 0 -> default
        | 1 -> { default with MS.Options.merge_dataplane = false; merge_filters = false }
        | _ -> { default with MS.Options.max_failures = Some 1; merge_filters = false }
      in
      incr rebuild_spaces;
      let namespace = Printf.sprintf "rebuild%d" !rebuild_spaces in
      let build net = MS.Encode.build ~namespace net opts in
      let net0 = t.Generators.Enterprise.network in
      ignore
        (List.fold_left
           (fun (enc, history, i) k ->
             let cur = List.hd history in
             let kind, net =
               match k mod 7 with
               | 0 -> ("flip-rm-action", Mutators.flip_rm_action (k / 7) cur)
               | 1 -> ("rotate-local-prefs", Mutators.rotate_local_prefs cur)
               | 2 -> ("drop-link", Mutators.drop_link (k / 7) cur)
               | 3 -> ("filter-link", Mutators.filter_link (k / 7) cur)
               | 4 -> ("rack-acl", Mutators.rack_acl (k / 7) t cur)
               | 5 -> ("edge-import", Mutators.edge_import (k / 7) t cur)
               | _ -> ("flap-back", List.nth history (k / 7 mod List.length history))
             in
             let what = Printf.sprintf "step %d (%s)" i kind in
             match build net with
             | exception Analysis.Lint.Lint_errors _ -> (
               match MS.Encode.rebuild enc net with
               | exception Analysis.Lint.Lint_errors _ -> (enc, history, i + 1)
               | _ -> QCheck.Test.fail_reportf "%s: rebuild skipped the pre-flight" what)
             | built ->
               let rebuilt = MS.Encode.rebuild enc net in
               same_encoding what rebuilt built;
               (* only a changed failure bound (an external peering
                  under [max_failures]) may turn a delta into a full
                  encoding *)
               let all = List.sort compare (MS.Encode.devices built) in
               let got = List.sort compare (MS.Encode.encoded rebuilt) in
               let expected =
                 match MS.Encode.affected opts ~old_net:(MS.Encode.network enc) net with
                 | None -> got = all
                 | Some (_, coupled) ->
                   got = coupled || (opts.MS.Options.max_failures <> None && got = all)
               in
               if not expected then
                 QCheck.Test.fail_reportf "%s: re-encoded [%s] of [%s]" what
                   (String.concat "," got) (String.concat "," all);
               (rebuilt, net :: history, i + 1))
           (build net0, [ net0 ], 0) steps);
      true)

(* The two couplings the generated networks never exercise: R1 and R3
   are iBGP peers two hops apart, so R3's export policy reaches R1's
   slice only through the session; and when Z, listed first, takes over
   R3's address 10.0.34.3, R4's session behind it moves to Z, and R3's
   import from R4 loses R4's export policy although R3 neither changed
   nor references Z. *)
let coupling_net =
  {|hostname Z
interface e0
 ip address 10.9.0.1/24
router bgp 100
!
hostname R1
interface e0
 ip address 10.0.12.1/24
interface lo
 ip address 1.1.1.1/32
router ospf 1
 network 0.0.0.0/0
router bgp 100
 neighbor 3.3.3.3 remote-as 100
!
hostname R2
interface e0
 ip address 10.0.12.2/24
interface e1
 ip address 10.0.23.2/24
router ospf 1
 network 0.0.0.0/0
!
hostname R3
interface e1
 ip address 10.0.23.3/24
interface e2
 ip address 10.0.34.3/24
interface lo
 ip address 3.3.3.3/32
router ospf 1
 network 0.0.0.0/0
router bgp 100
 neighbor 1.1.1.1 remote-as 100
 neighbor 1.1.1.1 route-map OUT out
 neighbor 10.0.34.4 remote-as 4
route-map OUT permit 10
 set local-preference 200
!
hostname R4
interface e2
 ip address 10.0.34.4/24
router bgp 4
 neighbor 10.0.34.3 remote-as 100
 neighbor 10.0.34.3 route-map SET out
route-map SET permit 10
 set metric 7
|}

let test_rebuild_coupling () =
  let net = parse coupling_net in
  let new_pref (d : A.device) =
    let clause (c : A.rm_clause) = { c with A.rm_sets = [ A.Set_local_pref 300 ] } in
    let rmap (rm : A.route_map) = { rm with A.rm_clauses = List.map clause rm.A.rm_clauses } in
    { d with A.dev_route_maps = List.map rmap d.A.dev_route_maps }
  in
  let takeover (d : A.device) =
    let r3 = Option.get (A.find_device net "R3") in
    { d with A.dev_interfaces = d.A.dev_interfaces @ [ Option.get (A.find_interface r3 "e2") ] }
  in
  List.iter
    (fun (what, net', want) ->
      let enc = MS.Encode.build ~namespace:("coupling-" ^ what) net default in
      let rebuilt = MS.Encode.rebuild enc net' in
      same_encoding what rebuilt (MS.Encode.build ~namespace:("coupling-" ^ what) net' default);
      Alcotest.(check (list string)) (what ^ ": re-encoded") want
        (List.sort compare (MS.Encode.encoded rebuilt)))
    [
      (* R3 changed, R2 and R4 its neighbors, R1 its iBGP peer *)
      ("export policy", Mutators.map_device "R3" new_pref net, [ "R1"; "R2"; "R3"; "R4" ]);
      (* Z changed, R4 references the address, R3 owned it *)
      ("address takeover", Mutators.map_device "Z" takeover net, [ "R3"; "R4"; "Z" ]);
    ]

let () =
  Alcotest.run "encode"
    [
      ("ibgp", [ Alcotest.test_case "propagation" `Quick test_ibgp_propagation ]);
      ("communities", [ Alcotest.test_case "match in filter" `Quick test_community_match ]);
      ("aggregation", [ Alcotest.test_case "export length" `Quick test_aggregation ]);
      ( "preferences",
        [
          Alcotest.test_case "neighbor order" `Quick test_neighbor_preference;
          Alcotest.test_case "local preference before iBGP" `Quick test_local_pref_first;
        ] );
      ("redistribution", [ Alcotest.test_case "ibgp into ospf" `Quick test_ibgp_redistributed ]);
      ("multipath", [ Alcotest.test_case "figure 6a" `Quick test_multipath_inconsistency ]);
      ( "stats",
        [
          Alcotest.test_case "slicing shrinks" `Quick test_slicing_shrinks;
          Alcotest.test_case "pinned sizes" `Quick test_stats_pinned;
        ] );
      ("ebgp", [ Alcotest.test_case "session needs a link" `Quick test_ebgp_needs_link ]);
      ( "rebuild",
        [
          QCheck_alcotest.to_alcotest prop_rebuild;
          Alcotest.test_case "coupling beyond neighbors" `Quick test_rebuild_coupling;
        ] );
    ]
