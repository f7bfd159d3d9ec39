(* Tests of the symmetry analysis (Analysis.Symmetry): canonical device
   fingerprints, partition refinement, the quotient reduction behind
   Options.symmetry, the MS-W401 near-symmetry diagnostics, and the
   differential gate — quotient and full encodings must agree on every
   verdict, with quotient counterexamples replaying concretely. *)

module A = Config.Ast
module MS = Minesweeper

(* shims over the Query/Report API for the bare outcomes these tests match on *)
let verify_check enc prop =
  MS.Verify.Report.to_outcome (MS.Verify.run_query enc (MS.Verify.Query.of_property "query" prop))
module G = Generators
module S = Analysis.Symmetry
module D = Analysis.Diagnostic
module P = Net.Prefix
module T = Net.Topology

let outcome_str = function MS.Verify.Holds -> "verified" | MS.Verify.Violation _ -> "violated"

let classes_of ?pins (net : A.network) = (S.classes ?pins net net.A.net_topology).S.groups
let norm groups = List.sort compare (List.map (List.sort compare) groups)

let device net name =
  match A.find_device net name with
  | Some d -> d
  | None -> Alcotest.failf "no device %s" name

(* -- partition structure ------------------------------------------------------- *)

let test_partition_unpinned () =
  (* pods=4: three roles, perfectly interchangeable within each *)
  let net = (G.Fattree.make ~pods:4).G.Fattree.network in
  let groups = classes_of net in
  Alcotest.(check int) "three classes" 3 (List.length groups);
  Alcotest.(check int) "twenty devices" 20
    (List.fold_left (fun a g -> a + List.length g) 0 groups);
  let sizes = List.sort compare (List.map List.length groups) in
  Alcotest.(check (list int)) "role sizes" [ 4; 8; 8 ] sizes

let test_partition_pinned () =
  (* pinning the destination ToR splits its pod off: the pinned device,
     its pod sibling, its pod's aggregation pair, and the three
     position-independent classes *)
  let net = (G.Fattree.make ~pods:4).G.Fattree.network in
  let groups = classes_of ~pins:[ "tor_0_0" ] net in
  Alcotest.(check int) "six classes" 6 (List.length groups);
  let find_of d =
    match List.find_opt (List.mem d) groups with
    | Some g -> List.sort compare g
    | None -> Alcotest.failf "%s not in any class" d
  in
  Alcotest.(check (list string)) "pin is singleton" [ "tor_0_0" ] (find_of "tor_0_0");
  Alcotest.(check (list string)) "pod sibling singleton" [ "tor_0_1" ] (find_of "tor_0_1");
  Alcotest.(check (list string)) "pod aggs merge" [ "agg_0_0"; "agg_0_1" ] (find_of "agg_0_0");
  Alcotest.(check int) "cores merge" 4 (List.length (find_of "core_0"));
  Alcotest.(check int) "other-pod tors merge" 6 (List.length (find_of "tor_1_0"))

let test_pods2_all_singletons () =
  (* with only one core and the destination pinned, refinement leaves
     nothing interchangeable: the reduction must decline, not produce a
     trivial quotient *)
  let net = (G.Fattree.make ~pods:2).G.Fattree.network in
  let groups = classes_of ~pins:[ "tor_0_0" ] net in
  Alcotest.(check bool) "all singletons" true (List.for_all (fun g -> List.length g = 1) groups);
  Alcotest.(check bool) "reduce declines" true (S.reduce ~pins:[ "tor_0_0" ] net = None)

let test_fingerprints_by_role () =
  let net = (G.Fattree.make ~pods:4).G.Fattree.network in
  let fp n = S.fingerprint (device net n) in
  Alcotest.(check string) "tors same" (fp "tor_0_0") (fp "tor_3_1");
  Alcotest.(check string) "aggs same" (fp "agg_0_0") (fp "agg_2_1");
  Alcotest.(check string) "cores same" (fp "core_0") (fp "core_3");
  Alcotest.(check bool) "tor differs from agg" true (fp "tor_0_0" <> fp "agg_0_0");
  Alcotest.(check bool) "agg differs from core" true (fp "agg_0_0" <> fp "core_0")

(* Fingerprint values recorded before the serialization stopped going
   through Printf: the digest seeds the quotient's classes, so every
   byte of the serialized sections must stay as it was.  The
   enterprise devices cover what the fat tree lacks: OSPF,
   redistribution, iBGP sessions, statics and ACLs. *)
let test_fingerprints_golden () =
  let check net n expected =
    Alcotest.(check string) ("fingerprint " ^ n) expected (S.fingerprint (device net n))
  in
  let ft = (G.Fattree.make ~pods:4).G.Fattree.network in
  check ft "tor_0_0" "e2ee1ed724861b64d5ace1eb855d7171";
  check ft "agg_0_0" "80458642d6d0f4cda9179463641d2caf";
  check ft "core_0" "d6ecc1662d60f674484f78966c6ba060";
  let ent = (G.Enterprise.make ~seed:7 ~routers:8 ~inject:G.Enterprise.no_bugs ()).G.Enterprise.network in
  check ent "edge1" "2beb83fd89862a3b4b7461b36662c6aa";
  check ent "rack1" "8899fd5141bf9388c1468c1383cf6556";
  (* a static route whose next hop and prefix are both new addresses,
     and an interface whose address lies outside its own prefix (only
     an AST-built device has one): ids are numbered in the order the
     old serialization resolved them, the address before the prefix *)
  let d =
    Config.Parser.parse_device
      "hostname x\ninterface e0\n ip address 10.0.0.1/30\n!\ninterface e1\n ip address \
       10.1.0.1/24\n!\nip route 192.168.5.0/24 172.16.0.9\nip route 10.9.0.0/16 10.0.0.2\n"
  in
  Alcotest.(check string) "fingerprint of statics" "cbedb2491f95192e0720830ad3285a71"
    (S.fingerprint d);
  let move (i : A.interface) =
    if i.A.if_name = "e1" then { i with A.if_ip = Some (Net.Ipv4.of_string "172.20.0.5") } else i
  in
  Alcotest.(check string) "fingerprint of a stray interface address"
    "a78239fadae1141826199fe3bc532061"
    (S.fingerprint { d with A.dev_interfaces = List.map move d.A.dev_interfaces })

(* -- renaming invariance (QCheck) ---------------------------------------------- *)

(* A consistent renaming: an injective device rename [f] applied to the
   devices and the topology, and an injective address translation [g]
   (shift the leading octet) applied to every prefix, interface, BGP
   neighbor, static route, filter entry, ...  Fingerprints abstract
   names and concrete address bits, so both must be invariant. *)

let map_prefix g p = P.make (g (P.network p)) (P.length p)

let map_device ~g (d : A.device) =
  {
    d with
    A.dev_interfaces =
      List.map
        (fun (i : A.interface) ->
          {
            i with
            A.if_prefix = Option.map (map_prefix g) i.A.if_prefix;
            if_ip = Option.map g i.A.if_ip;
          })
        d.A.dev_interfaces;
    dev_prefix_lists =
      List.map
        (fun (pl : A.prefix_list) ->
          {
            pl with
            A.pl_entries =
              List.map
                (fun (e : A.prefix_list_entry) ->
                  { e with A.pl_prefix = map_prefix g e.A.pl_prefix })
                pl.A.pl_entries;
          })
        d.A.dev_prefix_lists;
    dev_acls =
      List.map
        (fun (a : A.acl) ->
          {
            a with
            A.acl_entries =
              List.map
                (fun (e : A.acl_entry) -> { e with A.acl_dst = map_prefix g e.A.acl_dst })
                a.A.acl_entries;
          })
        d.A.dev_acls;
    dev_bgp =
      Option.map
        (fun (b : A.bgp_config) ->
          {
            b with
            A.bgp_router_id = Option.map g b.A.bgp_router_id;
            bgp_networks = List.map (map_prefix g) b.A.bgp_networks;
            bgp_neighbors =
              List.map
                (fun (n : A.bgp_neighbor) -> { n with A.nbr_ip = g n.A.nbr_ip })
                b.A.bgp_neighbors;
            bgp_aggregates = List.map (fun (p, s) -> (map_prefix g p, s)) b.A.bgp_aggregates;
          })
        d.A.dev_bgp;
    dev_ospf =
      Option.map
        (fun (o : A.ospf_config) ->
          { o with A.ospf_networks = List.map (map_prefix g) o.A.ospf_networks })
        d.A.dev_ospf;
    dev_statics =
      List.map
        (fun (s : A.static_route) ->
          {
            s with
            A.st_prefix = map_prefix g s.A.st_prefix;
            st_next_hop = Option.map g s.A.st_next_hop;
          })
        d.A.dev_statics;
  }

let rename_topo f topo =
  let base = List.fold_left (fun t d -> T.add_device t (f d)) T.empty (T.devices topo) in
  List.fold_left
    (fun t (l : T.link) ->
      T.add_link t
        {
          T.a = { l.T.a with T.device = f l.T.a.T.device };
          b = { l.T.b with T.device = f l.T.b.T.device };
        })
    base (T.links topo)

let transform ~f ~g (net : A.network) =
  {
    A.net_devices =
      List.map (fun d -> { (map_device ~g d) with A.dev_name = f d.A.dev_name }) net.A.net_devices;
    net_topology = rename_topo f net.A.net_topology;
  }

let prop_rename_invariant =
  QCheck.Test.make ~name:"fingerprints and classes invariant under consistent renaming"
    ~count:8
    QCheck.(pair (int_range 1 40) (int_range 0 1_000_000))
    (fun (octet_shift, seed) ->
      let net = (G.Fattree.make ~pods:4).G.Fattree.network in
      (* injective because the original name is kept as a suffix *)
      let f name = Printf.sprintf "r%d_%s" (Hashtbl.hash (seed, name) mod 97) name in
      let g ip = ip + (octet_shift lsl 24) in
      let net' = transform ~f ~g net in
      let fps_match =
        List.for_all
          (fun (d : A.device) ->
            S.fingerprint d = S.fingerprint (device net' (f d.A.dev_name)))
          net.A.net_devices
      in
      let classes_match =
        norm (List.map (List.map f) (classes_of net)) = norm (classes_of net')
      in
      fps_match && classes_match)

(* -- perturbation strictly refines, and MS-W401 reports it --------------------- *)

let perturb_route_maps core (net : A.network) =
  {
    net with
    A.net_devices =
      List.map
        (fun (d : A.device) ->
          if d.A.dev_name <> core then d
          else
            {
              d with
              A.dev_route_maps =
                List.map
                  (fun (rm : A.route_map) ->
                    {
                      rm with
                      A.rm_clauses =
                        List.map
                          (fun (c : A.rm_clause) ->
                            { c with A.rm_sets = [ A.Set_local_pref 200 ] })
                          rm.A.rm_clauses;
                    })
                  d.A.dev_route_maps;
            })
        net.A.net_devices;
  }

let test_perturbation_refines () =
  let net = (G.Fattree.make ~pods:4).G.Fattree.network in
  let net' = perturb_route_maps "core_0" net in
  Alcotest.(check bool) "fingerprint diverges" true
    (S.fingerprint (device net' "core_0") <> S.fingerprint (device net' "core_1"));
  Alcotest.(check bool) "partition strictly refines" true
    (List.length (classes_of net') > List.length (classes_of net))

let test_near_symmetry_diagnostic () =
  let net = (G.Fattree.make ~pods:4).G.Fattree.network in
  Alcotest.(check int) "clean fabric: no MS-W401" 0
    (List.length (List.filter (fun (d : D.t) -> d.D.code = "MS-W401") (S.check net)));
  let diags = S.check (perturb_route_maps "core_0" net) in
  let w401 = List.filter (fun (d : D.t) -> d.D.code = "MS-W401") diags in
  Alcotest.(check int) "exactly the dissenter flagged" 1 (List.length w401);
  Alcotest.(check (option string)) "on core_0" (Some "core_0") (List.hd w401).D.device;
  Alcotest.(check bool) "warning severity" true ((List.hd w401).D.severity = D.Warning)

(* -- quotient structure -------------------------------------------------------- *)

let test_reduce_structure () =
  let net = (G.Fattree.make ~pods:4).G.Fattree.network in
  match S.reduce ~pins:[ "tor_0_0" ] net with
  | None -> Alcotest.fail "expected a reduction at pods=4"
  | Some r ->
    Alcotest.(check int) "six representatives" 6
      (List.length r.S.red_network.A.net_devices);
    Alcotest.(check bool) "pin survives" true
      (A.find_device r.S.red_network "tor_0_0" <> None);
    (* every collapsed member maps to a kept representative *)
    List.iter
      (fun (m, rep) ->
        Alcotest.(check bool) (m ^ " gone") true (A.find_device r.S.red_network m = None);
        Alcotest.(check bool) (rep ^ " kept") true
          (A.find_device r.S.red_network rep <> None))
      r.S.red_rep;
    (* class lists cover the whole network *)
    let covered =
      List.length r.S.red_network.A.net_devices + List.length r.S.red_rep
    in
    Alcotest.(check int) "20 devices accounted for" 20 covered;
    (* no interface of a kept device dangles toward a deleted peer *)
    let keep d = A.find_device r.S.red_network d <> None in
    List.iter
      (fun (d : A.device) ->
        List.iter
          (fun (i : A.interface) ->
            match T.peer net.A.net_topology d.A.dev_name i.A.if_name with
            | Some (p, _) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s.%s peer kept" d.A.dev_name i.A.if_name)
                true (keep p)
            | None -> ())
          d.A.dev_interfaces)
      r.S.red_network.A.net_devices

(* -- differential gate: quotient vs full verdicts ------------------------------ *)

let opts_on = MS.Options.with_symmetry MS.Options.default
let opts_off = MS.Options.default

(* Run one property on the full and the quotient encoding and insist on
   verdict agreement; a quotient counterexample must also replay
   cleanly through the concrete simulator (the lifted verdict is then
   evidence, not just an SMT model over a smaller network). *)
let differential ~name ~pins net (mk : MS.Encode.t -> MS.Property.t) =
  let enc_off = MS.Encode.build net opts_off in
  let enc_on = MS.Encode.build ~pins net opts_on in
  let o_off = verify_check enc_off (mk enc_off) in
  let o_on = verify_check enc_on (mk enc_on) in
  (match o_on with
   | MS.Verify.Violation cx ->
     (match MS.Counterexample.replay enc_on cx with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: quotient counterexample replay failed: %s" name e)
   | MS.Verify.Holds -> ());
  Alcotest.(check string) (name ^ ": verdicts agree") (outcome_str o_off) (outcome_str o_on)

let fattree_differential pods () =
  let ft = G.Fattree.make ~pods in
  let net = ft.G.Fattree.network in
  let dst_tor = List.hd ft.G.Fattree.tors in
  let other_tors = List.filter (fun t -> t <> dst_tor) ft.G.Fattree.tors in
  let dest = MS.Property.Subnet (dst_tor, ft.G.Fattree.tor_subnet dst_tor) in
  let other_pod_tors =
    List.filter
      (fun t -> match String.split_on_char '_' t with [ _; p; _ ] -> p = "1" | _ -> false)
      ft.G.Fattree.tors
  in
  let proj enc ds = MS.Encode.project_devices enc ds in
  differential ~name:"all-tor reachability" ~pins:[ dst_tor ] net (fun enc ->
      MS.Property.reachability enc ~sources:(proj enc other_tors) dest);
  differential ~name:"single-tor isolation (violated)" ~pins:[ dst_tor ] net (fun enc ->
      MS.Property.isolation enc ~sources:(proj enc [ List.hd other_tors ]) dest);
  differential ~name:"bounded length" ~pins:[ dst_tor ] net (fun enc ->
      MS.Property.bounded_length enc ~sources:(proj enc other_tors) dest ~bound:4);
  (* length comparison names concrete devices on both sides: the
     compared sources are pinned, not projected *)
  differential ~name:"equal lengths (one pod)" ~pins:(dst_tor :: other_pod_tors) net
    (fun enc -> MS.Property.equal_lengths enc ~sources:other_pod_tors dest);
  differential ~name:"multipath consistency" ~pins:[ dst_tor ] net (fun enc ->
      MS.Property.multipath_consistency enc dest);
  differential ~name:"no blackholes" ~pins:[] net (fun enc ->
      MS.Property.no_blackholes enc ~allowed:ft.G.Fattree.cores ());
  differential ~name:"no loops" ~pins:[] net (fun enc -> MS.Property.no_loops enc ())

let test_fattree_differential_pods2 () = fattree_differential 2 ()
let test_fattree_differential_pods4 () = fattree_differential 4 ()

let test_fattree_differential_pods6 () =
  (* the full encoding is the expensive side at this size; two queries
     keep the gate honest without dominating the suite *)
  let ft = G.Fattree.make ~pods:6 in
  let net = ft.G.Fattree.network in
  let dst_tor = List.hd ft.G.Fattree.tors in
  let other_tors = List.filter (fun t -> t <> dst_tor) ft.G.Fattree.tors in
  let dest = MS.Property.Subnet (dst_tor, ft.G.Fattree.tor_subnet dst_tor) in
  differential ~name:"single-tor reachability" ~pins:[ dst_tor ] net (fun enc ->
      MS.Property.reachability enc
        ~sources:(MS.Encode.project_devices enc [ List.hd other_tors ])
        dest);
  differential ~name:"single-tor isolation (violated)" ~pins:[ dst_tor ] net (fun enc ->
      MS.Property.isolation enc
        ~sources:(MS.Encode.project_devices enc [ List.hd other_tors ])
        dest)

let test_quotient_actually_smaller () =
  (* the pods=4 differential is only meaningful if the symmetric side
     really encoded fewer devices *)
  let ft = G.Fattree.make ~pods:4 in
  let enc = MS.Encode.build ~pins:[ "tor_0_0" ] ft.G.Fattree.network opts_on in
  Alcotest.(check int) "six devices encoded" 6 (List.length (MS.Encode.devices enc));
  Alcotest.(check bool) "classes exposed" true (MS.Encode.sym_classes enc <> []);
  Alcotest.(check string) "member lifts to representative" "core_0"
    (MS.Encode.representative enc "core_3");
  Alcotest.(check (list string)) "projection collapses and keeps order" [ "tor_1_0" ]
    (MS.Encode.project_devices enc [ "tor_2_0"; "tor_3_1" ])

let test_collapsed_device_rejected () =
  let ft = G.Fattree.make ~pods:4 in
  let enc = MS.Encode.build ~pins:[ "tor_0_0" ] ft.G.Fattree.network opts_on in
  let dest = MS.Property.Subnet ("tor_0_0", ft.G.Fattree.tor_subnet "tor_0_0") in
  (* tor_2_0 was collapsed: naming it without projection must fail
     loudly rather than verify a vacuous formula *)
  Alcotest.check_raises "unpinned source rejected"
    (Invalid_argument
       "Property: device tor_2_0 was collapsed into symmetry class representative tor_1_0; \
        pin it via Encode.build ~pins or map it through Encode.project_devices")
    (fun () -> ignore (MS.Property.reachability enc ~sources:[ "tor_2_0" ] dest))

(* -- enterprise networks: the reduction declines, verdicts still agree --------- *)

let test_enterprise_bails_to_identity () =
  List.iter
    (fun inject ->
      let t = G.Enterprise.make ~seed:42 ~routers:8 ~inject () in
      let net = t.G.Enterprise.network in
      let devices = List.map (fun (d : A.device) -> d.A.dev_name) net.A.net_devices in
      let target = List.hd (List.rev devices) in
      let enc_on = MS.Encode.build ~pins:[ target ] net opts_on in
      (* iBGP (and the other bail-outs) force the full encoding: the
         quotient machinery must get out of the way, not guess *)
      Alcotest.(check bool) "no classes claimed" true (MS.Encode.sym_classes enc_on = []);
      Alcotest.(check int) "all devices encoded" (List.length devices)
        (List.length (MS.Encode.devices enc_on));
      differential ~name:"mgmt reachability" ~pins:[ target ] net (fun enc ->
          MS.Property.reachability enc
            ~sources:(MS.Encode.project_devices enc devices)
            (MS.Property.Subnet (target, t.G.Enterprise.mgmt_prefix target))))
    [
      G.Enterprise.no_bugs;
      { G.Enterprise.no_bugs with hijack = true };
      { G.Enterprise.no_bugs with acl_gap = true };
      { G.Enterprise.no_bugs with deep_drop = true };
    ]

let () =
  Alcotest.run "symmetry"
    [
      ( "partition",
        [
          Alcotest.test_case "unpinned roles" `Quick test_partition_unpinned;
          Alcotest.test_case "pinned destination" `Quick test_partition_pinned;
          Alcotest.test_case "pods=2 all singletons" `Quick test_pods2_all_singletons;
          Alcotest.test_case "fingerprints by role" `Quick test_fingerprints_by_role;
          Alcotest.test_case "fingerprints golden" `Quick test_fingerprints_golden;
        ] );
      ("renaming", [ QCheck_alcotest.to_alcotest prop_rename_invariant ]);
      ( "diagnostics",
        [
          Alcotest.test_case "perturbation refines" `Quick test_perturbation_refines;
          Alcotest.test_case "MS-W401 near symmetry" `Quick test_near_symmetry_diagnostic;
        ] );
      ( "quotient",
        [
          Alcotest.test_case "reduction structure" `Quick test_reduce_structure;
          Alcotest.test_case "encoding is smaller" `Quick test_quotient_actually_smaller;
          Alcotest.test_case "collapsed device rejected" `Quick test_collapsed_device_rejected;
        ] );
      ( "differential",
        [
          Alcotest.test_case "fattree pods=2" `Quick test_fattree_differential_pods2;
          Alcotest.test_case "fattree pods=4" `Quick test_fattree_differential_pods4;
          Alcotest.test_case "fattree pods=6" `Slow test_fattree_differential_pods6;
          Alcotest.test_case "enterprise bails to identity" `Slow
            test_enterprise_bails_to_identity;
        ] );
    ]
