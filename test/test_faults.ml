(* Differential tests of the graph fast path for ⟨k⟩-failure
   fault-invariance (Faults): the eligibility scan, min-cut witness
   sizes, graph-vs-SMT verdict agreement on fat trees and enterprise
   networks, counterexample cut sets replayed through the concrete
   simulator with those links removed, and method stamping and the
   timeout of the hybrid (graph path first, SMT when it declines). *)

module A = Config.Ast
module MS = Minesweeper
module G = Generators
module F = Faults
module Sim = Routing.Simulator
module DP = Routing.Dataplane

let devices (net : A.network) =
  List.map (fun (d : A.device) -> d.A.dev_name) net.A.net_devices

let fattree pods =
  let ft = G.Fattree.make ~pods in
  let dst = List.hd ft.G.Fattree.tors in
  (ft.G.Fattree.network, dst, MS.Property.Subnet (dst, ft.G.Fattree.tor_subnet dst))

let single_homed_enterprise () =
  let t =
    G.Enterprise.make ~seed:3 ~routers:6
      ~inject:{ G.Enterprise.no_bugs with G.Enterprise.single_homed = true }
      ()
  in
  let target = List.hd (List.rev t.G.Enterprise.rack_role) in
  (t.G.Enterprise.network, MS.Property.Subnet (target, t.G.Enterprise.rack_subnet target))

let verdict (r : MS.Verify.Report.t) =
  MS.Verify.Report.verdict_name r.MS.Verify.Report.verdict

let meth (r : MS.Verify.Report.t) =
  match r.MS.Verify.Report.method_ with
  | Some m -> MS.Verify.Report.method_name m
  | None -> "unstamped"

let smt net ~k ~sources dest = MS.Verify.fault_invariant net MS.Options.default ~k ~sources dest

let hybrid net ~k ~sources dest = F.hybrid net MS.Options.default ~k ~sources dest

(* The replay obligation for a Broken/Violated cut: removing exactly
   those links from the healthy network must leave the source unable to
   reach the destination subnet in the converged dataplane. *)
let cut_disconnects net ~src ~dst_ip links =
  let state = Sim.run net { Sim.external_ads = []; failed_links = links } in
  Alcotest.(check bool) "replay simulation converges" true (Sim.converged state);
  not (DP.reachable net state ~src ~dst:dst_ip)

(* -- eligibility scan ---------------------------------------------------------- *)

let test_eligible_fattree () =
  let net, dst_tor, dest = fattree 4 in
  match F.eligible net dest with
  | Ok (owner, p) ->
    Alcotest.(check string) "owner is the destination ToR" dst_tor owner;
    Alcotest.(check bool) "prefix is the ToR /24" true (Net.Prefix.length p = 24)
  | Error reason -> Alcotest.failf "pure-BGP fat tree rejected: %s" reason

let test_ineligible_enterprise () =
  let net, dest = single_homed_enterprise () in
  match F.eligible net dest with
  | Ok _ -> Alcotest.fail "OSPF-internal enterprise must not be graph-eligible"
  | Error _ -> ()

let test_ineligible_device_destination () =
  let net, _, _ = fattree 2 in
  match F.eligible net (MS.Property.Device "tor_0_0") with
  | Ok _ -> Alcotest.fail "device destinations have no concrete subnet to cut"
  | Error _ -> ()

(* -- min cut ------------------------------------------------------------------- *)

let test_min_cut_sizes () =
  let net, _, _ = fattree 4 in
  let topo = net.A.net_topology in
  (match F.min_cut topo ~src:"tor_1_0" ~dst:"tor_0_0" ~limit:3 with
   | `Cut links -> Alcotest.(check int) "pods=4 ToR-to-ToR cut" 2 (List.length links)
   | `Above_limit -> Alcotest.fail "a 2-cut exists below limit 3");
  (match F.min_cut topo ~src:"tor_1_0" ~dst:"tor_0_0" ~limit:1 with
   | `Above_limit -> ()
   | `Cut _ -> Alcotest.fail "min cut 2 must be above limit 1");
  let net2, _, _ = fattree 2 in
  match F.min_cut net2.A.net_topology ~src:"tor_1_0" ~dst:"tor_0_0" ~limit:1 with
  | `Cut links -> Alcotest.(check int) "pods=2 single uplink" 1 (List.length links)
  | `Above_limit -> Alcotest.fail "pods=2 ToRs are 1-connected"

(* -- the graph decision procedure, with replay --------------------------------- *)

let check_analyze pods ~invariant_k ~broken_k =
  let net, _, dest = fattree pods in
  let sources = devices net in
  (match F.analyze net ~k:invariant_k ~sources dest with
   | F.Invariant -> ()
   | F.Broken _ -> Alcotest.failf "pods=%d k=%d must be invariant" pods invariant_k
   | F.Undecided r -> Alcotest.failf "pods=%d undecided: %s" pods r);
  match F.analyze net ~k:broken_k ~sources dest with
  | F.Broken { F.src; links } ->
    Alcotest.(check int) "cut size is the connectivity" broken_k (List.length links);
    let dst_ip =
      match dest with MS.Property.Subnet (_, p) -> Net.Prefix.first p | _ -> assert false
    in
    Alcotest.(check bool) "cut replays as a partition" true
      (cut_disconnects net ~src ~dst_ip links)
  | F.Invariant -> Alcotest.failf "pods=%d k=%d must be broken" pods broken_k
  | F.Undecided r -> Alcotest.failf "pods=%d undecided: %s" pods r

(* a ToR's min cut is its uplink count, pods/2 *)
let test_analyze_pods2 () = check_analyze 2 ~invariant_k:0 ~broken_k:1
let test_analyze_pods4 () = check_analyze 4 ~invariant_k:1 ~broken_k:2
let test_analyze_pods6 () = check_analyze 6 ~invariant_k:2 ~broken_k:3

let test_enterprise_undecided () =
  let net, dest = single_homed_enterprise () in
  match F.analyze net ~k:1 ~sources:(devices net) dest with
  | F.Undecided _ -> ()
  | F.Invariant | F.Broken _ ->
    Alcotest.fail "the graph path must decline OSPF-internal networks"

(* -- differential: graph verdicts vs the two-copy SMT encoding ----------------- *)

let test_differential_pods2 () =
  let net, _, dest = fattree 2 in
  let sources = devices net in
  List.iter
    (fun k ->
      let g = F.report net ~k ~sources dest in
      let s = smt net ~k ~sources dest in
      Alcotest.(check string)
        (Printf.sprintf "pods=2 k=%d graph vs smt" k)
        (verdict s) (verdict g);
      match g.MS.Verify.Report.verdict with
      | MS.Verify.Report.Violated cx ->
        let dst_ip =
          match dest with MS.Property.Subnet (_, p) -> Net.Prefix.first p | _ -> assert false
        in
        Alcotest.(check bool) "graph cut set is non-empty" true
          (cx.MS.Counterexample.failures <> []);
        (* the witness must disconnect some source; the counterexample
           src_ip is derived, so replay from every healthy source and
           require at least one partition *)
        Alcotest.(check bool) "some source is partitioned" true
          (List.exists
             (fun src -> cut_disconnects net ~src ~dst_ip cx.MS.Counterexample.failures)
             sources)
      | _ -> ())
    [ 0; 1; 2; 3 ]

let test_differential_pods4 () =
  let net, _, dest = fattree 4 in
  let sources = devices net in
  List.iter
    (fun k ->
      let h = hybrid net ~k ~sources dest in
      let s = smt net ~k ~sources dest in
      Alcotest.(check string)
        (Printf.sprintf "pods=4 k=%d hybrid vs smt" k)
        (verdict s) (verdict h))
    [ 1; 2 ]

let test_differential_enterprise () =
  let net, dest = single_homed_enterprise () in
  let sources = devices net in
  let h = hybrid net ~k:1 ~sources dest in
  let s = smt net ~k:1 ~sources dest in
  Alcotest.(check string) "single-homed rack verdicts agree" (verdict s) (verdict h);
  Alcotest.(check string) "the k=1 partition is found" "violated" (verdict h);
  (* the graph path declined, so the SMT leg must have answered *)
  Alcotest.(check string) "method records the fallback" "fallback" (meth h)

let test_certified_fault_invariant () =
  (* --certify must survive the failure variables: the k=0 UNSAT proof
     replays the cardinality clauses through the independent checker,
     and the k=1 counterexample model evaluates them *)
  let net, _, dest = fattree 2 in
  let sources = devices net in
  let opts = MS.Options.with_certify MS.Options.default in
  let check k expect =
    let r = MS.Verify.fault_invariant net opts ~k ~sources dest in
    Alcotest.(check string) (Printf.sprintf "k=%d verdict" k) expect (verdict r);
    match r.MS.Verify.Report.certificate with
    | MS.Verify.Report.Checked_unsat_proof _ | MS.Verify.Report.Checked_model -> ()
    | MS.Verify.Report.Uncertified -> Alcotest.failf "k=%d verdict left uncertified" k
    | MS.Verify.Report.Certification_failed m ->
      Alcotest.failf "k=%d certification failed: %s" k m
  in
  check 0 "verified";
  check 1 "violated"

(* -- hybrid method stamping ------------------------------------------------------ *)

(* The graph path alone decides the pods=2 fabric at k=1, with a cut of
   one link. *)
let test_graph_decides () =
  let net, _, dest = fattree 2 in
  let g = F.report net ~k:1 ~sources:(devices net) dest in
  Alcotest.(check string) "verdict" "violated" (verdict g);
  Alcotest.(check string) "method" "graph" (meth g);
  match g.MS.Verify.Report.verdict with
  | MS.Verify.Report.Violated cx ->
    Alcotest.(check int) "a single failed link" 1 (List.length cx.MS.Counterexample.failures)
  | _ -> Alcotest.fail "expected a violation"

(* The hybrid tries the graph path first: when it decides, its report
   is the answer, stamped [graph], and agrees with the SMT encoding. *)
let test_hybrid_graph_first () =
  let net, _, dest = fattree 2 in
  let sources = devices net in
  let h = hybrid net ~k:1 ~sources dest in
  Alcotest.(check string) "hybrid vs smt" (verdict (smt net ~k:1 ~sources dest)) (verdict h);
  Alcotest.(check string) "method" "graph" (meth h)

(* A zero budget reaches the SMT fallback and cancels it at the
   solver's first poll of its stop hook. *)
let test_fallback_timeout () =
  let net, dest = single_homed_enterprise () in
  let h = F.hybrid ~timeout:0.0 net MS.Options.default ~k:1 ~sources:(devices net) dest in
  Alcotest.(check string) "verdict" "timeout" (verdict h);
  Alcotest.(check string) "method" "fallback" (meth h)

(* The timeout bounds only the SMT fallback: a query the graph path
   decides is answered even on a zero budget. *)
let test_graph_ignores_timeout () =
  let net, _, dest = fattree 2 in
  let h = F.hybrid ~timeout:0.0 net MS.Options.default ~k:1 ~sources:(devices net) dest in
  Alcotest.(check string) "verdict" "violated" (verdict h);
  Alcotest.(check string) "method" "graph" (meth h)

let test_hybrid_pods6 () =
  (* the fabric the SMT side cannot answer quickly: the graph path
     must decide it, on both sides of the threshold *)
  let net, _, dest = fattree 6 in
  let sources = devices net in
  let h2 = hybrid net ~k:2 ~sources dest in
  Alcotest.(check string) "pods=6 k=2 verdict" "verified" (verdict h2);
  Alcotest.(check string) "pods=6 k=2 method" "graph" (meth h2);
  let h3 = hybrid net ~k:3 ~sources dest in
  Alcotest.(check string) "pods=6 k=3 verdict" "violated" (verdict h3);
  Alcotest.(check string) "pods=6 k=3 method" "graph" (meth h3)

let () =
  Alcotest.run "faults"
    [
      ( "eligibility",
        [
          Alcotest.test_case "pure-BGP fat tree is eligible" `Quick test_eligible_fattree;
          Alcotest.test_case "OSPF enterprise is not" `Quick test_ineligible_enterprise;
          Alcotest.test_case "device destination is not" `Quick
            test_ineligible_device_destination;
        ] );
      ( "min-cut",
        [ Alcotest.test_case "witness sizes match connectivity" `Quick test_min_cut_sizes ] );
      ( "graph-decision",
        [
          Alcotest.test_case "pods=2: k=0 holds, k=1 cuts" `Quick test_analyze_pods2;
          Alcotest.test_case "pods=4: k=1 holds, k=2 cuts" `Quick test_analyze_pods4;
          Alcotest.test_case "pods=6: k=2 holds, k=3 cuts" `Quick test_analyze_pods6;
          Alcotest.test_case "enterprise declines" `Quick test_enterprise_undecided;
        ] );
      ( "differential",
        [
          Alcotest.test_case "pods=2, k in 0..3" `Quick test_differential_pods2;
          Alcotest.test_case "pods=4, k in 1..2" `Quick test_differential_pods4;
          Alcotest.test_case "single-homed enterprise" `Quick test_differential_enterprise;
          Alcotest.test_case "certified with failure variables" `Quick
            test_certified_fault_invariant;
        ] );
      ( "hybrid",
        [
          Alcotest.test_case "graph path decides a one-link cut" `Quick test_graph_decides;
          Alcotest.test_case "graph first, verdict matches SMT" `Quick test_hybrid_graph_first;
          Alcotest.test_case "fallback honours the timeout" `Quick test_fallback_timeout;
          Alcotest.test_case "graph path needs no budget" `Quick test_graph_ignores_timeout;
          Alcotest.test_case "pods=6 both thresholds" `Quick test_hybrid_pods6;
        ] );
    ]
