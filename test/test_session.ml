(* Differential tests for incremental verification sessions: on
   generated enterprise and fattree networks, Verify.Session.run
   must produce exactly the verdicts of independent fresh-solver
   Verify.run_query calls, and the counterexamples it decodes must be
   well-formed forwarding states of the same encoding. *)

module MS = Minesweeper
module G = Generators
module A = Config.Ast

(* Every forwarding edge of a decoded counterexample must be a next-hop
   the encoding actually offers (internal edges point at model
   neighbors; named hops exist on the device). *)
let check_cx_valid enc (cx : MS.Counterexample.t) =
  List.iter
    (fun (d, hop) ->
      if not (List.mem d (MS.Encode.devices enc)) then
        Alcotest.failf "counterexample forwards at unknown device %s" d;
      (match hop with
       | MS.Nexthop.To_device n ->
         if not (List.mem n (MS.Encode.internal_neighbors enc d)) then
           Alcotest.failf "counterexample edge %s -> %s is not in the model" d n
       | _ -> ());
      if not (List.mem hop (MS.Encode.hops enc d)) then
        Alcotest.failf "counterexample hop at %s is not offered by the encoding" d)
    cx.MS.Counterexample.forwarding

let differential name net (props : (string * (MS.Encode.t -> MS.Property.t)) list) =
  let opts = MS.Options.default in
  (* Baseline: one fresh encoding and one fresh single-shot solver per
     query — the cold Query/Report path. *)
  let baseline =
    List.map
      (fun (_, make) ->
        let enc = MS.Encode.build net opts in
        MS.Verify.Report.to_outcome (MS.Verify.run_query enc (MS.Verify.Query.v "query" make)))
      props
  in
  (* Session: one encoding, one incremental solver, all queries —
     driven through the Query/Report surface. *)
  let session = MS.Verify.Session.create net opts in
  let queries = List.map (fun (pname, make) -> MS.Verify.Query.v pname make) props in
  let reports = MS.Verify.Session.run session queries in
  let enc = MS.Verify.Session.encoding session in
  Alcotest.(check int)
    (name ^ ": query count")
    (List.length props)
    (MS.Verify.Session.queries session);
  List.iteri
    (fun i ((pname, _), (base, (report : MS.Verify.Report.t))) ->
      if report.MS.Verify.Report.label <> pname then
        Alcotest.failf "%s: report %d labelled %s, expected %s" name i
          report.MS.Verify.Report.label pname;
      let sess = MS.Verify.Report.verdict_name report.MS.Verify.Report.verdict in
      let base_name =
        match base with MS.Verify.Holds -> "verified" | MS.Verify.Violation _ -> "violated"
      in
      if base_name <> sess then
        Alcotest.failf "%s: %s (query %d): fresh solver says %s, session says %s" name pname i
          base_name sess;
      match report.MS.Verify.Report.verdict with
      | MS.Verify.Report.Violated cx -> check_cx_valid enc cx
      | _ -> ())
    (List.combine props (List.combine baseline reports))

(* ---- enterprise fleet samples, one per injected violation class ---- *)

let enterprise_props (t : G.Enterprise.t) =
  let net = t.G.Enterprise.network in
  let devices = List.map (fun (d : A.device) -> d.A.dev_name) net.A.net_devices in
  let target = List.hd (List.rev devices) in
  let mgmt_dest = MS.Property.Subnet (target, t.G.Enterprise.mgmt_prefix target) in
  let allowed = t.G.Enterprise.edge_routers @ t.G.Enterprise.rack_role in
  let base =
    [
      ( "mgmt-reachability",
        fun enc -> MS.Property.reachability enc ~sources:devices mgmt_dest );
      ("no-blackholes", fun enc -> MS.Property.no_blackholes enc ~allowed ());
      ("no-loops", fun enc -> MS.Property.no_loops enc ());
    ]
  in
  match t.G.Enterprise.rack_role with
  | r1 :: r2 :: _ ->
    base @ [ ("acl-equivalence", fun enc -> MS.Property.acl_equivalence enc r1 r2) ]
  | _ -> base

let test_enterprise_clean () =
  let t = G.Enterprise.make ~seed:3 ~routers:8 ~inject:G.Enterprise.no_bugs () in
  differential "enterprise clean" t.G.Enterprise.network (enterprise_props t)

let test_enterprise_hijack () =
  let t =
    G.Enterprise.make ~seed:5 ~routers:8
      ~inject:{ G.Enterprise.hijack = true; acl_gap = false; deep_drop = false; single_homed = false }
      ()
  in
  differential "enterprise hijack" t.G.Enterprise.network (enterprise_props t)

let test_enterprise_acl_gap () =
  let t =
    G.Enterprise.make ~seed:7 ~routers:8
      ~inject:{ G.Enterprise.hijack = false; acl_gap = true; deep_drop = false; single_homed = false }
      ()
  in
  differential "enterprise acl-gap" t.G.Enterprise.network (enterprise_props t)

let test_enterprise_deep_drop () =
  let t =
    G.Enterprise.make ~seed:11 ~routers:8
      ~inject:{ G.Enterprise.hijack = false; acl_gap = false; deep_drop = true; single_homed = false }
      ()
  in
  differential "enterprise deep-drop" t.G.Enterprise.network (enterprise_props t)

(* ---- fattree ---- *)

let test_fattree () =
  let ft = G.Fattree.make ~pods:2 in
  let net = ft.G.Fattree.network in
  let dst_tor = List.hd ft.G.Fattree.tors in
  let other_tors = List.filter (fun t -> t <> dst_tor) ft.G.Fattree.tors in
  let dest = MS.Property.Subnet (dst_tor, ft.G.Fattree.tor_subnet dst_tor) in
  differential "fattree pods=2" net
    [
      ( "single-tor-reachability",
        fun enc -> MS.Property.reachability enc ~sources:[ List.hd other_tors ] dest );
      ( "all-tor-reachability",
        fun enc -> MS.Property.reachability enc ~sources:other_tors dest );
      ( "bounded-length",
        fun enc -> MS.Property.bounded_length enc ~sources:other_tors dest ~bound:4 );
      ("multipath-consistency", fun enc -> MS.Property.multipath_consistency enc dest);
      ( "no-blackholes",
        fun enc -> MS.Property.no_blackholes enc ~allowed:ft.G.Fattree.cores () );
      ( "isolation-should-fail",
        fun enc -> MS.Property.isolation enc ~sources:[ List.hd other_tors ] dest );
    ]

(* Re-running the same suite twice through one session must not change
   any verdict: the retired activation literals of earlier queries must
   leave no semantic trace. *)
let test_session_idempotent () =
  let ft = G.Fattree.make ~pods:2 in
  let net = ft.G.Fattree.network in
  let dst_tor = List.hd ft.G.Fattree.tors in
  let other_tors = List.filter (fun t -> t <> dst_tor) ft.G.Fattree.tors in
  let dest = MS.Property.Subnet (dst_tor, ft.G.Fattree.tor_subnet dst_tor) in
  let props =
    [
      (fun enc -> MS.Property.reachability enc ~sources:other_tors dest);
      (fun enc -> MS.Property.isolation enc ~sources:other_tors dest);
    ]
  in
  let session = MS.Verify.Session.create net MS.Options.default in
  let queries = List.mapi (fun i make -> MS.Verify.Query.v (Printf.sprintf "q%d" i) make) props in
  let verdict (r : MS.Verify.Report.t) =
    MS.Verify.Report.verdict_name r.MS.Verify.Report.verdict
  in
  let first = MS.Verify.Session.run session queries in
  let second = MS.Verify.Session.run session queries in
  List.iteri
    (fun i (a, b) ->
      if verdict a <> verdict b then
        Alcotest.failf "query %d changed verdict across repetitions: %s then %s" i (verdict a)
          (verdict b))
    (List.combine first second)

(* A warm session must keep reusing the Tseitin definitions of what it
   has already blasted even after a collection: the solver owns every
   term it has blasted, so rebuilding the same property after
   [Gc.full_major] hits its memo instead of re-blasting.  Reachability
   builds fresh instrumentation variables on every ask; no-blackholes
   is built wholly from encoding terms, so it is the ask that would
   re-blast were the memo to lose its terms. *)
let test_warm_reuse_survives_gc () =
  let t = G.Enterprise.make ~seed:1008 ~routers:8 ~inject:G.Enterprise.no_bugs () in
  let net = t.G.Enterprise.network in
  let devices = List.map (fun (d : A.device) -> d.A.dev_name) net.A.net_devices in
  let target = List.hd (List.rev devices) in
  let dest = MS.Property.Subnet (target, t.G.Enterprise.mgmt_prefix target) in
  let allowed = t.G.Enterprise.edge_routers @ t.G.Enterprise.rack_role in
  List.iter
    (fun q ->
      let session = MS.Verify.Session.create net MS.Options.default in
      let ask () =
        ignore (MS.Verify.Session.run_one session q);
        (MS.Verify.Session.stats session).Smt.Solver.sat_vars
      in
      let v1 = ask () in
      let v2 = ask () in
      Gc.full_major ();
      let v3 = ask () in
      if v3 - v2 > v2 - v1 then
        Alcotest.failf "%s: the ask after a GC added %d SAT variables, the warm ask before it %d"
          q.MS.Verify.Query.label (v3 - v2) (v2 - v1))
    [
      MS.Verify.Query.v "reachability" (fun enc ->
          MS.Property.reachability enc ~sources:devices dest);
      MS.Verify.Query.v "no-blackholes" (fun enc -> MS.Property.no_blackholes enc ~allowed ());
    ]

let () =
  Alcotest.run "session"
    [
      ( "differential",
        [
          Alcotest.test_case "enterprise clean" `Quick test_enterprise_clean;
          Alcotest.test_case "enterprise hijack" `Quick test_enterprise_hijack;
          Alcotest.test_case "enterprise acl-gap" `Quick test_enterprise_acl_gap;
          Alcotest.test_case "enterprise deep-drop" `Quick test_enterprise_deep_drop;
          Alcotest.test_case "fattree pods=2" `Quick test_fattree;
        ] );
      ("idempotence", [ Alcotest.test_case "repeat suite" `Quick test_session_idempotent ]);
      ( "lifetime",
        [ Alcotest.test_case "warm reuse survives a GC" `Quick test_warm_reuse_survives_gc ] );
    ]
