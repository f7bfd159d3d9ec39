(* Differential coverage for the CDCL(T) solver's search machinery:
   the restart-mode x rephasing grid must give identical verdicts with
   well-formed counterexamples on the enterprise and fattree suites; a
   QCheck differential pits the portfolio's strategy variants against
   the concrete routing simulator; a regression test pins down that
   early-SAT detection leaves theory atoms open for the theory; the
   clause-sharing tests check export and certified import; pinned
   search counts guard the search itself; and the fleet's hardest
   network is verified with certificates. *)

module MS = Minesweeper

(* shims over the Query/Report API for the bare outcomes these tests match on *)
let verify_check enc prop =
  MS.Verify.Report.to_outcome (MS.Verify.run_query enc (MS.Verify.Query.of_property "query" prop))
module G = Generators
module A = Config.Ast
module T = Smt.Term
module P = Net.Prefix
module Ip = Net.Ipv4

let parse = Config.Parser.parse_network
let violated = function MS.Verify.Violation _ -> true | MS.Verify.Holds -> false

(* Every forwarding edge of a decoded counterexample must be a next-hop
   the encoding actually offers. *)
let check_cx_valid name enc (cx : MS.Counterexample.t) =
  List.iter
    (fun (d, hop) ->
      if not (List.mem d (MS.Encode.devices enc)) then
        Alcotest.failf "%s: counterexample forwards at unknown device %s" name d;
      (match hop with
       | MS.Nexthop.To_device n ->
         if not (List.mem n (MS.Encode.internal_neighbors enc d)) then
           Alcotest.failf "%s: counterexample edge %s -> %s is not in the model" name d n
       | _ -> ());
      if not (List.mem hop (MS.Encode.hops enc d)) then
        Alcotest.failf "%s: counterexample hop at %s is not offered by the encoding" name d)
    cx.MS.Counterexample.forwarding

(* -- QCheck: random nets, random strategy variant, simulator oracle -------- *)

(* Random OSPF networks (a random tree plus an optional chord, random
   costs, one subnet per device, an optional ACL): subnet-to-subnet
   reachability under a random portfolio strategy variant must coincide
   with the concrete simulator. *)
let build_random_net seed =
  let rng = Random.State.make [| seed |] in
  let n = 3 + Random.State.int rng 3 in
  let b = Buffer.create 1024 in
  let link_id = ref 0 in
  let iface_count = Array.make n 0 in
  let links = ref [] in
  let add_link i j =
    let id = !link_id in
    incr link_id;
    links := (i, j, id) :: !links
  in
  for i = 1 to n - 1 do
    add_link (Random.State.int rng i) i
  done;
  if n > 3 && Random.State.bool rng then begin
    let i = Random.State.int rng n and j = Random.State.int rng n in
    if i <> j && not (List.exists (fun (a, b, _) -> (a = i && b = j) || (a = j && b = i)) !links)
    then add_link (min i j) (max i j)
  end;
  let acl_router = if Random.State.int rng 3 = 0 then Some (Random.State.int rng n) else None in
  for i = 0 to n - 1 do
    Buffer.add_string b (Printf.sprintf "hostname R%d\n" i);
    List.iter
      (fun (a, b', id) ->
        if a = i || b' = i then begin
          let side = if a = i then 1 else 2 in
          Buffer.add_string b
            (Printf.sprintf "interface e%d\n ip address 172.31.%d.%d/30\n ip ospf cost %d\n"
               iface_count.(i) id side
               (1 + ((id + i) mod 3)))
        end;
        if a = i || b' = i then iface_count.(i) <- iface_count.(i) + 1)
      !links;
    let acl = acl_router = Some i in
    Buffer.add_string b (Printf.sprintf "interface lan\n ip address 10.50.%d.1/24\n" i);
    if acl then begin
      Buffer.add_string b " ip access-group G out\n";
      Buffer.add_string b "access-list G deny ip any 10.50.0.0/16\naccess-list G permit ip any any\n"
    end;
    Buffer.add_string b "router ospf 1\n network 0.0.0.0/0\n!\n"
  done;
  (parse (Buffer.contents b), n)

let prop_strategy_oracle =
  QCheck.Test.make ~name:"random strategy variants match the routing simulator" ~count:20
    (QCheck.make QCheck.Gen.(int_range 0 99999))
    (fun seed ->
      let net, n = build_random_net seed in
      let sname, strategy =
        List.nth MS.Options.portfolio (seed mod List.length MS.Options.portfolio)
      in
      let opts = MS.Options.with_strategy strategy MS.Options.default in
      let state = Routing.Simulator.run net Routing.Simulator.empty_env in
      let src = "R0" in
      for dst = 1 to min 2 (n - 1) do
        let subnet = P.make (Ip.of_octets 10 50 dst 0) 24 in
        let concrete =
          Routing.Dataplane.reachable net state ~src ~dst:(Ip.of_octets 10 50 dst 77)
        in
        let enc = MS.Encode.build net opts in
        let prop =
          MS.Property.reachability enc ~sources:[ src ]
            (MS.Property.Subnet (Printf.sprintf "R%d" dst, subnet))
        in
        let symbolic = not (violated (verify_check enc prop)) in
        if concrete <> symbolic then
          QCheck.Test.fail_reportf "seed %d strategy %s dst R%d: simulator=%b encoder=%b" seed
            sname dst concrete symbolic
      done;
      true)

(* -- early-SAT: theory atoms stay open ------------------------------------- *)

(* [p \/ (x - y <= -1)] with the theory forcing x = y.  Early-SAT
   detection may stop the search on a partial assignment only once every
   theory atom is assigned: the atom must stay open until the
   difference-logic solver refutes it, leaving p to carry the
   disjunction. *)
let test_early_sat_theory_atom () =
  let s = Smt.Solver.create () in
  let x = T.var "x" Smt.Sort.Int in
  let y = T.var "y" Smt.Sort.Int in
  let p = T.var "p" Smt.Sort.Bool in
  Smt.Solver.assert_term s (T.or_ [ p; T.lt (T.sub x y) (T.int_const 0) ]);
  Smt.Solver.assert_term s (T.eq x y);
  (match Smt.Solver.check s with
   | Smt.Solver.Sat m ->
     Alcotest.(check bool) "p must be true" true (Smt.Model.bool_value m p);
     Alcotest.(check int) "x = y in the model" (Smt.Model.int_value m x)
       (Smt.Model.int_value m y)
   | Smt.Solver.Unsat -> Alcotest.fail "satisfiable: p true, x = y")

(* -- restart and phase scheduling: strategy differential ------------------- *)

(* The four restart-mode x rephasing corners.  Every corner is sound
   and complete: identical verdicts, valid counterexamples. *)
let strategy_combos =
  let d = Smt.Solver.default_strategy in
  [
    ("luby", { d with Smt.Solver.restart_mode = Smt.Solver.Luby; rephase = false });
    ("luby+rephase", { d with Smt.Solver.restart_mode = Smt.Solver.Luby; rephase = true });
    ("ema", { d with Smt.Solver.restart_mode = Smt.Solver.Ema_lbd; rephase = false });
    ("ema+rephase", { d with Smt.Solver.restart_mode = Smt.Solver.Ema_lbd; rephase = true });
  ]

let strategy_grid name net (props : (string * (MS.Encode.t -> MS.Property.t)) list) =
  let run strategy =
    let opts = MS.Options.with_strategy strategy MS.Options.default in
    let enc = MS.Encode.build net opts in
    ( enc,
      List.map
        (fun (pname, make) -> (pname, MS.Verify.run_query enc (MS.Verify.Query.v pname make)))
        props )
  in
  match strategy_combos with
  | [] -> assert false
  | (_, first) :: _ ->
    let _, baseline = run first in
    List.iter
      (fun (cname, strategy) ->
        let enc, reports = run strategy in
        List.iter2
          (fun (pname, (base : MS.Verify.Report.t)) (_, (r : MS.Verify.Report.t)) ->
            let basev = MS.Verify.Report.verdict_name base.MS.Verify.Report.verdict in
            let rv = MS.Verify.Report.verdict_name r.MS.Verify.Report.verdict in
            if basev <> rv then
              Alcotest.failf "%s/%s on %s: %s vs baseline %s" name cname pname rv basev;
            match r.MS.Verify.Report.verdict with
            | MS.Verify.Report.Violated cx ->
              check_cx_valid (name ^ "/" ^ cname ^ "/" ^ pname) enc cx
            | _ -> ())
          baseline reports)
      strategy_combos

let test_enterprise_strategy_grid () =
  let t =
    G.Enterprise.make ~seed:5 ~routers:8
      ~inject:{ G.Enterprise.hijack = true; acl_gap = false; deep_drop = false; single_homed = false }
      ()
  in
  let net = t.G.Enterprise.network in
  let devices = List.map (fun (d : A.device) -> d.A.dev_name) net.A.net_devices in
  let target = List.hd (List.rev devices) in
  let mgmt_dest = MS.Property.Subnet (target, t.G.Enterprise.mgmt_prefix target) in
  strategy_grid "enterprise" net
    [
      ("mgmt-reachability", fun enc -> MS.Property.reachability enc ~sources:devices mgmt_dest);
      ("no-loops", fun enc -> MS.Property.no_loops enc ());
    ]

let test_fattree_strategy_grid () =
  let ft = G.Fattree.make ~pods:2 in
  let net = ft.G.Fattree.network in
  let dst_tor = List.hd ft.G.Fattree.tors in
  let other_tors = List.filter (fun t -> t <> dst_tor) ft.G.Fattree.tors in
  let dest = MS.Property.Subnet (dst_tor, ft.G.Fattree.tor_subnet dst_tor) in
  strategy_grid "fattree" net
    [
      ( "all-tor-reachability",
        fun enc -> MS.Property.reachability enc ~sources:other_tors dest );
      ( "isolation-should-fail",
        fun enc -> MS.Property.isolation enc ~sources:[ List.hd other_tors ] dest );
    ]

(* Pigeonhole: n+1 pigeons into n holes.  Unsatisfiable with an
   exponential resolution lower bound — the cheapest way to force
   thousands of conflicts (hence restarts, rephases and low-LBD learnt
   clauses) out of a few dozen variables. *)
let add_pigeonhole s n =
  let var = Array.init (n + 1) (fun _ -> Array.init n (fun _ -> Smt.Sat.new_var s)) in
  for p = 0 to n do
    Smt.Sat.add_clause s (List.init n (fun h -> Smt.Sat.pos_lit var.(p).(h)))
  done;
  for h = 0 to n - 1 do
    for p1 = 0 to n do
      for p2 = p1 + 1 to n do
        Smt.Sat.add_clause s [ Smt.Sat.neg_lit var.(p1).(h); Smt.Sat.neg_lit var.(p2).(h) ]
      done
    done
  done

(* The adaptive machinery must actually engage on a conflict-heavy
   instance: EMA-triggered restarts, at least one blocked restart or
   none (blocking needs 5000+ conflicts; don't demand it), and
   rephasing on its widening cadence. *)
let test_ema_rephase_engage () =
  let s = Smt.Sat.create () in
  Smt.Sat.set_strategy s
    { Smt.Sat.default_strategy with Smt.Sat.restart_mode = Smt.Sat.Ema_lbd; rephase = true };
  add_pigeonhole s 7;
  (match Smt.Sat.solve s with
   | Smt.Sat.Unsat -> ()
   | Smt.Sat.Sat -> Alcotest.fail "pigeonhole 8->7 must be unsat");
  if Smt.Sat.num_conflicts s < 1000 then
    Alcotest.failf "expected a conflict-heavy run, got %d conflicts" (Smt.Sat.num_conflicts s);
  if Smt.Sat.num_ema_restarts s = 0 then
    Alcotest.fail "Ema_lbd mode performed no EMA-triggered restart";
  if Smt.Sat.num_rephases s = 0 then Alcotest.fail "rephasing never fired"

(* -- clause sharing: export, certified import ------------------------------ *)

(* Exporter A and importer B solve the same CNF (identical variable
   numbering).  A's exported low-LBD clauses import into B with proof
   logging on; B's trace — inputs, P_rup imports, its own learnt
   clauses — must then replay through the independent checker.  This is
   the single-process version of the portfolio exchange, deterministic
   enough for CI. *)
let test_sharing_certified () =
  let a = Smt.Sat.create () in
  Smt.Sat.set_share a ~max_lbd:8 ~max_len:30;
  add_pigeonhole a 7;
  (match Smt.Sat.solve a with
   | Smt.Sat.Unsat -> ()
   | Smt.Sat.Sat -> Alcotest.fail "exporter: pigeonhole must be unsat");
  let exported = Smt.Sat.drain_exports a in
  if exported = [] then Alcotest.fail "exporter produced no shareable clauses";
  Alcotest.(check int) "exported counter" (List.length exported) (Smt.Sat.num_exported a);
  let b = Smt.Sat.create () in
  Smt.Sat.enable_proof b;
  add_pigeonhole b 7;
  let accepted =
    List.fold_left (fun k c -> if Smt.Sat.import_clause b c then k + 1 else k) 0 exported
  in
  if accepted = 0 then Alcotest.fail "no exported clause was RUP for the importer";
  Alcotest.(check int) "imported counter" accepted (Smt.Sat.num_imported b);
  (match Smt.Sat.solve b with
   | Smt.Sat.Unsat -> ()
   | Smt.Sat.Sat -> Alcotest.fail "importer: pigeonhole must be unsat");
  match Proof.Checker.run ~goal:Proof.Checker.Empty (Smt.Sat.proof_steps b) with
  | Ok summary ->
    if summary.Proof.Checker.rup_checked < accepted then
      Alcotest.failf "checker confirmed %d RUP steps, expected at least the %d imports"
        summary.Proof.Checker.rup_checked accepted
  | Error msg -> Alcotest.failf "importer trace rejected: %s" msg

(* A clause that is NOT a consequence must be refused by the certified
   import path (and accepted blindly with proof off — the caller owns
   provenance there, exactly like [P_input]). *)
let test_import_non_rup_dropped () =
  let b = Smt.Sat.create () in
  Smt.Sat.enable_proof b;
  let x = Smt.Sat.new_var b in
  let y = Smt.Sat.new_var b in
  Smt.Sat.add_clause b [ Smt.Sat.pos_lit x; Smt.Sat.pos_lit y ];
  (* [x] alone is not RUP: negating it propagates nothing contradictory *)
  if Smt.Sat.import_clause b [| Smt.Sat.pos_lit x |] then
    Alcotest.fail "non-RUP import accepted under proof logging";
  Alcotest.(check int) "nothing imported" 0 (Smt.Sat.num_imported b)

(* -- pinned search ------------------------------------------------------------ *)

(* Conflicts, decisions and propagations of fixed queries, pinned to the
   values the solver produces with chronological backtracking.  The pins
   moved when the core stopped jumping back to the asserting level
   after every conflict: that changes which assignments the search
   visits, and so all three counts.  A change meant only to make the SAT
   kernel faster must leave the search itself, and so every one of these
   counts, unchanged. *)
let search_counts (r : MS.Verify.Report.t) =
  let st = r.MS.Verify.Report.stats in
  (st.Smt.Solver.conflicts, st.Smt.Solver.decisions, st.Smt.Solver.propagations)

let check_counts name expected r =
  Alcotest.(check (triple int int int)) name expected (search_counts r)

let test_pinned_fattree_session () =
  let ft = G.Fattree.make ~pods:4 in
  let net = ft.G.Fattree.network in
  let s = MS.Verify.Session.of_encoding (MS.Encode.build net MS.Options.default) in
  let reach dst =
    let sources = List.filter (fun t -> t <> dst) ft.G.Fattree.tors in
    MS.Verify.Query.v ("reach->" ^ dst) (fun enc ->
        MS.Property.reachability enc ~sources
          (MS.Property.Subnet (dst, ft.G.Fattree.tor_subnet dst)))
  in
  List.iter
    (fun (dst, expected) -> check_counts ("reach->" ^ dst) expected (MS.Verify.Session.run_one s (reach dst)))
    [
      ("tor_0_0", (2204, 7371, 420526));
      ("tor_3_1", (1307, 2642, 258653));
      ("tor_1_0", (910, 1852, 197198));
    ]

let test_pinned_enterprise_mgmt () =
  let t =
    G.Enterprise.make ~bulk:98 ~seed:1004 ~routers:6
      ~inject:{ G.Enterprise.no_bugs with G.Enterprise.hijack = true }
      ()
  in
  let net = t.G.Enterprise.network in
  let devices = List.map (fun (d : A.device) -> d.A.dev_name) net.A.net_devices in
  let last = List.nth devices (List.length devices - 1) in
  let q =
    MS.Verify.Query.v "mgmt-reachability" (fun enc ->
        MS.Property.reachability enc ~sources:devices
          (MS.Property.Subnet (last, t.G.Enterprise.mgmt_prefix last)))
  in
  let s = MS.Verify.Session.of_encoding (MS.Encode.build net MS.Options.default) in
  check_counts "mgmt-reachability" (119, 3403, 42884) (MS.Verify.Session.run_one s q)

(* -- certified worst case ----------------------------------------------------- *)

(* The hardest network of the seed-1 fleet audit (schedule index 18:
   24 routers, a hijack injected, generator seed 1018), built as the
   fleet-audit benchmark builds it: printed, parsed back, encoded under
   the default options and asked its three questions on one session.
   Every verdict must carry a checked certificate and match the
   injection label, and the search must have taken the out-of-order
   path and hit theory conflicts, so the certificates cover both. *)
let test_certified_fleet_worst () =
  let routers = 24 in
  let t =
    G.Enterprise.make ~bulk:(8 + (routers * 15)) ~seed:1018 ~routers
      ~inject:{ G.Enterprise.no_bugs with G.Enterprise.hijack = true }
      ()
  in
  let net = parse (Config.Printer.network_to_string t.G.Enterprise.network) in
  let devices = List.map (fun (d : A.device) -> d.A.dev_name) net.A.net_devices in
  let last = List.nth devices (List.length devices - 1) in
  let queries =
    let q = MS.Verify.Query.v in
    [
      ( q "mgmt-reachability" (fun enc ->
            MS.Property.reachability enc ~sources:devices
              (MS.Property.Subnet (last, t.G.Enterprise.mgmt_prefix last))),
        true );
      ( q "no-blackholes" (fun enc ->
            MS.Property.no_blackholes enc
              ~allowed:(t.G.Enterprise.edge_routers @ t.G.Enterprise.rack_role)
              ()),
        false );
    ]
    @
    match t.G.Enterprise.rack_role with
    | r1 :: r2 :: _ ->
      [ (q "acl-equivalence" (fun enc -> MS.Property.acl_equivalence enc r1 r2), false) ]
    | _ -> Alcotest.fail "the worst fleet network has two rack routers"
  in
  let s =
    MS.Verify.Session.of_encoding (MS.Encode.build net (MS.Options.with_certify MS.Options.default))
  in
  let chrono = ref 0 and theory = ref 0 in
  List.iter
    (fun ((q : MS.Verify.Query.t), violated) ->
      let r = MS.Verify.Session.run_one s q in
      let label = r.MS.Verify.Report.label in
      (match r.MS.Verify.Report.certificate with
       | MS.Verify.Report.Checked_unsat_proof _ | MS.Verify.Report.Checked_model -> ()
       | c -> Alcotest.failf "%s: certificate %s" label (MS.Verify.Report.certificate_name c));
      let got =
        match r.MS.Verify.Report.verdict with
        | MS.Verify.Report.Violated _ -> true
        | MS.Verify.Report.Verified -> false
        | v -> Alcotest.failf "%s: verdict %s" label (MS.Verify.Report.verdict_name v)
      in
      Alcotest.(check bool) (label ^ " matches its injection label") violated got;
      chrono := !chrono + r.MS.Verify.Report.stats.Smt.Solver.chrono_backtracks;
      theory := !theory + r.MS.Verify.Report.stats.Smt.Solver.theory_rounds)
    queries;
  if !chrono = 0 then Alcotest.fail "no chronological backtrack kept a literal";
  if !theory = 0 then Alcotest.fail "no theory conflict was raised"

let () =
  Alcotest.run "solver"
    [
      ( "strategy-grid",
        [
          Alcotest.test_case "enterprise restart x rephase" `Quick
            test_enterprise_strategy_grid;
          Alcotest.test_case "fattree restart x rephase" `Quick test_fattree_strategy_grid;
          Alcotest.test_case "ema + rephase engage" `Quick test_ema_rephase_engage;
        ] );
      ( "sharing",
        [
          Alcotest.test_case "certified import round-trip" `Quick test_sharing_certified;
          Alcotest.test_case "non-RUP import dropped" `Quick test_import_non_rup_dropped;
        ] );
      ("early-sat", [ Alcotest.test_case "theory atom stays open" `Quick test_early_sat_theory_atom ]);
      ( "pinned-search",
        [
          Alcotest.test_case "fat tree pods=4 reachability session" `Quick
            test_pinned_fattree_session;
          Alcotest.test_case "enterprise management reachability" `Quick
            test_pinned_enterprise_mgmt;
        ] );
      ( "certified-worst-case",
        [ Alcotest.test_case "fleet net 18 (24 routers)" `Quick test_certified_fleet_worst ] );
      ("oracle", [ QCheck_alcotest.to_alcotest prop_strategy_oracle ]);
    ]
