(* Differential and fault-injection tests for the portfolio engine: on
   enterprise and fattree networks, racing the solver strategies must
   reproduce exactly the verdicts of a sequential Verify.Session over
   the same queries; a racer killed mid-race must not change the
   verdict, and every racer must be reaped whatever the outcome. *)

module MS = Minesweeper
module G = Generators
module A = Config.Ast
module Query = MS.Verify.Query
module Report = MS.Verify.Report

let verdicts reports = List.map (fun r -> Report.verdict_name r.Report.verdict) reports
let labels reports = List.map (fun r -> r.Report.label) reports

let check_same_reports name (expected : Report.t list) (got : Report.t list) =
  Alcotest.(check (list string)) (name ^ ": labels in query order") (labels expected) (labels got);
  Alcotest.(check (list string)) (name ^ ": verdicts") (verdicts expected) (verdicts got)

(* ---- suites -------------------------------------------------------------- *)

let enterprise_queries (t : G.Enterprise.t) =
  let net = t.G.Enterprise.network in
  let devices = List.map (fun (d : A.device) -> d.A.dev_name) net.A.net_devices in
  let target = List.hd (List.rev devices) in
  let mgmt_dest = MS.Property.Subnet (target, t.G.Enterprise.mgmt_prefix target) in
  let allowed = t.G.Enterprise.edge_routers @ t.G.Enterprise.rack_role in
  let base =
    [
      Query.v "mgmt-reachability" (fun enc -> MS.Property.reachability enc ~sources:devices mgmt_dest);
      Query.v "no-blackholes" (fun enc -> MS.Property.no_blackholes enc ~allowed ());
      Query.v "no-loops" (fun enc -> MS.Property.no_loops enc ());
      Query.v "isolation" (fun enc -> MS.Property.isolation enc ~sources:devices mgmt_dest);
    ]
  in
  match t.G.Enterprise.rack_role with
  | r1 :: r2 :: _ ->
    base @ [ Query.v "acl-equivalence" (fun enc -> MS.Property.acl_equivalence enc r1 r2) ]
  | _ -> base

let fattree_queries (ft : G.Fattree.t) =
  let dst_tor = List.hd ft.G.Fattree.tors in
  let other_tors = List.filter (fun t -> t <> dst_tor) ft.G.Fattree.tors in
  let dest = MS.Property.Subnet (dst_tor, ft.G.Fattree.tor_subnet dst_tor) in
  [
    Query.v "single-tor-reachability" (fun enc ->
        MS.Property.reachability enc ~sources:[ List.hd other_tors ] dest);
    Query.v "all-tor-reachability" (fun enc -> MS.Property.reachability enc ~sources:other_tors dest);
    Query.v "bounded-length" (fun enc ->
        MS.Property.bounded_length enc ~sources:other_tors dest ~bound:4);
    Query.v "multipath-consistency" (fun enc -> MS.Property.multipath_consistency enc dest);
    Query.v "no-blackholes" (fun enc ->
        MS.Property.no_blackholes enc ~allowed:ft.G.Fattree.cores ());
    Query.v "isolation-should-fail" (fun enc ->
        MS.Property.isolation enc ~sources:[ List.hd other_tors ] dest);
  ]

let differential name net queries =
  let enc = MS.Encode.build net MS.Options.default in
  let sequential = MS.Verify.Session.run (MS.Verify.Session.of_encoding enc) queries in
  Alcotest.(check int) (name ^ ": report count") (List.length queries) (List.length sequential);
  let pf = List.map (fun q -> Engine.portfolio enc q) queries in
  check_same_reports (name ^ " portfolio") sequential pf;
  List.iter
    (fun r ->
      match r.Report.strategy with
      | Some _ -> ()
      | None -> Alcotest.failf "%s: portfolio report %s names no strategy" name r.Report.label)
    pf

let test_enterprise_clean () =
  let t = G.Enterprise.make ~seed:3 ~routers:8 ~inject:G.Enterprise.no_bugs () in
  differential "enterprise clean" t.G.Enterprise.network (enterprise_queries t)

let test_enterprise_hijack () =
  let t =
    G.Enterprise.make ~seed:5 ~routers:8
      ~inject:{ G.Enterprise.hijack = true; acl_gap = false; deep_drop = false; single_homed = false }
      ()
  in
  differential "enterprise hijack" t.G.Enterprise.network (enterprise_queries t)

let test_fattree () =
  let ft = G.Fattree.make ~pods:2 in
  differential "fattree pods=2" ft.G.Fattree.network (fattree_queries ft)

(* ---- fault injection ----------------------------------------------------- *)

(* A query whose property thunk SIGKILLs the calling process — but only
   in forked racers (never in the test runner).  With [~always:false]
   exactly one racer dies: the first to create the marker file
   (O_EXCL, so racers cannot both win that race). *)
let poison_query label marker ~always parent_pid =
  Query.v label (fun enc ->
      if
        Unix.getpid () <> parent_pid
        && (always
           ||
           match Unix.openfile marker [ Unix.O_CREAT; Unix.O_EXCL; Unix.O_WRONLY ] 0o600 with
           | fd ->
             Unix.close fd;
             true
           | exception Unix.Unix_error (Unix.EEXIST, _, _) -> false)
      then Unix.kill (Unix.getpid ()) Sys.sigkill;
      MS.Property.no_loops enc ())

let fault_net () =
  let t = G.Enterprise.make ~seed:3 ~routers:8 ~inject:G.Enterprise.no_bugs () in
  t.G.Enterprise.network

(* Every racer was reaped: the test runner has no child left. *)
let check_reaped name =
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | pid, _ -> Alcotest.failf "%s: child %d left behind by the race" name pid

let loops_verdict enc =
  match
    MS.Verify.Session.run (MS.Verify.Session.of_encoding enc)
      [ Query.v "no-loops" (fun enc -> MS.Property.no_loops enc ()) ]
  with
  | [ r ] -> Report.verdict_name r.Report.verdict
  | _ -> Alcotest.fail "baseline"

let test_racer_killed () =
  let enc = MS.Encode.build (fault_net ()) MS.Options.default in
  let marker = Filename.temp_file "ms_poison" ".marker" in
  Sys.remove marker;
  let r = Engine.portfolio enc (poison_query "no-loops" marker ~always:false (Unix.getpid ())) in
  let killed = Sys.file_exists marker in
  if killed then Sys.remove marker;
  Alcotest.(check bool) "one racer was killed" true killed;
  Alcotest.(check string) "verdict of the sequential session" (loops_verdict enc)
    (Report.verdict_name r.Report.verdict);
  check_reaped "racer killed"

let test_all_racers_killed () =
  let enc = MS.Encode.build (fault_net ()) MS.Options.default in
  let r =
    Engine.portfolio enc
      (poison_query "poison" "/nonexistent-marker" ~always:true (Unix.getpid ()))
  in
  (match r.Report.verdict with
   | Report.Error "all portfolio racers crashed" -> ()
   | v -> Alcotest.failf "expected the all-crashed error, got %s" (Report.verdict_name v));
  Alcotest.(check string) "label kept" "poison" r.Report.label;
  check_reaped "every racer killed"

(* ---- timeouts ------------------------------------------------------------ *)

let timeout_queries () =
  [
    Query.v ~timeout:0.0 "doomed" (fun enc ->
        MS.Property.no_blackholes enc ());
    Query.v "normal" (fun enc -> MS.Property.no_loops enc ());
  ]

let test_timeout () =
  let enc = MS.Encode.build (fault_net ()) MS.Options.default in
  (match MS.Verify.Session.run (MS.Verify.Session.of_encoding enc) (timeout_queries ()) with
   | [ doomed; normal ] ->
     Alcotest.(check string) "sequential: doomed verdict" "timeout"
       (Report.verdict_name doomed.Report.verdict);
     Alcotest.(check string) "sequential: later query unaffected" (loops_verdict enc)
       (Report.verdict_name normal.Report.verdict)
   | rs -> Alcotest.failf "sequential: expected 2 reports, got %d" (List.length rs));
  (* portfolio: every racer times out, and none outlives the race *)
  let r = Engine.portfolio enc (List.hd (timeout_queries ())) in
  Alcotest.(check string) "portfolio: doomed verdict" "timeout"
    (Report.verdict_name r.Report.verdict);
  check_reaped "portfolio timeout"

(* ---- strategies ---------------------------------------------------------- *)

(* Every portfolio strategy is sound and complete: same verdicts on the
   same session-run suite. *)
let test_strategies_agree () =
  let ft = G.Fattree.make ~pods:2 in
  let enc = MS.Encode.build ft.G.Fattree.network MS.Options.default in
  let queries = fattree_queries ft in
  let baseline =
    verdicts (MS.Verify.Session.run (MS.Verify.Session.of_encoding enc) queries)
  in
  List.iter
    (fun (name, strategy) ->
      let got =
        verdicts (MS.Verify.Session.run (MS.Verify.Session.of_encoding ~strategy enc) queries)
      in
      Alcotest.(check (list string)) ("strategy " ^ name) baseline got)
    MS.Options.portfolio

(* ---- clause sharing ------------------------------------------------------ *)

(* Race-and-share must answer exactly like race-and-kill: shared
   clauses are consequences of the same input formula, so they steer
   the racers without changing any verdict. *)
let test_sharing_agrees () =
  let ft = G.Fattree.make ~pods:4 in
  let enc = MS.Encode.build ft.G.Fattree.network MS.Options.default in
  let queries = fattree_queries ft in
  let baseline =
    verdicts (MS.Verify.Session.run (MS.Verify.Session.of_encoding enc) queries)
  in
  let shared = verdicts (List.map (fun q -> Engine.portfolio ~share:true enc q) queries) in
  let solo = verdicts (List.map (fun q -> Engine.portfolio ~share:false enc q) queries) in
  Alcotest.(check (list string)) "sharing on" baseline shared;
  Alcotest.(check (list string)) "sharing off" baseline solo

(* Under --certify every imported clause is RUP-checked and logged by
   the importer, so the winner's certificate must still check whichever
   racer wins (and however many clauses it imported). *)
let test_sharing_certified () =
  let ft = G.Fattree.make ~pods:4 in
  let enc =
    MS.Encode.build ft.G.Fattree.network (MS.Options.with_certify MS.Options.default)
  in
  let dst_tor = List.hd ft.G.Fattree.tors in
  let other_tors = List.filter (fun t -> t <> dst_tor) ft.G.Fattree.tors in
  let dest = MS.Property.Subnet (dst_tor, ft.G.Fattree.tor_subnet dst_tor) in
  List.iter
    (fun q ->
      let r = Engine.portfolio ~share:true enc q in
      match r.Report.certificate with
      | Report.Checked_unsat_proof _ | Report.Checked_model -> ()
      | Report.Certification_failed msg ->
        Alcotest.failf "%s: certificate failed with sharing on: %s" r.Report.label msg
      | Report.Uncertified ->
        Alcotest.failf "%s: no certificate from a certify encoding (verdict %s)"
          r.Report.label
          (Report.verdict_name r.Report.verdict))
    [
      Query.v "all-tor-reachability" (fun enc ->
          MS.Property.reachability enc ~sources:other_tors dest);
      Query.v "isolation-should-fail" (fun enc ->
          MS.Property.isolation enc ~sources:[ List.hd other_tors ] dest);
    ]

(* ---- report surface ------------------------------------------------------ *)

let test_report_json () =
  let net = fault_net () in
  let enc = MS.Encode.build net MS.Options.default in
  let reports =
    MS.Verify.Session.run
      (MS.Verify.Session.of_encoding enc)
      [
        Query.v "no-loops" (fun enc -> MS.Property.no_loops enc ());
        Query.v "isolation \"quoted\"" (fun enc ->
            MS.Property.isolation enc
              ~sources:(MS.Encode.devices enc)
              (MS.Property.Device (List.hd (MS.Encode.devices enc))));
      ]
  in
  List.iter
    (fun r ->
      let j = Report.to_json r in
      List.iter
        (fun key ->
          let re = Str.regexp_string key in
          (try ignore (Str.search_forward re j 0)
           with Not_found -> Alcotest.failf "missing %s in %s" key j))
        [ "\"label\""; "\"verdict\""; "\"wall_ms\""; "\"worker\""; "\"stats\""; "\"conflicts\"" ])
    reports;
  (* escaping: the quoted label must not break the object *)
  (match reports with
   | [ _; quoted ] ->
     let j = Report.to_json quoted in
     (try ignore (Str.search_forward (Str.regexp_string "isolation \\\"quoted\\\"") j 0)
      with Not_found -> Alcotest.failf "label not escaped: %s" j)
   | _ -> Alcotest.fail "expected two reports");
  let arr = Report.list_to_json reports in
  if String.length arr < 2 || arr.[0] <> '[' then Alcotest.failf "not an array: %s" arr

let mk label verdict = { (Report.v label verdict) with Report.wall_ms = 1.0 }

let test_exit_codes () =
  let cx_free = mk "a" Report.Verified in
  Alcotest.(check int) "all hold" 0 (Report.exit_code [ cx_free; cx_free ]);
  Alcotest.(check int) "timeout" 3 (Report.exit_code [ cx_free; mk "t" Report.Timeout ]);
  Alcotest.(check int) "error" 3 (Report.exit_code [ mk "e" (Report.Error "x") ]);
  Alcotest.(check int) "empty" 0 (Report.exit_code [])

let () =
  Alcotest.run "engine"
    [
      ( "differential",
        [
          Alcotest.test_case "enterprise clean" `Quick test_enterprise_clean;
          Alcotest.test_case "enterprise hijack" `Quick test_enterprise_hijack;
          Alcotest.test_case "fattree pods=2" `Quick test_fattree;
        ] );
      ( "faults",
        [
          Alcotest.test_case "racer killed: race still decides" `Quick test_racer_killed;
          Alcotest.test_case "every racer killed: error" `Quick test_all_racers_killed;
          Alcotest.test_case "per-query timeout" `Quick test_timeout;
        ] );
      ("strategies", [ Alcotest.test_case "portfolio variants agree" `Quick test_strategies_agree ]);
      ( "sharing",
        [
          Alcotest.test_case "share on/off verdicts agree" `Quick test_sharing_agrees;
          Alcotest.test_case "certify with imports" `Quick test_sharing_certified;
        ] );
      ( "reports",
        [
          Alcotest.test_case "json shape" `Quick test_report_json;
          Alcotest.test_case "exit codes" `Quick test_exit_codes;
        ] );
    ]
