(* Benchmark harness regenerating every table and figure of the paper's
   evaluation (§8).  One sub-benchmark per artifact:

     fig7        verification time for four properties across the
                 152-network enterprise fleet (§8.1, Figure 7)
     violations  violation counts per property class (§8.1 text)
     fig8        verification time for the property suite across
                 folded-Clos data centers of increasing size (Figure 8)
     opts        optimization ablation (§8.3): naive bit-vector
                 encoding vs prefix hoisting vs hoisting+slicing
     batch       incremental verification session vs N fresh solvers
                 on the fig7 property suite; writes BENCH_batch.json
                 (--smoke: subsampled, exits 1 if the session path is
                 not faster or any verdict diverges)
     solver      the restart-mode / rephasing strategy grid ({Luby,
                 Ema_lbd} x {rephase on, off}) on the enterprise and
                 fattree suites; writes BENCH_solver.json (--smoke:
                 verdict agreement across the grid is gated)
     certify     certification overhead: the enterprise + fattree
                 suites answered plain and with --certify (UNSAT
                 proofs replayed through the independent checker, SAT
                 models evaluated and simulated); writes
                 BENCH_certify.json.  Verdict agreement, zero
                 uncertified verdicts, and both certificate kinds are
                 always gated; the 2x overhead budget is gated above a
                 noise floor
     scale       symmetry-reduction sweep over fat-trees of paper
                 scale (pods 2-18, i.e. 5-405 routers): the all-ToR
                 query set (two pinned destination ToRs) with the
                 quotient encoding vs one incremental session on the
                 full encoding; writes BENCH_scale.json and (--full)
                 checkpoints each completed point to
                 BENCH_scale.rows.jsonl, restored by --resume.
                 Verdict agreement (quotient vs full, Ema_lbd vs Luby
                 restarts, clause sharing vs off) is gated on every
                 completed point; once one full-mode point blows the
                 wall-clock budget the remaining full points are
                 skipped with an explicit label (the quotient points
                 always run to 405 routers).  The quotient ratio is a
                 gated speedup only where classes actually collapse
                 devices, and labelled overhead elsewhere; --smoke
                 additionally gates clause sharing firing on the full
                 encoding
     arena       memory behavior of the arena SAT core: steady-state
                 minor-heap allocation per propagation on a long
                 implication chain, the hardest query's arena
                 footprint (fresh solver vs incremental session), and
                 compaction under reduction stress; writes
                 BENCH_arena.json (--smoke: gates verdict agreement,
                 the ~0 words/propagation ceiling and the compaction
                 path)
     serve       the verification-as-a-service loop: a delta daemon
                 absorbing config churn via diff + core-disjoint
                 verdict replay vs a cold daemon re-verifying each
                 step from scratch; writes BENCH_serve.json.  Verdict
                 agreement is always gated; --smoke additionally gates
                 non-zero replay/cache-hit counters and a 2x speedup
                 floor for diffs touching <= 20% of the devices
     fault       <=k-failure invariance (k in {1,2,3}) on both
                 generators, answered twice: the hybrid engine (graph
                 min-cut fast path racing the two-copy SMT encoding)
                 vs the SMT encoding alone; writes BENCH_fault.json.
                 Cross-path verdict agreement is always gated;
                 --smoke additionally gates the graph path deciding
                 at least one query and a 2x hybrid speedup on the
                 graph-decided subset above a noise floor
     micro       Bechamel micro-benchmarks of the SMT substrate
     all         everything above

   Usage: dune exec bench/main.exe -- [fig7|fig8|opts|violations|batch|solver|certify|scale|arena|serve|fault|micro|all] [--full|--smoke] [--resume]

   By default the expensive sweeps are subsampled so the whole harness
   finishes in minutes; pass --full for the complete paper-scale runs
   (the largest fabrics take several minutes per query). *)

module MS = Minesweeper
module G = Generators
module A = Config.Ast

let full = ref false

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.0)

let outcome_str = function MS.Verify.Holds -> "verified" | MS.Verify.Violation _ -> "violated"

(* shims over the Query/Report API for the single-shot outcomes the
   benchmarks time *)
let verify_check enc prop =
  MS.Verify.Report.to_outcome (MS.Verify.run_query enc (MS.Verify.Query.of_property "query" prop))

let verify_net net opts make =
  let enc = MS.Encode.build net opts in
  MS.Verify.Report.to_outcome (MS.Verify.run_query enc (MS.Verify.Query.v "query" make))

let query_with_stats enc prop =
  let r = MS.Verify.run_query enc (MS.Verify.Query.of_property "query" prop) in
  (MS.Verify.Report.to_outcome r, r.MS.Verify.Report.stats)

(* ---------------- Figure 7: the enterprise fleet ---------------- *)

(* The four §8.1 checks, each returning (outcome, milliseconds). *)
let check_mgmt (t : G.Enterprise.t) =
  let net = t.G.Enterprise.network in
  let devices = List.map (fun (d : A.device) -> d.A.dev_name) net.A.net_devices in
  let target = List.hd (List.rev devices) in
  time (fun () ->
      let enc = MS.Encode.build net MS.Options.default in
      verify_check enc
        (MS.Property.reachability enc ~sources:devices
           (MS.Property.Subnet (target, t.G.Enterprise.mgmt_prefix target))))

let check_equiv (t : G.Enterprise.t) =
  match t.G.Enterprise.rack_role with
  | r1 :: r2 :: _ ->
    Some
      (time (fun () ->
           let enc = MS.Encode.build t.G.Enterprise.network MS.Options.default in
           verify_check enc (MS.Property.acl_equivalence enc r1 r2)))
  | _ -> None

let check_blackholes (t : G.Enterprise.t) =
  let allowed = t.G.Enterprise.edge_routers @ t.G.Enterprise.rack_role in
  time (fun () ->
      let enc = MS.Encode.build t.G.Enterprise.network MS.Options.default in
      verify_check enc (MS.Property.no_blackholes enc ~allowed ()))

(* Fault invariance over day-to-day (host-space) reachability, matching
   the paper's all-router-pairs check; management reachability is the
   separate hijack audit. *)
let check_fault_invariance (t : G.Enterprise.t) =
  let net = t.G.Enterprise.network in
  let devices = List.map (fun (d : A.device) -> d.A.dev_name) net.A.net_devices in
  let target, prefix =
    match List.rev t.G.Enterprise.rack_role with
    | r :: _ -> (r, t.G.Enterprise.rack_subnet r)
    | [] ->
      let d = List.hd (List.rev devices) in
      (d, t.G.Enterprise.mgmt_prefix d)
  in
  time (fun () ->
      MS.Verify.Report.to_outcome
        (MS.Verify.fault_invariant net MS.Options.default ~k:1 ~sources:devices
           (MS.Property.Subnet (target, prefix))))

let summarize name times =
  match times with
  | [] -> ()
  | _ ->
    let n = List.length times in
    let total = List.fold_left ( +. ) 0.0 times in
    let sorted = List.sort compare times in
    Printf.printf
      "  %-28s n=%-4d min=%8.1f ms  median=%8.1f ms  max=%8.1f ms  mean=%8.1f ms\n%!" name n
      (List.nth sorted 0)
      (List.nth sorted (n / 2))
      (List.nth sorted (n - 1))
      (total /. float_of_int n)

let fleet_sample () =
  let fleet = G.Enterprise.fleet () in
  if !full then fleet else List.filteri (fun i _ -> i mod 4 = 0) fleet

let fig7 () =
  print_endline "== Figure 7: per-network verification time, enterprise fleet ==";
  print_endline "   (rows sorted by configuration size, as in the paper)";
  Printf.printf "   %-4s %-6s %12s %12s %12s\n%!" "rtrs" "lines" "mgmt-reach" "local-equiv"
    "blackholes";
  let nets = fleet_sample () in
  let m_times = ref [] and e_times = ref [] and b_times = ref [] and f_times = ref [] in
  List.iter
    (fun (t : G.Enterprise.t) ->
      let lines = Config.Printer.network_config_lines t.G.Enterprise.network in
      let routers = List.length t.G.Enterprise.network.A.net_devices in
      let _, mt = check_mgmt t in
      m_times := mt :: !m_times;
      let et =
        match check_equiv t with
        | Some (_, et) ->
          e_times := et :: !e_times;
          Printf.sprintf "%10.1f" et
        | None -> "         -"
      in
      let _, bt = check_blackholes t in
      b_times := bt :: !b_times;
      Printf.printf "   %-4d %-6d %10.1f %12s %10.1f\n%!" routers lines mt et bt)
    (List.sort
       (fun a b ->
         compare
           (Config.Printer.network_config_lines a.G.Enterprise.network)
           (Config.Printer.network_config_lines b.G.Enterprise.network))
       nets);
  (* fault-invariance doubles the encoding; sample it *)
  let fi_nets = List.filteri (fun i _ -> i mod 2 = 0) nets in
  List.iter
    (fun t ->
      let _, ft = check_fault_invariance t in
      f_times := ft :: !f_times)
    fi_nets;
  print_endline
    "  -- summary (paper, 2-25 rtr networks: 2-60ms reach, 5-400ms equiv, <1.5s others) --";
  summarize "management reachability" !m_times;
  summarize "local equivalence" !e_times;
  summarize "no blackholes" !b_times;
  summarize "fault invariance" !f_times

(* ---------------- §8.1 violation counts ---------------- *)

let violations () =
  print_endline
    "== Violations across the 152-network fleet (paper: 67 / 29 / 24 / 0; fleet adds 16 \
     injected single-homed racks) ==";
  let fleet = G.Enterprise.fleet () in
  let hijacks = ref 0 and equivs = ref 0 and holes = ref 0 and fault = ref 0 in
  let checked_fi = ref 0 in
  List.iteri
    (fun i (t : G.Enterprise.t) ->
      (match fst (check_mgmt t) with MS.Verify.Violation _ -> incr hijacks | MS.Verify.Holds -> ());
      (match check_equiv t with
       | Some (MS.Verify.Violation _, _) -> incr equivs
       | Some (MS.Verify.Holds, _) | None -> ());
      (match fst (check_blackholes t) with
       | MS.Verify.Violation _ -> incr holes
       | MS.Verify.Holds -> ());
      if !full || i mod 8 = 0 then begin
        incr checked_fi;
        match fst (check_fault_invariance t) with
        | MS.Verify.Violation _ -> incr fault
        | MS.Verify.Holds -> ()
      end;
      if i mod 19 = 18 then Printf.printf "  ... %d/152 networks audited\n%!" (i + 1))
    fleet;
  Printf.printf "  management-interface hijacks : %d (paper: 67)\n" !hijacks;
  Printf.printf "  local-equivalence violations : %d (paper: 29)\n" !equivs;
  Printf.printf "  blackhole violations         : %d (paper: 24)\n" !holes;
  Printf.printf
    "  fault-invariance violations  : %d of %d checked (fleet injects 16 single-homed racks; \
     paper found 0)\n%!"
    !fault !checked_fi

(* ---------------- Figure 8: folded-Clos sweep ---------------- *)

let fig8_one pods =
  let ft = G.Fattree.make ~pods in
  let net = ft.G.Fattree.network in
  let n = List.length net.A.net_devices in
  Printf.printf "  -- %d pods (%d routers) --\n%!" pods n;
  let dst_tor = List.hd ft.G.Fattree.tors in
  let other_tors = List.filter (fun t -> t <> dst_tor) ft.G.Fattree.tors in
  let dest = MS.Property.Subnet (dst_tor, ft.G.Fattree.tor_subnet dst_tor) in
  (* ToRs of one pod other than the destination's, for the equal-length query *)
  let other_pod_tors =
    List.filter
      (fun t ->
        match String.split_on_char '_' t with
        | [ _; p; _ ] -> p = "1"
        | _ -> false)
      ft.G.Fattree.tors
  in
  let run name prop =
    let o, ms =
      time (fun () ->
          let enc = MS.Encode.build net MS.Options.default in
          verify_check enc (prop enc))
    in
    Printf.printf "     %-28s %-9s %10.1f ms\n%!" name (outcome_str o) ms
  in
  run "no blackholes" (fun enc -> MS.Property.no_blackholes enc ~allowed:ft.G.Fattree.cores ());
  run "multipath consistency" (fun enc -> MS.Property.multipath_consistency enc dest);
  (match ft.G.Fattree.cores with
   | c1 :: c2 :: _ ->
     run "local consistency (spines)" (fun enc -> MS.Property.local_equivalence enc c1 c2)
   | _ -> ());
  run "single-ToR reachability" (fun enc ->
      MS.Property.reachability enc ~sources:[ List.hd other_tors ] dest);
  run "all-ToR reachability" (fun enc -> MS.Property.reachability enc ~sources:other_tors dest);
  run "single-ToR bounded length" (fun enc ->
      MS.Property.bounded_length enc ~sources:[ List.hd other_tors ] dest ~bound:4);
  run "all-ToR bounded length" (fun enc ->
      MS.Property.bounded_length enc ~sources:other_tors dest ~bound:4);
  match other_pod_tors with
  | _ :: _ :: _ ->
    run "equal length (one pod)" (fun enc ->
        MS.Property.equal_lengths enc ~sources:other_pod_tors dest)
  | _ -> ()

let fig8 () =
  print_endline "== Figure 8: property verification time vs fabric size ==";
  let sizes = if !full then [ 2; 4; 6; 8; 10 ] else [ 2; 4; 6 ] in
  print_endline
    (if !full then
       "   (pods 2-10, i.e. 5-125 routers; the paper runs 2-18 pods on Z3 - same shape, reduced scale)"
     else "   (pods 2-6, i.e. 5-45 routers, by default; pass --full for pods 8-10)");
  List.iter fig8_one sizes

(* ---------------- §8.3 optimization ablation ---------------- *)

let opts_bench () =
  print_endline "== \xc2\xa78.3: optimization effectiveness (single-source reachability) ==";
  let scenarios =
    [
      ("fattree pods=2 (5 rtrs)", (G.Fattree.make ~pods:2).G.Fattree.network, "tor_0_0", "tor_1_0");
      ("fattree pods=4 (20 rtrs)", (G.Fattree.make ~pods:4).G.Fattree.network, "tor_0_0", "tor_1_0");
    ]
  in
  let variants =
    [
      ("naive (bit-vector prefixes)", MS.Options.naive);
      ("+ prefix hoisting", { MS.Options.naive with MS.Options.hoist_prefixes = true });
      ("+ slicing and merging", MS.Options.default);
    ]
  in
  List.iter
    (fun (name, net, src, dst_tor) ->
      Printf.printf "  -- %s --\n%!" name;
      let dst_prefix =
        match String.split_on_char '_' dst_tor with
        | [ _; p; i ] ->
          Net.Prefix.make (Net.Ipv4.of_octets 10 (int_of_string p) (int_of_string i) 0) 24
        | _ -> assert false
      in
      let baseline = ref None in
      List.iter
        (fun (vname, opts) ->
          let o, ms =
            time (fun () ->
                let enc = MS.Encode.build net opts in
                verify_check enc
                  (MS.Property.reachability enc ~sources:[ src ]
                     (MS.Property.Subnet (dst_tor, dst_prefix))))
          in
          let speedup =
            match !baseline with
            | None ->
              baseline := Some ms;
              ""
            | Some b -> Printf.sprintf "  (%.1fx vs naive)" (b /. ms)
          in
          Printf.printf "     %-30s %-9s %10.1f ms%s\n%!" vname (outcome_str o) ms speedup)
        variants)
    scenarios;
  print_endline "  (paper: hoisting ~200x on average, slicing a further ~2.3x, up to 460x total)"

(* ---------------- incremental batch verification ---------------- *)

(* The fig7 §8.1 suite over one enterprise network, as labelled query
   builders sharing an encoding (fault invariance is excluded: its
   two-copy encoding cannot share a session). *)
let batch_suite (t : G.Enterprise.t) =
  let net = t.G.Enterprise.network in
  let devices = List.map (fun (d : A.device) -> d.A.dev_name) net.A.net_devices in
  let target = List.hd (List.rev devices) in
  let mgmt_dest = MS.Property.Subnet (target, t.G.Enterprise.mgmt_prefix target) in
  let allowed = t.G.Enterprise.edge_routers @ t.G.Enterprise.rack_role in
  let equiv =
    match t.G.Enterprise.rack_role with
    | r1 :: r2 :: _ -> [ ("acl-equivalence", fun enc -> MS.Property.acl_equivalence enc r1 r2) ]
    | _ -> []
  in
  [
    ("mgmt-reachability", fun enc -> MS.Property.reachability enc ~sources:devices mgmt_dest);
    ("no-blackholes", fun enc -> MS.Property.no_blackholes enc ~allowed ());
    ("no-loops", fun enc -> MS.Property.no_loops enc ());
  ]
  @ equiv

let batch ~smoke () =
  print_endline "== batch verification: one incremental session vs N fresh solvers ==";
  let routers = if smoke then 8 else if !full then 24 else 12 in
  let seed = 3 in
  let t = G.Enterprise.make ~seed ~routers ~inject:G.Enterprise.no_bugs () in
  let net = t.G.Enterprise.network in
  let opts = MS.Options.default in
  let suite = batch_suite t in
  let n = List.length suite in
  Printf.printf "   enterprise seed=%d routers=%d, %d-property suite (fig7)\n%!" seed routers n;
  (* Baseline: each query pays for its own encoding and its own solver,
     exactly what N independent fresh-solver run_query calls do. *)
  let baseline =
    List.map
      (fun (name, make) ->
        let o, ms = time (fun () -> verify_net net opts make) in
        Printf.printf "   fresh    %-20s %-9s %10.1f ms\n%!" name (outcome_str o) ms;
        (name, o, ms))
      suite
  in
  (* Session: encode and assert the network once, then check each
     property under a fresh activation literal on the same solver. *)
  let session, setup_ms = time (fun () -> MS.Verify.Session.create net opts) in
  Printf.printf "   session  %-20s %20.1f ms\n%!" "(encode + assert)" setup_ms;
  let session_reports =
    MS.Verify.Session.run session
      (List.map (fun (name, make) -> MS.Verify.Query.v name make) suite)
  in
  List.iter
    (fun (r : MS.Verify.Report.t) ->
      Printf.printf "   session  %-20s %-9s %10.1f ms\n%!" r.MS.Verify.Report.label
        (MS.Verify.Report.verdict_name r.MS.Verify.Report.verdict)
        r.MS.Verify.Report.wall_ms)
    session_reports;
  let baseline_total = List.fold_left (fun a (_, _, ms) -> a +. ms) 0.0 baseline in
  let session_total =
    setup_ms
    +. List.fold_left
         (fun a (r : MS.Verify.Report.t) -> a +. r.MS.Verify.Report.wall_ms)
         0.0 session_reports
  in
  let agree =
    List.for_all2
      (fun (_, a, _) (r : MS.Verify.Report.t) ->
        outcome_str a = MS.Verify.Report.verdict_name r.MS.Verify.Report.verdict)
      baseline session_reports
  in
  let st = MS.Verify.Session.stats session in
  Printf.printf
    "   baseline %.1f ms | session %.1f ms (setup %.1f) | speedup %.2fx | amortized %.1f \
     ms/query\n\
     %!"
    baseline_total session_total setup_ms
    (baseline_total /. session_total)
    (session_total /. float_of_int n);
  Printf.printf "   session solver: %d conflicts, %d learned clauses, %d restarts over %d checks\n%!"
    st.Smt.Solver.conflicts st.Smt.Solver.learned_clauses st.Smt.Solver.restarts
    st.Smt.Solver.checks;
  if not agree then print_endline "   !! verdict mismatch between fresh and session paths";
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"schema\": 2,\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"network\": { \"kind\": \"enterprise\", \"seed\": %d, \"routers\": %d },\n" seed
       routers);
  Buffer.add_string buf "  \"queries\": [\n";
  (* The session side is rendered by Verify.Report.to_json — the same
     renderer behind `verify --format json` — so the schemas agree. *)
  List.iteri
    (fun i ((name, bo, bms), r) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"name\": \"%s\", \"fresh_verdict\": \"%s\", \"fresh_ms\": %.2f, \
            \"session\": %s }%s\n"
           name (outcome_str bo) bms
           (MS.Verify.Report.to_json r)
           (if i = n - 1 then "" else ",")))
    (List.combine baseline session_reports);
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf (Printf.sprintf "  \"session_setup_ms\": %.2f,\n" setup_ms);
  Buffer.add_string buf (Printf.sprintf "  \"baseline_total_ms\": %.2f,\n" baseline_total);
  Buffer.add_string buf (Printf.sprintf "  \"session_total_ms\": %.2f,\n" session_total);
  Buffer.add_string buf
    (Printf.sprintf "  \"amortized_ms_per_query\": %.2f,\n"
       (session_total /. float_of_int n));
  Buffer.add_string buf
    (Printf.sprintf "  \"speedup\": %.3f,\n" (baseline_total /. session_total));
  Buffer.add_string buf
    (Printf.sprintf "  \"learned_clauses\": %d,\n" st.Smt.Solver.learned_clauses);
  Buffer.add_string buf (Printf.sprintf "  \"restarts\": %d,\n" st.Smt.Solver.restarts);
  Buffer.add_string buf
    (Printf.sprintf "  \"verdicts_agree\": %b\n" agree);
  Buffer.add_string buf "}\n";
  let oc = open_out "BENCH_batch.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  print_endline "   wrote BENCH_batch.json";
  if smoke then
    if not agree then begin
      prerr_endline "bench-smoke: verdict mismatch between fresh and session paths";
      exit 1
    end
    else if session_total >= baseline_total then begin
      Printf.eprintf
        "bench-smoke: session path (%.1f ms) not faster than %d fresh solves (%.1f ms)\n"
        session_total n baseline_total;
      exit 1
    end
    else print_endline "   smoke OK: session faster than fresh solves, identical verdicts"

(* ---------------- solver-throughput ablation ---------------- *)

(* The fattree property suite as labelled query builders (the fig8
   checks that share one encoding). *)
let fattree_suite (ft : G.Fattree.t) =
  let dst_tor = List.hd ft.G.Fattree.tors in
  let other_tors = List.filter (fun t -> t <> dst_tor) ft.G.Fattree.tors in
  let dest = MS.Property.Subnet (dst_tor, ft.G.Fattree.tor_subnet dst_tor) in
  [
    ( "single-tor-reachability",
      fun enc -> MS.Property.reachability enc ~sources:[ List.hd other_tors ] dest );
    ("all-tor-reachability", fun enc -> MS.Property.reachability enc ~sources:other_tors dest);
    ( "bounded-length",
      fun enc -> MS.Property.bounded_length enc ~sources:other_tors dest ~bound:4 );
    ("multipath-consistency", fun enc -> MS.Property.multipath_consistency enc dest);
    ("no-blackholes", fun enc -> MS.Property.no_blackholes enc ~allowed:ft.G.Fattree.cores ())
  ]

(* Restart-mode / rephasing grid: every query of the enterprise +
   fattree suites is answered on a fresh single-shot solver under the
   four corners of {Luby, Ema_lbd} x {rephase off, rephase on}.  Any
   strategy is sound and complete, so the verdicts must agree
   everywhere; the wall totals and the scheduler counters (adaptive
   restarts, blocked restarts, rephases) show what each scheduler
   actually did on these instances, and the decisions-per-conflict
   ratio on the hardest query shows how much of its search is blind
   walking over don't-care variables. *)
let solver_bench ~smoke () =
  print_endline "== solver: restart-mode x rephasing strategy grid (fresh solver per query) ==";
  let routers = if smoke then 8 else if !full then 16 else 12 in
  let pods = if smoke then 2 else 4 in
  let seed = 3 in
  let ent = G.Enterprise.make ~seed ~routers ~inject:G.Enterprise.no_bugs () in
  let ft = G.Fattree.make ~pods in
  let nets =
    [
      ("ent", ent.G.Enterprise.network, batch_suite ent);
      ("ft", ft.G.Fattree.network, fattree_suite ft);
    ]
  in
  Printf.printf "   enterprise seed=%d routers=%d + fattree pods=%d: %d queries per strategy\n%!"
    seed routers pods
    (List.fold_left (fun a (_, _, qs) -> a + List.length qs) 0 nets);
  (* The search is deterministic per strategy, so two passes over the
     suite do identical solver work: taking the per-query minimum wall
     time filters scheduler/GC noise without changing what is
     measured. *)
  let passes = 2 in
  let run_suite opts =
    List.concat_map
      (fun (nname, net, suite) ->
        let enc = MS.Encode.build net opts in
        List.map
          (fun (qname, make) ->
            MS.Verify.run_query enc (MS.Verify.Query.v (nname ^ ":" ^ qname) make))
          suite)
      nets
  in
  let min_over_passes opts =
    let reports = ref (run_suite opts) in
    for _ = 2 to passes do
      reports :=
        List.map2
          (fun (a : MS.Verify.Report.t) (b : MS.Verify.Report.t) ->
            if b.MS.Verify.Report.wall_ms < a.MS.Verify.Report.wall_ms then b else a)
          !reports (run_suite opts)
    done;
    !reports
  in
  let d = Smt.Solver.default_strategy in
  let strategies =
    [
      ("luby", d);
      ("luby+rephase", { d with Smt.Solver.rephase = true });
      ("ema", { d with Smt.Solver.restart_mode = Smt.Solver.Ema_lbd });
      ("ema+rephase",
       { d with Smt.Solver.restart_mode = Smt.Solver.Ema_lbd; rephase = true });
    ]
  in
  let results =
    List.map
      (fun (sname, strategy) ->
        let reports = min_over_passes (MS.Options.with_strategy strategy MS.Options.default) in
        let total =
          List.fold_left
            (fun a (r : MS.Verify.Report.t) -> a +. r.MS.Verify.Report.wall_ms)
            0.0 reports
        in
        let sum f =
          List.fold_left (fun a (r : MS.Verify.Report.t) -> a + f r.MS.Verify.Report.stats) 0 reports
        in
        let restarts = sum (fun st -> st.Smt.Solver.restarts) in
        let ema_restarts = sum (fun st -> st.Smt.Solver.ema_restarts) in
        let blocked = sum (fun st -> st.Smt.Solver.blocked_restarts) in
        let rephases = sum (fun st -> st.Smt.Solver.rephases) in
        Printf.printf
          "   strategy %-12s %10.1f ms total  restarts %d (adaptive %d, blocked %d) rephases %d\n%!"
          sname total restarts ema_restarts blocked rephases;
        (sname, total, reports, (restarts, ema_restarts, blocked, rephases)))
      strategies
  in
  let verdict_sig reports =
    List.map
      (fun (r : MS.Verify.Report.t) ->
        (r.MS.Verify.Report.label, MS.Verify.Report.verdict_name r.MS.Verify.Report.verdict))
      reports
  in
  let _, luby_total, luby_reports, _ = List.hd results in
  let base_verdicts = verdict_sig luby_reports in
  let agree = List.for_all (fun (_, _, rs, _) -> verdict_sig rs = base_verdicts) results in
  (* hardest query under the Luby baseline *)
  let hardest =
    List.fold_left
      (fun (b : MS.Verify.Report.t) (r : MS.Verify.Report.t) ->
        if r.MS.Verify.Report.wall_ms > b.MS.Verify.Report.wall_ms then r else b)
      (List.hd luby_reports) luby_reports
  in
  let hlabel = hardest.MS.Verify.Report.label in
  let hardest_report (rs : MS.Verify.Report.t list) =
    List.find (fun (r : MS.Verify.Report.t) -> r.MS.Verify.Report.label = hlabel) rs
  in
  let dpc rs = MS.Verify.Report.decisions_per_conflict (hardest_report rs).MS.Verify.Report.stats in
  List.iter
    (fun (sname, total, rs, _) ->
      Printf.printf "   %-12s speedup %5.2fx vs luby  (hardest query %s: %.1f ms, %.1f dec/cfl)\n%!"
        sname (luby_total /. total) hlabel (hardest_report rs).MS.Verify.Report.wall_ms (dpc rs))
    results;
  if not agree then print_endline "   !! verdict divergence between strategy configurations";
  let per_strategy f =
    String.concat ", "
      (List.map (fun (sname, _, rs, _) -> Printf.sprintf "\"%s\": %.2f" sname (f rs)) results)
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"schema\": 2,\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"networks\": { \"enterprise\": { \"seed\": %d, \"routers\": %d }, \"fattree\": { \
        \"pods\": %d } },\n"
       seed routers pods);
  Buffer.add_string buf "  \"strategies\": [\n";
  let nstrat = List.length results in
  List.iteri
    (fun i (sname, total, rs, (restarts, ema_restarts, blocked, rephases)) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"name\": \"%s\", \"total_ms\": %.2f, \"speedup_vs_luby\": %.3f, \
            \"restarts\": %d, \"ema_restarts\": %d, \"blocked_restarts\": %d, \"rephases\": \
            %d, \"reports\": %s }%s\n"
           sname total (luby_total /. total) restarts ema_restarts blocked rephases
           (MS.Verify.Report.list_to_json rs)
           (if i = nstrat - 1 then "" else ",")))
    results;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"hardest_query\": { \"label\": \"%s\", \"wall_ms\": { %s }, \
        \"decisions_per_conflict\": { %s } },\n"
       (Msutil.Json.escape hlabel)
       (per_strategy (fun rs -> (hardest_report rs).MS.Verify.Report.wall_ms))
       (per_strategy dpc));
  Buffer.add_string buf (Printf.sprintf "  \"verdicts_agree\": %b\n" agree);
  Buffer.add_string buf "}\n";
  let oc = open_out "BENCH_solver.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  print_endline "   wrote BENCH_solver.json";
  if smoke then begin
    if not agree then begin
      prerr_endline "bench-solver-smoke: verdict divergence between strategy configurations";
      exit 1
    end;
    print_endline "   smoke OK: identical verdicts across the strategy grid"
  end

(* ---------------- certification overhead ---------------- *)

(* Certified verdicts: every query of the enterprise + fattree suites
   answered twice — plain, then with [Options.certify] so UNSAT
   verdicts replay their DRAT-style trace through the independent
   checker and SAT verdicts are model-evaluated and replayed through
   the concrete simulator.  A deliberately-violated isolation query
   guarantees the SAT side is exercised even when both suites hold.
   Gated: verdict agreement between the passes, every certified verdict
   carrying a positive certificate (zero Uncertified, zero failures),
   both certificate kinds appearing, and — above a noise floor —
   certification costing at most 2x the plain solve time. *)
let certify_bench ~smoke () =
  print_endline "== certified verdicts: independent-checker overhead and proof sizes ==";
  let routers = if smoke then 8 else if !full then 16 else 12 in
  let pods = if smoke then 2 else 4 in
  let seed = 3 in
  let ent = G.Enterprise.make ~seed ~routers ~inject:G.Enterprise.no_bugs () in
  let ft = G.Fattree.make ~pods in
  let dst_tor = List.hd ft.G.Fattree.tors in
  let other_tors = List.filter (fun t -> t <> dst_tor) ft.G.Fattree.tors in
  let dest = MS.Property.Subnet (dst_tor, ft.G.Fattree.tor_subnet dst_tor) in
  let violated_suite =
    (* isolating a ToR that can reach the destination is false, so this
       query yields a model whose counterexample must replay cleanly *)
    [
      ( "isolation-should-fail",
        fun enc -> MS.Property.isolation enc ~sources:[ List.hd other_tors ] dest );
    ]
  in
  let nets =
    [
      ("ent", ent.G.Enterprise.network, batch_suite ent);
      ("ft", ft.G.Fattree.network, fattree_suite ft @ violated_suite);
    ]
  in
  let nq = List.fold_left (fun a (_, _, qs) -> a + List.length qs) 0 nets in
  Printf.printf "   enterprise seed=%d routers=%d + fattree pods=%d: %d queries per pass\n%!"
    seed routers pods nq;
  let run_all opts =
    List.concat_map
      (fun (nname, net, suite) ->
        let enc = MS.Encode.build net opts in
        List.map
          (fun (qname, make) ->
            MS.Verify.run_query enc (MS.Verify.Query.v (nname ^ ":" ^ qname) make))
          suite)
      nets
  in
  (* min wall time over two passes filters scheduler/GC noise, exactly
     as in the solver ablation; the work per pass is deterministic *)
  let passes = 2 in
  let min_passes opts =
    let rs = ref (run_all opts) in
    for _ = 2 to passes do
      rs :=
        List.map2
          (fun (a : MS.Verify.Report.t) (b : MS.Verify.Report.t) ->
            if b.MS.Verify.Report.wall_ms < a.MS.Verify.Report.wall_ms then b else a)
          !rs (run_all opts)
    done;
    !rs
  in
  let base = min_passes MS.Options.default in
  let cert = min_passes (MS.Options.with_certify MS.Options.default) in
  let proofs = ref 0 and models = ref 0 and uncert = ref 0 and failed = ref 0 in
  List.iter2
    (fun (b : MS.Verify.Report.t) (c : MS.Verify.Report.t) ->
      let detail =
        match c.MS.Verify.Report.certificate with
        | MS.Verify.Report.Checked_unsat_proof { trace_steps; clauses; lemmas } ->
          incr proofs;
          Printf.sprintf "proof: %d steps, %d clauses, %d lemmas" trace_steps clauses lemmas
        | MS.Verify.Report.Checked_model ->
          incr models;
          "model evaluated + replayed"
        | MS.Verify.Report.Uncertified ->
          incr uncert;
          "UNCERTIFIED"
        | MS.Verify.Report.Certification_failed msg ->
          incr failed;
          "FAILED: " ^ msg
      in
      Printf.printf "   %-28s %-9s %8.1f -> %8.1f ms  (%s)\n%!" c.MS.Verify.Report.label
        (MS.Verify.Report.verdict_name c.MS.Verify.Report.verdict)
        b.MS.Verify.Report.wall_ms c.MS.Verify.Report.wall_ms detail)
    base cert;
  let total rs =
    List.fold_left (fun a (r : MS.Verify.Report.t) -> a +. r.MS.Verify.Report.wall_ms) 0.0 rs
  in
  let base_total = total base and cert_total = total cert in
  let overhead = cert_total /. base_total in
  let verdict_sig rs =
    List.map
      (fun (r : MS.Verify.Report.t) ->
        (r.MS.Verify.Report.label, MS.Verify.Report.verdict_name r.MS.Verify.Report.verdict))
      rs
  in
  let agree = verdict_sig base = verdict_sig cert in
  Printf.printf
    "   plain %.1f ms | certified %.1f ms | overhead %.2fx | %d proofs checked, %d models \
     replayed\n\
     %!"
    base_total cert_total overhead !proofs !models;
  if not agree then print_endline "   !! verdict mismatch between plain and certified passes";
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"schema\": 2,\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"networks\": { \"enterprise\": { \"seed\": %d, \"routers\": %d }, \"fattree\": { \
        \"pods\": %d } },\n"
       seed routers pods);
  Buffer.add_string buf "  \"queries\": [\n";
  List.iteri
    (fun i ((b : MS.Verify.Report.t), (c : MS.Verify.Report.t)) ->
      (* the certified side is Verify.Report.to_json, which renders the
         certificate object — same schema as `verify --format json` *)
      Buffer.add_string buf
        (Printf.sprintf "    { \"name\": \"%s\", \"plain_ms\": %.2f, \"certified\": %s }%s\n"
           (Msutil.Json.escape c.MS.Verify.Report.label)
           b.MS.Verify.Report.wall_ms
           (MS.Verify.Report.to_json c)
           (if i = nq - 1 then "" else ",")))
    (List.combine base cert);
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf (Printf.sprintf "  \"plain_total_ms\": %.2f,\n" base_total);
  Buffer.add_string buf (Printf.sprintf "  \"certified_total_ms\": %.2f,\n" cert_total);
  Buffer.add_string buf (Printf.sprintf "  \"overhead\": %.3f,\n" overhead);
  Buffer.add_string buf (Printf.sprintf "  \"unsat_proofs_checked\": %d,\n" !proofs);
  Buffer.add_string buf (Printf.sprintf "  \"models_replayed\": %d,\n" !models);
  Buffer.add_string buf (Printf.sprintf "  \"uncertified\": %d,\n" !uncert);
  Buffer.add_string buf (Printf.sprintf "  \"certification_failures\": %d,\n" !failed);
  Buffer.add_string buf (Printf.sprintf "  \"verdicts_agree\": %b\n" agree);
  Buffer.add_string buf "}\n";
  let oc = open_out "BENCH_certify.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  print_endline "   wrote BENCH_certify.json";
  (* correctness gates hold in every mode: they are deterministic *)
  if not agree then begin
    prerr_endline "bench certify: verdict mismatch between plain and certified passes";
    exit 1
  end;
  if !uncert > 0 || !failed > 0 then begin
    Printf.eprintf "bench certify: %d uncertified verdict(s), %d certification failure(s)\n"
      !uncert !failed;
    exit 1
  end;
  if !proofs = 0 || !models = 0 then begin
    Printf.eprintf
      "bench certify: suite exercised only one certificate kind (%d proofs, %d models)\n"
      !proofs !models;
    exit 1
  end;
  (* the overhead ratio is only signal when the plain pass is slow
     enough to measure *)
  let floor_ms = 300.0 in
  let target = 2.0 in
  if base_total >= floor_ms && overhead > target then begin
    Printf.eprintf "bench certify: overhead %.2fx above the %.1fx budget (plain %.1f ms)\n"
      overhead target base_total;
    exit 1
  end;
  if base_total < floor_ms then
    Printf.printf
      "   (overhead gate skipped: plain pass %.1f ms under the %.0f ms floor — agreement and \
       certificates still enforced)\n%!"
      base_total floor_ms
  else
    Printf.printf "   certify OK: identical verdicts, every verdict certified, overhead %.2fx\n%!"
      overhead

(* ---------------- symmetry-reduction scale sweep ---------------- *)

(* The paper-scale fat-tree curve (pods 2-18, 5-405 routers): the
   all-ToR reachability query set — every ToR must reach each of two
   pinned destination ToR subnets — answered on the symmetry quotient
   (one pinned encoding per destination, sources projected through the
   class map) and on the full encoding, where one incremental session
   per pod size encodes once and answers the whole set: the second
   query rides the first query's learnt clauses instead of re-earning
   them, which is the batch bench's warm-session win carried to paper
   scale.

   The quotient points run at every size; the full encoding gets a
   wall-clock budget, and once one point blows it the remaining full
   points are skipped with an explicit skipped_off_budget label, so a
   missing number is a recorded decision, not a silent gap.  Under
   --full every completed point is checkpointed to
   BENCH_scale.rows.jsonl (and BENCH_scale.json is rewritten) as it
   finishes; --resume restores checkpointed points, so a multi-hour
   sweep killed at pods=14 does not re-earn pods=10.

   Gates.  Verdict agreement is required on every completed point, in
   three directions: quotient vs full, Ema_lbd vs Luby restarts (on
   the point's quotient instance), and the clause-sharing portfolio vs
   the sharing-off race (ditto).  The quotient-vs-full ratio is
   labelled "speedup" only where the quotient actually collapsed
   devices; at pods=2 a pinned destination leaves every class a
   singleton, the quotient is pure bookkeeping, and the ratio is
   labelled "overhead" instead of pretending 0.86x is a win.  The
   >= 2x gate applies at the largest size where both modes completed
   AND the reduction is real, above a noise floor.  --smoke
   additionally exercises the new solver machinery end-to-end on the
   full (non-quotient) encoding: a fresh Luby-restart solve must agree
   with the session's adaptive-restart verdict at every smoke point,
   and at the largest smoke point the clause-sharing portfolio's
   winner must report clauses_imported > 0 and agree with the
   session. *)

type scale_row = {
  sr_pods : int;
  sr_routers : int;
  sr_reduced : bool;  (* the quotient collapsed at least one device *)
  sr_agree : bool;  (* every agreement direction of the point *)
  sr_has_off : bool;
  sr_ratio : float;
  sr_ratio_kind : string;  (* "speedup" (full/quotient) | "overhead" (quotient/full) *)
  sr_off_cold_ms : float;  (* cold full-encoding solve: the session's first query *)
  sr_off_total_ms : float;  (* full-encoding encode + whole query set *)
  sr_exhausted_after : bool;  (* this point blew the full-mode budget *)
  sr_row : string;  (* rendered BENCH_scale.json row *)
}

let scale_ckpt_file = "BENCH_scale.rows.jsonl"

(* One checkpoint line per completed point: the gate-relevant fields as
   plain JSON scalars plus the rendered row, so a resumed run can both
   re-emit the row verbatim and re-evaluate every gate without
   re-measuring. *)
let scale_ckpt_read () =
  if not (Sys.file_exists scale_ckpt_file) then []
  else begin
    let ic = open_in scale_ckpt_file in
    let lines = ref [] in
    (try
       while true do
         lines := input_line ic :: !lines
       done
     with End_of_file -> ());
    close_in ic;
    List.filter_map
      (fun line ->
        if String.trim line = "" then None
        else
          match Msutil.Json.parse line with
          | Error _ -> None
          | Ok j ->
            let int k = Option.bind (Msutil.Json.member k j) Msutil.Json.get_int in
            let fl k = Option.bind (Msutil.Json.member k j) Msutil.Json.get_float in
            let bl k = Option.bind (Msutil.Json.member k j) Msutil.Json.get_bool in
            let str k = Option.bind (Msutil.Json.member k j) Msutil.Json.get_string in
            (match
               ( int "pods", int "routers", bl "reduced", bl "agree", bl "has_off",
                 fl "ratio", str "ratio_kind", fl "off_cold_ms", fl "off_total_ms",
                 bl "exhausted_after", str "row" )
             with
             | ( Some sr_pods, Some sr_routers, Some sr_reduced, Some sr_agree,
                 Some sr_has_off, Some sr_ratio, Some sr_ratio_kind, Some sr_off_cold_ms,
                 Some sr_off_total_ms, Some sr_exhausted_after, Some sr_row ) ->
               Some
                 { sr_pods; sr_routers; sr_reduced; sr_agree; sr_has_off; sr_ratio;
                   sr_ratio_kind; sr_off_cold_ms; sr_off_total_ms; sr_exhausted_after;
                   sr_row }
             | _ -> None))
      (List.rev !lines)
  end

let scale_ckpt_append (r : scale_row) =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 scale_ckpt_file in
  output_string oc
    (Printf.sprintf
       "{\"pods\":%d,\"routers\":%d,\"reduced\":%b,\"agree\":%b,\"has_off\":%b,\"ratio\":%.6f,\"ratio_kind\":%s,\"off_cold_ms\":%.3f,\"off_total_ms\":%.3f,\"exhausted_after\":%b,\"row\":%s}\n"
       r.sr_pods r.sr_routers r.sr_reduced r.sr_agree r.sr_has_off r.sr_ratio
       (Msutil.Json.quote r.sr_ratio_kind) r.sr_off_cold_ms r.sr_off_total_ms
       r.sr_exhausted_after (Msutil.Json.quote r.sr_row));
  close_out oc

(* Rewrite BENCH_scale.json from the rows completed so far (called
   after every point, so a killed sweep leaves a valid document) and
   return the gate inputs: global agreement, the largest point both
   modes completed, and the largest such point whose reduction is
   real (the speedup gate's anchor). *)
let scale_write_json ~off_budget_ms (rows : scale_row list) =
  let agree_everywhere = List.for_all (fun r -> r.sr_agree) rows in
  let largest_both =
    List.fold_left (fun acc r -> if r.sr_has_off then Some r else acc) None rows
  in
  let largest_gate =
    List.fold_left
      (fun acc r -> if r.sr_has_off && r.sr_reduced then Some r else acc)
      None rows
  in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "{\n  \"schema\": 2,\n  \"benchmark\": \"scale\",\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"off_budget_ms\": %.0f,\n  \"queries_per_point\": 2,\n  \"sizes\": [\n"
       off_budget_ms);
  let n = List.length rows in
  List.iteri
    (fun i r ->
      Buffer.add_string buf ("    " ^ r.sr_row ^ (if i = n - 1 then "\n" else ",\n")))
    rows;
  Buffer.add_string buf "  ],\n";
  (match largest_both with
   | Some r ->
     Buffer.add_string buf
       (Printf.sprintf "  \"largest_both_modes_pods\": %d,\n" r.sr_pods);
     Buffer.add_string buf
       (Printf.sprintf "  \"%s_at_largest_both\": %.3f,\n" r.sr_ratio_kind r.sr_ratio)
   | None -> ());
  Buffer.add_string buf (Printf.sprintf "  \"verdicts_agree\": %b\n}\n" agree_everywhere);
  let oc = open_out "BENCH_scale.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  (agree_everywhere, largest_both, largest_gate)
let scale ~smoke ~resume () =
  print_endline "== symmetry reduction: quotient vs full encoding across fabric sizes ==";
  let sizes = if smoke then [ 2; 6 ] else [ 2; 6; 10; 14; 18 ] in
  (* The arena core's propagation throughput moved the full-encoding
     frontier: the budget is raised from the pre-arena 300 s so points
     that newly complete get recorded instead of skipped. *)
  let off_budget_ms = if smoke then 20_000.0 else 600_000.0 in
  let checkpointing = not smoke in
  let prior = if resume && checkpointing then scale_ckpt_read () else [] in
  if checkpointing && not resume then (try Sys.remove scale_ckpt_file with Sys_error _ -> ());
  Printf.printf "   pods %s; full-encoding budget %.0f s per point; 2 queries per point%s\n%!"
    (String.concat "," (List.map string_of_int sizes))
    (off_budget_ms /. 1000.0)
    (if prior <> [] then
       Printf.sprintf "; resuming past %d checkpointed point(s)" (List.length prior)
     else "");
  let off_exhausted = ref (List.exists (fun r -> r.sr_exhausted_after) prior) in
  (* smoke-only end-to-end checks of the new solver machinery on the
     full (non-quotient) encoding *)
  let smoke_luby_agree = ref true in
  let smoke_share_imported = ref 0 in
  let smoke_share_agree = ref true in
  let quote = Msutil.Json.quote in
  let largest_size = List.fold_left max 0 sizes in
  let measure pods =
    let ft = G.Fattree.make ~pods in
    let net = ft.G.Fattree.network in
    let routers = List.length net.A.net_devices in
    let tors = ft.G.Fattree.tors in
    (* the all-ToR query set: every ToR reaches each of two pinned
       destination ToR subnets (every fat-tree, pods >= 2, has >= 2
       ToRs) *)
    let dsts = [ List.nth tors 0; List.nth tors 1 ] in
    let dst0 = List.hd dsts in
    let dest_of dst = MS.Property.Subnet (dst, ft.G.Fattree.tor_subnet dst) in
    let srcs_of dst = List.filter (fun t -> t <> dst) tors in
    let pps solve_ms props =
      if solve_ms <= 0.0 then 0.0 else float_of_int props /. (solve_ms /. 1000.0)
    in
    let agg = function
      | [] -> "mixed"
      | (_, v) :: tl -> if List.for_all (fun (_, v') -> v' = v) tl then v else "mixed"
    in
    (* -- quotient side: one pinned encoding per destination -- *)
    let on_opts = MS.Options.with_symmetry MS.Options.default in
    let on_q =
      List.map
        (fun dst ->
          let enc, enc_ms = time (fun () -> MS.Encode.build ~pins:[ dst ] net on_opts) in
          let srcs = MS.Encode.project_devices enc (srcs_of dst) in
          let (o, st), solve_ms =
            time (fun () ->
                query_with_stats enc
                  (MS.Property.reachability enc ~sources:srcs (dest_of dst)))
          in
          (dst, enc, enc_ms, solve_ms, o, st))
        dsts
    in
    let on_encode_ms = List.fold_left (fun a (_, _, e, _, _, _) -> a +. e) 0.0 on_q in
    let on_solve_ms = List.fold_left (fun a (_, _, _, s, _, _) -> a +. s) 0.0 on_q in
    let on_total = on_encode_ms +. on_solve_ms in
    let on_props =
      List.fold_left (fun a (_, _, _, _, _, st) -> a + st.Smt.Solver.propagations) 0 on_q
    in
    let on_pps = pps on_solve_ms on_props in
    let enc_on0 = match on_q with (_, e, _, _, _, _) :: _ -> e | [] -> assert false in
    let q_devices = List.length (MS.Encode.devices enc_on0) in
    let classes = List.length (MS.Encode.sym_classes enc_on0) in
    let reduced = classes > 0 && q_devices < routers in
    let on_verdicts = List.map (fun (dst, _, _, _, o, _) -> (dst, outcome_str o)) on_q in
    let on_verdict = agg on_verdicts in
    Printf.printf
      "   pods=%-2d (%3d rtrs)  quotient %3d devices, %d classes  %-9s %10.1f ms  %.2e props/s\n%!"
      pods routers q_devices classes on_verdict on_total on_pps;
    (* restart-mode agreement on this point's quotient instance: the
       strategy is baked into the encoding options, so each mode gets a
       fresh pinned encoding of the same query *)
    let quotient_verdict_under strategy =
      let enc = MS.Encode.build ~pins:[ dst0 ] net (MS.Options.with_strategy strategy on_opts) in
      let srcs = MS.Encode.project_devices enc (srcs_of dst0) in
      let o, _ =
        query_with_stats enc (MS.Property.reachability enc ~sources:srcs (dest_of dst0))
      in
      outcome_str o
    in
    let dstrat = Smt.Solver.default_strategy in
    let v_luby = quotient_verdict_under dstrat in
    let v_ema =
      quotient_verdict_under { dstrat with Smt.Solver.restart_mode = Smt.Solver.Ema_lbd }
    in
    let modes_agree = v_luby = v_ema && v_luby = List.assoc dst0 on_verdicts in
    (* sharing agreement on the same instance: the clause-sharing
       portfolio and the sharing-off race against the sequential
       verdict *)
    let q0 =
      MS.Verify.Query.v "all-tor"
        (fun enc ->
          MS.Property.reachability enc
            ~sources:(MS.Encode.project_devices enc (srcs_of dst0))
            (dest_of dst0))
    in
    let verdict_of (r : MS.Verify.Report.t) =
      MS.Verify.Report.verdict_name r.MS.Verify.Report.verdict
    in
    let v_share = verdict_of (Engine.portfolio ~share:true enc_on0 q0) in
    let v_solo = verdict_of (Engine.portfolio ~share:false enc_on0 q0) in
    let share_agree = v_share = v_solo && v_share = List.assoc dst0 on_verdicts in
    if not (modes_agree && share_agree) then
      Printf.printf
        "   pods=%-2d !! quotient cross-checks diverge (luby %s, ema %s, share %s, solo %s)\n%!"
        pods v_luby v_ema v_share v_solo;
    (* -- full side: one incremental session answers the whole set -- *)
    let off =
      if !off_exhausted then begin
        Printf.printf
          "   pods=%-2d (%3d rtrs)  full      skipped_off_budget (an earlier point blew \
           the %.0f s budget)\n%!"
          pods routers (off_budget_ms /. 1000.0);
        None
      end
      else begin
        let enc_off, off_encode_ms = time (fun () -> MS.Encode.build net MS.Options.default) in
        let session = MS.Verify.Session.of_encoding enc_off in
        let reports =
          List.map
            (fun dst ->
              ( dst,
                MS.Verify.Session.run_one session
                  (MS.Verify.Query.v ("all-tor->" ^ dst)
                     (fun enc ->
                       MS.Property.reachability enc ~sources:(srcs_of dst) (dest_of dst))) ))
            dsts
        in
        let wall (r : MS.Verify.Report.t) = r.MS.Verify.Report.wall_ms in
        let cold = wall (snd (List.hd reports)) in
        let warm = List.fold_left (fun a (_, r) -> a +. wall r) 0.0 (List.tl reports) in
        let session_solve = cold +. warm in
        let off_total = off_encode_ms +. session_solve in
        if off_total > off_budget_ms then off_exhausted := true;
        let off_props =
          List.fold_left
            (fun a (_, r) -> a + r.MS.Verify.Report.stats.Smt.Solver.propagations)
            0 reports
        in
        let off_pps = pps session_solve off_props in
        let off_verdicts = List.map (fun (dst, r) -> (dst, verdict_of r)) reports in
        let full_agree = off_verdicts = on_verdicts in
        let off_verdict = agg off_verdicts in
        Printf.printf
          "   pods=%-2d (%3d rtrs)  full      %3d devices  %-9s cold %10.1f ms + warm \
           %8.1f ms  %.2e props/s  %s %5.2fx%s\n%!"
          pods routers routers off_verdict cold warm off_pps
          (if reduced then "speedup" else "overhead")
          (if reduced then off_total /. on_total else on_total /. off_total)
          (if full_agree then "" else "  !! verdicts diverge");
        if smoke then begin
          (* a fresh Luby-restart solve of the cold query must agree
             with the session's adaptive-restart verdict *)
          let enc_luby =
            MS.Encode.build net (MS.Options.with_strategy dstrat MS.Options.default)
          in
          let o_luby, _ =
            query_with_stats enc_luby
              (MS.Property.reachability enc_luby ~sources:(srcs_of dst0) (dest_of dst0))
          in
          if outcome_str o_luby <> List.assoc dst0 off_verdicts then
            smoke_luby_agree := false;
          (* clause sharing must actually fire on a conflict-heavy full
             encoding: race a diverse strategy subset on the largest
             smoke point and require the winner to have imported *)
          if pods = largest_size then begin
            let strats =
              List.filteri (fun i _ -> i = 0 || i = 1 || i = 2 || i = 6) MS.Options.portfolio
            in
            let q =
              MS.Verify.Query.v "all-tor-share"
                (fun enc ->
                  MS.Property.reachability enc ~sources:(srcs_of dst0) (dest_of dst0))
            in
            let attempts = 3 in
            let rec go i =
              let r = Engine.portfolio ~strategies:strats ~share:true enc_off q in
              let imported = r.MS.Verify.Report.stats.Smt.Solver.clauses_imported in
              if verdict_of r <> List.assoc dst0 off_verdicts then
                smoke_share_agree := false;
              if imported > 0 then smoke_share_imported := imported
              else if i < attempts then go (i + 1)
            in
            go 1
          end
        end;
        Some (off_encode_ms, reports, cold, warm, off_total, off_verdict, full_agree, off_pps)
      end
    in
    (* -- render the row and fold the gates -- *)
    let on_queries_json =
      String.concat ", "
        (List.map
           (fun (dst, _, e, s, o, _) ->
             Printf.sprintf
               "{ \"dst\": %s, \"encode_ms\": %.2f, \"solve_ms\": %.2f, \"verdict\": %s }"
               (quote dst) e s (quote (outcome_str o)))
           on_q)
    in
    let off_json, ratio_part, has_off, cold_ms, total_ms, full_agree =
      match off with
      | None -> ("{ \"status\": \"skipped_off_budget\" }", "", false, 0.0, 0.0, true)
      | Some (enc_ms, reports, cold, warm, total, verdict, full_agree, off_pps) ->
        let wall (r : MS.Verify.Report.t) = r.MS.Verify.Report.wall_ms in
        let verdict_of (r : MS.Verify.Report.t) =
          MS.Verify.Report.verdict_name r.MS.Verify.Report.verdict
        in
        let qjson =
          String.concat ", "
            (List.mapi
               (fun i (dst, r) ->
                 Printf.sprintf
                   "{ \"dst\": %s, \"solve_ms\": %.2f, \"verdict\": %s, \"warm\": %b }"
                   (quote dst) (wall r) (quote (verdict_of r)) (i > 0))
               reports)
        in
        let j =
          Printf.sprintf
            "{ \"status\": \"ok\", \"encode_ms\": %.2f, \"cold_solve_ms\": %.2f, \
             \"warm_solve_ms\": %.2f, \"solve_ms\": %.2f, \"total_ms\": %.2f, \"verdict\": \
             %s, \"agrees_with_symmetry\": %b, \"propagations_per_sec\": %.0f, \"queries\": \
             [ %s ] }"
            enc_ms cold warm (cold +. warm) total (quote verdict) full_agree off_pps qjson
        in
        let ratio, kind =
          if reduced then (total /. on_total, "speedup")
          else (on_total /. total, "overhead")
        in
        (j, Printf.sprintf ",\n      \"ratio\": %.3f, \"ratio_kind\": %s" ratio (quote kind),
         true, cold, total, full_agree)
    in
    let row =
      Printf.sprintf
        "{ \"pods\": %d, \"routers\": %d,\n      \"symmetry_on\": { \"encode_ms\": %.2f, \
         \"solve_ms\": %.2f, \"total_ms\": %.2f, \"verdict\": %s, \"devices_encoded\": %d, \
         \"classes\": %d, \"propagations_per_sec\": %.0f, \"queries\": [ %s ] },\n      \
         \"symmetry_off\": %s,\n      \"agreement\": { \"quotient_vs_full\": %b, \
         \"ema_vs_luby\": %b, \"share_vs_solo\": %b }%s }"
        pods routers on_encode_ms on_solve_ms on_total (quote on_verdict) q_devices classes
        on_pps on_queries_json off_json full_agree modes_agree share_agree ratio_part
    in
    let ratio, ratio_kind =
      if not has_off then (0.0, "n/a")
      else if reduced then (total_ms /. on_total, "speedup")
      else (on_total /. total_ms, "overhead")
    in
    {
      sr_pods = pods;
      sr_routers = routers;
      sr_reduced = reduced;
      sr_agree = modes_agree && share_agree && full_agree;
      sr_has_off = has_off;
      sr_ratio = ratio;
      sr_ratio_kind = ratio_kind;
      sr_off_cold_ms = cold_ms;
      sr_off_total_ms = total_ms;
      sr_exhausted_after = !off_exhausted;
      sr_row = row;
    }
  in
  let rows =
    List.rev
      (List.fold_left
         (fun acc pods ->
           match List.find_opt (fun r -> r.sr_pods = pods) prior with
           | Some r ->
             Printf.printf "   pods=%-2d restored from %s\n%!" pods scale_ckpt_file;
             r :: acc
           | None ->
             let r = measure pods in
             if checkpointing then begin
               scale_ckpt_append r;
               ignore (scale_write_json ~off_budget_ms (List.rev (r :: acc)));
               Printf.printf "   checkpointed pods=%d\n%!" pods
             end;
             r :: acc)
         [] sizes)
  in
  let agree_everywhere, largest_both, largest_gate =
    scale_write_json ~off_budget_ms rows
  in
  print_endline "   wrote BENCH_scale.json";
  if not agree_everywhere then begin
    prerr_endline
      "bench scale: verdict divergence (quotient vs full, restart modes, or clause sharing)";
    exit 1
  end;
  (* the ratio is only signal when the full-mode point is slow enough
     to measure, same floor convention as the solver/certify benches;
     it is only a *speedup* claim where the quotient actually reduced
     the device count *)
  let floor_ms = 300.0 in
  let target = 2.0 in
  (match largest_gate with
   | Some r ->
     if r.sr_off_total_ms >= floor_ms && r.sr_ratio < target then begin
       Printf.eprintf
         "bench scale: speedup %.2fx at pods=%d below the %.1fx target (full %.1f ms)\n"
         r.sr_ratio r.sr_pods target r.sr_off_total_ms;
       exit 1
     end
     else if r.sr_off_total_ms < floor_ms then
       Printf.printf
         "   (speedup gate skipped: full encoding %.1f ms under the %.0f ms floor — \
          agreement still enforced)\n%!"
         r.sr_off_total_ms floor_ms
     else
       Printf.printf "   scale OK: identical verdicts, %.2fx at pods=%d\n%!" r.sr_ratio
         r.sr_pods
   | None ->
     (match largest_both with
      | Some r ->
        Printf.printf
          "   (speedup gate vacuous: no completed point with a real reduction; pods=%d \
           ran both modes at %.2fx %s)\n%!"
          r.sr_pods r.sr_ratio r.sr_ratio_kind
      | None -> print_endline "   (no size completed in both modes; gates vacuous)"));
  if smoke then begin
    if not !smoke_luby_agree then begin
      prerr_endline
        "bench-scale-smoke: Luby vs adaptive-restart verdict divergence on the full encoding";
      exit 1
    end;
    if not !smoke_share_agree then begin
      prerr_endline "bench-scale-smoke: clause-sharing portfolio verdict divergence";
      exit 1
    end;
    if !smoke_share_imported = 0 then begin
      prerr_endline
        "bench-scale-smoke: clause sharing never fired (winner imported 0 clauses in 3 \
         attempts)";
      exit 1
    end;
    Printf.printf
      "   smoke OK: restart modes agree on the full encoding; sharing fired (winner \
       imported %d clauses)\n%!"
      !smoke_share_imported
  end

(* ---------------- arena memory behavior ---------------- *)

(* The claims the arena refactor makes, measured and gated:

   1. Allocation-free propagation.  A long implication chain is solved
      repeatedly on one solver: after the first (warm-up) solve every
      internal vector is sized, so the later solves — one decision,
      then ~N propagations through the flat arena — are pure hot-loop
      work.  [Sat.minor_words] (a [Gc.minor_words] delta around each
      solve) divided by the propagation delta must stay near zero; the
      constant per-solve bookkeeping (a closure, a few refs) is why the
      ceiling is 0.05 words rather than exactly 0.

   2. The arena footprint of a real query.  The hardest fig7-class
      query (enterprise no-loops) is answered on a fresh single-shot
      solver (min over three passes) and on an incremental session
      over the same encoding: the two solver paths must agree on the
      verdict, and the arena size and compaction count are recorded.

   3. Compaction actually runs and stays bounded: a reduction-stressed
      pigeonhole solve must report at least one compaction and end with
      a mostly-live arena. *)
let arena_bench ~smoke () =
  print_endline "== arena SAT core: allocation, hardest-query footprint and compaction ==";
  (* -- 1: steady-state allocation per propagation -- *)
  let n = if smoke then 50_000 else 200_000 in
  let s = Smt.Sat.create () in
  Smt.Sat.set_strategy s { Smt.Sat.default_strategy with Smt.Sat.default_phase = true };
  let v = Array.init n (fun _ -> Smt.Sat.new_var s) in
  for i = 0 to n - 2 do
    Smt.Sat.add_clause s [ Smt.Sat.neg_lit v.(i); Smt.Sat.pos_lit v.(i + 1) ]
  done;
  ignore (Smt.Sat.solve s);
  let props0 = Smt.Sat.num_propagations s and words0 = Smt.Sat.minor_words s in
  let repeats = 5 in
  for _ = 1 to repeats do
    ignore (Smt.Sat.solve s)
  done;
  let props = Smt.Sat.num_propagations s - props0 in
  let words = Smt.Sat.minor_words s -. words0 in
  let words_per_prop = if props = 0 then infinity else words /. float_of_int props in
  Printf.printf
    "   propagation: %d propagations over %d solves, %.0f minor words -> %.4f words/propagation\n%!"
    props repeats words words_per_prop;
  (* -- 2: hardest query, fresh solver vs incremental session -- *)
  let routers = if smoke then 12 else if !full then 16 else 12 in
  let seed = 3 in
  let ent = G.Enterprise.make ~seed ~routers ~inject:G.Enterprise.no_bugs () in
  let enc = MS.Encode.build ent.G.Enterprise.network MS.Options.default in
  let q = MS.Verify.Query.v "ent:no-loops" (fun enc -> MS.Property.no_loops enc ()) in
  let passes = 3 in
  let r_fresh =
    List.fold_left
      (fun (a : MS.Verify.Report.t) (b : MS.Verify.Report.t) ->
        if b.MS.Verify.Report.wall_ms < a.MS.Verify.Report.wall_ms then b else a)
      (MS.Verify.run_query enc q)
      (List.init (passes - 1) (fun _ -> MS.Verify.run_query enc q))
  in
  let r_session = MS.Verify.Session.run_one (MS.Verify.Session.of_encoding enc) q in
  let fresh_ms = r_fresh.MS.Verify.Report.wall_ms in
  let verdict (r : MS.Verify.Report.t) =
    MS.Verify.Report.verdict_name r.MS.Verify.Report.verdict
  in
  let agree = verdict r_fresh = verdict r_session in
  let arena_bytes (r : MS.Verify.Report.t) =
    r.MS.Verify.Report.stats.Smt.Solver.arena_words * (Sys.word_size / 8)
  in
  Printf.printf
    "   hardest query ent:no-loops (routers=%d): %s in %.1f ms fresh, %s in %.1f ms in a session%s\n%!"
    routers (verdict r_fresh) fresh_ms (verdict r_session) r_session.MS.Verify.Report.wall_ms
    (if agree then "" else "  !! verdicts diverge");
  Printf.printf "   arena: %d bytes, %d compaction(s) (fresh solver)\n%!" (arena_bytes r_fresh)
    r_fresh.MS.Verify.Report.stats.Smt.Solver.arena_compactions;
  (* -- 3: compaction under reduction stress -- *)
  let sc = Smt.Sat.create () in
  Smt.Sat.set_max_learnts sc 3;
  let hole = 6 in
  let pv = Array.init (hole + 1) (fun _ -> Array.init hole (fun _ -> Smt.Sat.new_var sc)) in
  for p = 0 to hole do
    Smt.Sat.add_clause sc (List.init hole (fun h -> Smt.Sat.pos_lit pv.(p).(h)))
  done;
  for h = 0 to hole - 1 do
    for p1 = 0 to hole do
      for p2 = p1 + 1 to hole do
        Smt.Sat.add_clause sc [ Smt.Sat.neg_lit pv.(p1).(h); Smt.Sat.neg_lit pv.(p2).(h) ]
      done
    done
  done;
  let php_unsat = Smt.Sat.solve sc = Smt.Sat.Unsat in
  let compactions = Smt.Sat.num_compactions sc in
  let live_fraction =
    let total = Smt.Sat.arena_words sc in
    if total = 0 then 1.0
    else float_of_int (total - Smt.Sat.arena_wasted_words sc) /. float_of_int total
  in
  Printf.printf "   compaction stress: php(%d) %s, %d compactions, %.0f%% of arena live\n%!"
    hole
    (if php_unsat then "unsat" else "SAT (wrong!)")
    compactions (100.0 *. live_fraction);
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"schema\": 2,\n  \"benchmark\": \"arena\",\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"propagation\": { \"chain_vars\": %d, \"solves\": %d, \"propagations\": %d, \
        \"minor_words\": %.0f, \"words_per_propagation\": %.5f },\n"
       n repeats props words words_per_prop);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"hardest_query\": { \"label\": \"ent:no-loops\", \"routers\": %d, \
        \"verdict\": \"%s\", \"fresh_ms\": %.2f, \"session_ms\": %.2f, \
        \"verdicts_agree\": %b, \"arena_bytes\": %d, \"compactions\": %d },\n"
       routers (verdict r_fresh) fresh_ms r_session.MS.Verify.Report.wall_ms agree
       (arena_bytes r_fresh) r_fresh.MS.Verify.Report.stats.Smt.Solver.arena_compactions);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"compaction_stress\": { \"pigeonhole\": %d, \"unsat\": %b, \"compactions\": %d, \
        \"live_fraction\": %.3f }\n}\n"
       hole php_unsat compactions live_fraction);
  let oc = open_out "BENCH_arena.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  print_endline "   wrote BENCH_arena.json";
  if smoke then begin
    if not agree then begin
      prerr_endline "bench-arena-smoke: verdict divergence between fresh solver and session";
      exit 1
    end;
    if not php_unsat then begin
      prerr_endline "bench-arena-smoke: pigeonhole answered SAT under reduction stress";
      exit 1
    end;
    if compactions = 0 then begin
      prerr_endline "bench-arena-smoke: no arena compaction ran under reduction stress";
      exit 1
    end;
    let alloc_ceiling = 0.05 in
    if words_per_prop > alloc_ceiling then begin
      Printf.eprintf
        "bench-arena-smoke: %.4f minor words/propagation above the %.2f ceiling\n"
        words_per_prop alloc_ceiling;
      exit 1
    end;
    Printf.printf "   smoke OK: %.4f words/propagation, verdicts agree, %d compaction(s)\n%!"
      words_per_prop compactions
  end

(* ---------------- serve: delta re-verification vs cold daemons ---------------- *)

(* The verification-as-a-service loop an operator actually runs: load a
   network once, then per change push a [diff] and re-ask a suite of
   localized invariants.  The delta daemon migrates core-disjoint
   verdicts across each diff; ground truth (and the timing baseline) is
   a cold daemon that loads the same mutated text from scratch each
   step.  Gates: verdict agreement on every step (always), and under
   --smoke non-zero replay/cache counters plus a 2x wall-clock floor
   for the delta path when the diff touches <= 20% of the devices. *)

let serve_req fmt = Printf.ksprintf (fun s -> s) fmt

let serve_ask d line =
  let resp, _ = Serve.handle_line d line in
  match Msutil.Json.parse resp with
  | Error e -> failwith ("bench serve: unparseable response: " ^ e)
  | Ok v -> (
    match Option.bind (Msutil.Json.member "ok" v) Msutil.Json.get_bool with
    | Some true -> v
    | _ ->
      failwith
        ("bench serve: request failed: "
        ^ Option.value ~default:resp
            (Option.bind (Msutil.Json.member "error" v) Msutil.Json.get_string)))

let serve_int v k =
  match Option.bind (Msutil.Json.member k v) Msutil.Json.get_int with
  | Some n -> n
  | None -> failwith ("bench serve: response lacks " ^ k)

let serve_verdicts v =
  match Option.bind (Msutil.Json.member "reports" v) Msutil.Json.get_list with
  | None -> failwith "bench serve: query response lacks reports"
  | Some rs ->
    List.map
      (fun r ->
        ( Option.value ~default:"?" (Option.bind (Msutil.Json.member "label" r) Msutil.Json.get_string),
          Option.value ~default:"?" (Option.bind (Msutil.Json.member "verdict" r) Msutil.Json.get_string) ))
      rs

(* Deterministic ACL churn on one of the first two racks — the same
   mutation family as the differential test, kept to rack ACLs so the
   rest of the fleet's verdicts stay replayable. *)
let serve_mutate step (t : G.Enterprise.t) (net : A.network) =
  let racks = t.G.Enterprise.rack_role in
  let victim = List.nth racks (step mod min 2 (List.length racks)) in
  let subnet = t.G.Enterprise.rack_subnet victim in
  let mutate_acl (acl : A.acl) =
    if step mod 2 = 0 then
      {
        acl with
        A.acl_entries =
          acl.A.acl_entries
          @ [ { A.acl_action = A.Deny; acl_dst = Net.Prefix.make (Net.Prefix.first subnet) 32 } ];
      }
    else
      {
        acl with
        A.acl_entries =
          (match acl.A.acl_entries with
           | e :: rest ->
             { e with A.acl_action = (match e.A.acl_action with A.Permit -> A.Deny | A.Deny -> A.Permit) }
             :: rest
           | [] -> [ { A.acl_action = A.Deny; acl_dst = subnet } ]);
      }
  in
  {
    net with
    A.net_devices =
      List.map
        (fun (d : A.device) ->
          if d.A.dev_name <> victim then d
          else
            match d.A.dev_acls with
            | acl :: rest -> { d with A.dev_acls = mutate_acl acl :: rest }
            | [] ->
              { d with A.dev_acls = [ { A.acl_name = "90"; acl_entries = [ { A.acl_action = A.Deny; acl_dst = subnet } ] } ] })
        net.A.net_devices;
  }

let serve_bench ~smoke () =
  let routers = if !full then 20 else 14 in
  let steps = if !full then 6 else 4 in
  let seed = 11 in
  print_endline "== serve: delta re-verification vs cold full verification ==";
  let t = G.Enterprise.make ~seed ~routers ~inject:G.Enterprise.no_bugs () in
  let racks = t.G.Enterprise.rack_role in
  if List.length racks < 4 then failwith "bench serve: enterprise too small for a remote suite";
  (* the suite: ACL equivalence over consecutive pairs of racks the
     churn never touches — the invariants an operator re-checks after a
     change somewhere else *)
  let remote = List.filteri (fun i _ -> i >= 2) racks in
  let rec pairs = function a :: (b :: _ as rest) -> (a, b) :: pairs rest | _ -> [] in
  let suite = pairs remote in
  let query =
    serve_req {|{"schema":2,"op":"query","queries":[%s]}|}
      (String.concat ","
         (List.map
            (fun (a, b) ->
              serve_req {|{"property":"acl-equivalence","label":"eq-%s-%s","devices":["%s","%s"]}|} a b a b)
            suite))
  in
  let req_load text = serve_req {|{"schema":2,"op":"load","config":%s}|} (Msutil.Json.quote text) in
  let req_diff text = serve_req {|{"schema":2,"op":"diff","config":%s}|} (Msutil.Json.quote text) in
  let base_text = Config.Printer.network_to_string t.G.Enterprise.network in
  let delta = Serve.create MS.Options.default in
  ignore (serve_ask delta (req_load base_text));
  let (_ : 'a), warm_ms = time (fun () -> serve_ask delta query) in
  Printf.printf "   %d devices, %d-query suite, warm solve %.1f ms\n%!" routers (List.length suite) warm_ms;
  let net = ref t.G.Enterprise.network in
  let rows = ref [] in
  let agree_all = ref true in
  let delta_total = ref 0.0 and full_total = ref 0.0 in
  for step = 0 to steps - 1 do
    net := serve_mutate step t !net;
    let text = Config.Printer.network_to_string !net in
    let (dresp, got), delta_ms =
      time (fun () ->
          let dresp = serve_ask delta (req_diff text) in
          (dresp, serve_verdicts (serve_ask delta query)))
    in
    let want, full_ms =
      time (fun () ->
          let cold = Serve.create MS.Options.default in
          ignore (serve_ask cold (req_load text));
          serve_verdicts (serve_ask cold query))
    in
    let agree = got = want in
    if not agree then agree_all := false;
    let mode =
      Option.value ~default:"?" (Option.bind (Msutil.Json.member "mode" dresp) Msutil.Json.get_string)
    in
    let replayed = serve_int dresp "replayed" in
    delta_total := !delta_total +. delta_ms;
    full_total := !full_total +. full_ms;
    Printf.printf "   step %d: %s diff, %d replayed, delta %.1f ms vs full %.1f ms%s\n%!" step
      mode replayed delta_ms full_ms
      (if agree then "" else "  ** VERDICTS DIVERGE **");
    rows := (step, mode, replayed, delta_ms, full_ms, agree) :: !rows
  done;
  (* A -> B -> A flap: reloading the base text must hit the encoding cache *)
  ignore (serve_ask delta (req_load base_text));
  ignore (serve_ask delta query);
  let stats = serve_ask delta {|{"schema":2,"op":"stats"}|} in
  let replays = serve_int stats "delta_replays" in
  let verdict_hits = serve_int stats "verdict_hits" in
  let enc_hits = serve_int stats "enc_cache_hits" in
  let speedup = !full_total /. !delta_total in
  Printf.printf
    "   totals: delta %.1f ms, full %.1f ms (%.1fx); %d replays, %d verdict hits, %d encoding \
     cache hits\n%!"
    !delta_total !full_total speedup replays verdict_hits enc_hits;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"schema\": 2,\n  \"benchmark\": \"serve\",\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"network\": { \"kind\": \"enterprise\", \"seed\": %d, \"routers\": %d },\n" seed routers);
  Buffer.add_string buf
    (Printf.sprintf "  \"suite\": { \"queries\": %d, \"kind\": \"localized acl-equivalence\" },\n"
       (List.length suite));
  Buffer.add_string buf (Printf.sprintf "  \"warm_solve_ms\": %.2f,\n" warm_ms);
  Buffer.add_string buf "  \"steps\": [\n";
  List.iteri
    (fun i (step, mode, replayed, dms, fms, agree) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"step\": %d, \"mode\": \"%s\", \"replayed\": %d, \"delta_ms\": %.2f, \
            \"full_ms\": %.2f, \"verdicts_agree\": %b }%s\n"
           step mode replayed dms fms agree
           (if i = List.length !rows - 1 then "" else ",")))
    (List.rev !rows);
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf (Printf.sprintf "  \"delta_total_ms\": %.2f,\n" !delta_total);
  Buffer.add_string buf (Printf.sprintf "  \"full_total_ms\": %.2f,\n" !full_total);
  Buffer.add_string buf (Printf.sprintf "  \"speedup\": %.3f,\n" speedup);
  Buffer.add_string buf (Printf.sprintf "  \"delta_replays\": %d,\n" replays);
  Buffer.add_string buf (Printf.sprintf "  \"verdict_cache_hits\": %d,\n" verdict_hits);
  Buffer.add_string buf (Printf.sprintf "  \"encoding_cache_hits\": %d,\n" enc_hits);
  Buffer.add_string buf (Printf.sprintf "  \"verdicts_agree\": %b\n}\n" !agree_all);
  let oc = open_out "BENCH_serve.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  print_endline "   wrote BENCH_serve.json";
  (* the correctness gate is unconditional: replayed verdicts must be
     indistinguishable from freshly solved ones *)
  if not !agree_all then begin
    prerr_endline "bench serve: delta daemon diverged from full verification";
    exit 1
  end;
  if smoke then begin
    if replays = 0 then begin
      prerr_endline "bench-serve-smoke: no verdict was replayed across a diff";
      exit 1
    end;
    if verdict_hits = 0 || enc_hits = 0 then begin
      Printf.eprintf "bench-serve-smoke: cache hits missing (verdict %d, encoding %d)\n"
        verdict_hits enc_hits;
      exit 1
    end;
    (* same noise-floor convention as the other smokes: the 2x floor is
       only meaningful when the full path costs enough to measure *)
    let floor_ms = 50.0 in
    let target = 2.0 in
    if !full_total >= floor_ms && speedup < target then begin
      Printf.eprintf "bench-serve-smoke: delta %.2fx below the %.1fx floor (full %.1f ms)\n"
        speedup target !full_total;
      exit 1
    end;
    if !full_total < floor_ms then
      Printf.printf
        "   (speedup gate skipped: full path %.1f ms under the %.0f ms floor — agreement and \
         cache gates still enforced)\n%!"
        !full_total floor_ms
    else Printf.printf "   smoke OK: verdicts agree, %d replays, delta %.2fx\n%!" replays speedup
  end

(* ---------------- fault: k-failure invariance, hybrid vs SMT ---------------- *)

(* Every query is answered twice: by [Faults.hybrid] (the graph min-cut
   fast path racing the two-copy SMT encoding inside the portfolio) and
   by the two-copy SMT encoding alone.  Cross-path verdict agreement is
   the differential gate; the speedup gate only counts the subset the
   graph path actually decided, because that is the only subset where
   the fast path can claim credit. *)
let fault_bench ~smoke () =
  print_endline "== fault: <=k-failure invariance, hybrid (graph + SMT race) vs SMT alone ==";
  let ks = [ 1; 2; 3 ] in
  let pods_list = if !full then [ 2; 4; 6 ] else [ 2; 4 ] in
  let fattree_cases =
    List.concat_map
      (fun pods ->
        let ft = G.Fattree.make ~pods in
        let net = ft.G.Fattree.network in
        let devices = List.map (fun (d : A.device) -> d.A.dev_name) net.A.net_devices in
        let case ?(suffix = "") dst ks =
          ( Printf.sprintf "fattree-pods%d%s" pods suffix,
            net,
            devices,
            MS.Property.Subnet (dst, ft.G.Fattree.tor_subnet dst),
            ks )
        in
        let primary = case (List.hd ft.G.Fattree.tors) ks in
        (* a second destination ToR at k=1 for the larger fabrics: the
           invariant holds there (min-cut 2 > 1), which is the expensive
           UNSAT side of the SMT encoding and the cheap side of the
           graph path *)
        match List.rev ft.G.Fattree.tors with
        | last :: _ when pods >= 4 -> [ primary; case ~suffix:"-torB" last [ 1 ] ]
        | _ -> [ primary ])
      pods_list
  in
  let enterprise_cases =
    (* OSPF-internal networks are ineligible for the graph path by
       design, so these rows exercise the fall-back-to-SMT leg of the
       race; k is capped in smoke mode because each verdict is solved
       twice on a doubled encoding. *)
    List.map
      (fun (label, inject) ->
        let t = G.Enterprise.make ~seed:7 ~routers:6 ~inject () in
        let net = t.G.Enterprise.network in
        let devices = List.map (fun (d : A.device) -> d.A.dev_name) net.A.net_devices in
        let target = List.hd (List.rev t.G.Enterprise.rack_role) in
        ( label,
          net,
          devices,
          MS.Property.Subnet (target, t.G.Enterprise.rack_subnet target),
          if !full then ks else [ 1 ] ))
      [
        ("enterprise-clean", G.Enterprise.no_bugs);
        ("enterprise-single-homed", { G.Enterprise.no_bugs with G.Enterprise.single_homed = true });
      ]
  in
  let cases = fattree_cases @ enterprise_cases in
  let rows = ref [] in
  let agree_all = ref true in
  let graph_decided = ref 0 in
  let g_smt = ref 0.0 and g_hyb = ref 0.0 in
  List.iter
    (fun (name, net, sources, dest, ks) ->
      List.iter
        (fun k ->
          let hr, hyb_ms =
            time (fun () -> Faults.hybrid net MS.Options.default ~k ~sources dest)
          in
          let sr, smt_ms =
            time (fun () -> MS.Verify.fault_invariant net MS.Options.default ~k ~sources dest)
          in
          let hv = MS.Verify.Report.verdict_name hr.MS.Verify.Report.verdict in
          let sv = MS.Verify.Report.verdict_name sr.MS.Verify.Report.verdict in
          let agree = hv = sv in
          if not agree then agree_all := false;
          let meth =
            match hr.MS.Verify.Report.method_ with
            | Some m -> MS.Verify.Report.method_name m
            | None -> "?"
          in
          if meth = "graph" then begin
            incr graph_decided;
            g_smt := !g_smt +. smt_ms;
            g_hyb := !g_hyb +. hyb_ms
          end;
          Printf.printf "   %-26s k=%d %-9s [%-8s] hybrid %8.1f ms vs smt %8.1f ms%s\n%!" name k
            hv meth hyb_ms smt_ms
            (if agree then "" else "  ** VERDICTS DIVERGE **");
          rows := (name, k, hv, sv, meth, hyb_ms, smt_ms, agree) :: !rows)
        ks)
    cases;
  let speedup = if !g_hyb > 0.0 then !g_smt /. !g_hyb else 0.0 in
  Printf.printf
    "   totals: %d queries, %d graph-decided; on that subset hybrid %.1f ms vs smt %.1f ms \
     (%.1fx)\n%!"
    (List.length !rows) !graph_decided !g_hyb !g_smt speedup;
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n  \"schema\": 2,\n  \"benchmark\": \"fault\",\n";
  Buffer.add_string buf "  \"rows\": [\n";
  let n = List.length !rows in
  List.iteri
    (fun i (name, k, hv, sv, meth, hyb_ms, smt_ms, agree) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"network\": \"%s\", \"k\": %d, \"verdict\": \"%s\", \"verdict_smt\": \"%s\", \
            \"method\": \"%s\", \"hybrid_ms\": %.2f, \"smt_ms\": %.2f, \"verdicts_agree\": %b \
            }%s\n"
           name k hv sv meth hyb_ms smt_ms agree
           (if i = n - 1 then "" else ",")))
    (List.rev !rows);
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf (Printf.sprintf "  \"queries\": %d,\n" n);
  Buffer.add_string buf (Printf.sprintf "  \"graph_decided\": %d,\n" !graph_decided);
  Buffer.add_string buf (Printf.sprintf "  \"graph_subset_hybrid_ms\": %.2f,\n" !g_hyb);
  Buffer.add_string buf (Printf.sprintf "  \"graph_subset_smt_ms\": %.2f,\n" !g_smt);
  Buffer.add_string buf (Printf.sprintf "  \"graph_subset_speedup\": %.3f,\n" speedup);
  Buffer.add_string buf (Printf.sprintf "  \"verdicts_agree\": %b\n}\n" !agree_all);
  let oc = open_out "BENCH_fault.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  print_endline "   wrote BENCH_fault.json";
  (* the differential gate is unconditional: the graph fast path must be
     observationally identical to the SMT encoding *)
  if not !agree_all then begin
    prerr_endline "bench fault: hybrid and SMT-only verdicts diverge";
    exit 1
  end;
  if smoke then begin
    if !graph_decided = 0 then begin
      prerr_endline "bench-fault-smoke: the graph fast path decided no query";
      exit 1
    end;
    (* same noise-floor convention as the other smokes: the 2x floor is
       only meaningful when the SMT side costs enough to measure *)
    let floor_ms = 50.0 in
    let target = 2.0 in
    if !g_smt >= floor_ms && speedup < target then begin
      Printf.eprintf "bench-fault-smoke: hybrid %.2fx below the %.1fx floor (smt %.1f ms)\n"
        speedup target !g_smt;
      exit 1
    end;
    if !g_smt < floor_ms then
      Printf.printf
        "   (speedup gate skipped: graph-decided SMT total %.1f ms under the %.0f ms floor — \
         agreement and coverage gates still enforced)\n%!"
        !g_smt floor_ms
    else
      Printf.printf "   smoke OK: verdicts agree, %d graph-decided, hybrid %.2fx\n%!"
        !graph_decided speedup
  end

(* ---------------- Bechamel micro-benchmarks ---------------- *)

let micro () =
  print_endline "== SMT substrate micro-benchmarks (Bechamel, monotonic clock) ==";
  let open Bechamel in
  let sat_test =
    Test.make ~name:"sat: pigeonhole 5 into 4"
      (Staged.stage (fun () ->
           let s = Smt.Sat.create () in
           let v = Array.init 5 (fun _ -> Array.init 4 (fun _ -> Smt.Sat.new_var s)) in
           for p = 0 to 4 do
             Smt.Sat.add_clause s (List.init 4 (fun h -> Smt.Sat.pos_lit v.(p).(h)))
           done;
           for h = 0 to 3 do
             for p1 = 0 to 4 do
               for p2 = p1 + 1 to 4 do
                 Smt.Sat.add_clause s [ Smt.Sat.neg_lit v.(p1).(h); Smt.Sat.neg_lit v.(p2).(h) ]
               done
             done
           done;
           ignore (Smt.Sat.solve s)))
  in
  let idl_test =
    Test.make ~name:"idl: 200-var chain"
      (Staged.stage (fun () ->
           let cs = List.init 199 (fun i -> { Smt.Idl.x = i + 1; y = i; k = 1; tag = i }) in
           ignore (Smt.Idl.check ~nvars:200 cs)))
  in
  let encode_test =
    Test.make ~name:"encode: fattree pods=4"
      (Staged.stage (fun () ->
           let ft = G.Fattree.make ~pods:4 in
           ignore (MS.Encode.build ft.G.Fattree.network MS.Options.default)))
  in
  let run_test t =
    let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second 0.5) () in
    let measure = Toolkit.Instance.monotonic_clock in
    let raw = Benchmark.all cfg [ measure ] t in
    let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
    let results = Analyze.all ols measure raw in
    Hashtbl.iter
      (fun name r ->
        match Analyze.OLS.estimates r with
        | Some (est :: _) -> Printf.printf "  %-28s %14.1f ns/run\n%!" name est
        | Some [] | None -> ())
      results
  in
  List.iter run_test [ sat_test; idl_test; encode_test ];
  (* Accumulated statistics of one incremental solver across a small
     session: bound a difference-logic chain, then probe it three times
     under increasingly tight assumptions. *)
  let module T = Smt.Term in
  let module Solver = Smt.Solver in
  let s = Solver.create ~incremental:true () in
  let xs = Array.init 40 (fun i -> T.var (Printf.sprintf "micro!x%d" i) Smt.Sort.Int) in
  for i = 0 to 38 do
    Solver.assert_term s (T.lt xs.(i) xs.(i + 1))
  done;
  Solver.assert_term s (T.leq (T.int_const 0) xs.(0));
  List.iter
    (fun bound -> ignore (Solver.check s ~assumptions:[ T.leq xs.(39) (T.int_const bound) ]))
    [ 100; 39; 38 ];
  let st = Solver.stats s in
  Printf.printf
    "  incremental session: %d checks, %d conflicts, %d decisions, %d propagations, %d learned \
     clauses, %d restarts\n\
     %!"
    st.Solver.checks st.Solver.conflicts st.Solver.decisions st.Solver.propagations
    st.Solver.learned_clauses st.Solver.restarts

let () =
  let args = Array.to_list Sys.argv in
  full := List.mem "--full" args;
  let smoke = List.mem "--smoke" args in
  let resume = List.mem "--resume" args in
  let which =
    match List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) (List.tl args) with
    | [] -> "all"
    | w :: _ -> w
  in
  let t0 = Unix.gettimeofday () in
  (match which with
   | "fig7" -> fig7 ()
   | "fig8" -> fig8 ()
   | "opts" -> opts_bench ()
   | "violations" -> violations ()
   | "micro" -> micro ()
   | "batch" -> batch ~smoke ()
   | "solver" -> solver_bench ~smoke ()
   | "certify" -> certify_bench ~smoke ()
   | "scale" -> scale ~smoke ~resume ()
   | "arena" -> arena_bench ~smoke ()
   | "serve" -> serve_bench ~smoke ()
   | "fault" -> fault_bench ~smoke ()
   | "all" ->
     fig7 ();
     print_newline ();
     fig8 ();
     print_newline ();
     opts_bench ();
     print_newline ();
     violations ();
     print_newline ();
     batch ~smoke ();
     print_newline ();
     solver_bench ~smoke ();
     print_newline ();
     certify_bench ~smoke ();
     print_newline ();
     scale ~smoke ~resume ();
     print_newline ();
     arena_bench ~smoke ();
     print_newline ();
     serve_bench ~smoke ();
     print_newline ();
     fault_bench ~smoke ();
     print_newline ();
     micro ()
   | other ->
     Printf.eprintf
       "unknown benchmark %s (fig7|fig8|opts|violations|batch|solver|certify|scale|arena|serve|fault|micro|all)\n"
       other;
     exit 2);
  Printf.printf "\ntotal bench time: %.1f s\n" (Unix.gettimeofday () -. t0)
