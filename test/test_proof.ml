(* Tests for the independent proof checker and verdict certification.

   The checker must accept real solver traces end to end — and, just as
   importantly, must be falsifiable: hand-crafted invalid proofs (a
   bogus RUP step, a use of a deleted clause, a deletion of an absent
   clause, a mis-justified theory lemma) are all rejected, and so is a genuine trace with an input clause removed. *)

module MS = Minesweeper
module G = Generators
module T = Smt.Term
module Sat = Smt.Sat
module Solver = Smt.Solver
module Checker = Proof.Checker
module Certify = Proof.Certify

(* checker literal convention: variable v is 2v positively, 2v+1 negatively *)
let p v = 2 * v
let n v = (2 * v) + 1

let run ?theory ?(goal = Checker.Empty) steps = Checker.run ?theory ~goal steps

let expect_ok name = function
  | Ok (s : Checker.summary) -> s
  | Error msg -> Alcotest.failf "%s: checker rejected a valid proof: %s" name msg

let expect_error name substring = function
  | Ok (_ : Checker.summary) -> Alcotest.failf "%s: checker accepted an invalid proof" name
  | Error msg ->
    let re = Str.regexp_string substring in
    (try ignore (Str.search_forward re msg 0)
     with Not_found ->
       Alcotest.failf "%s: rejection %S does not mention %S" name msg substring)

(* ---- hand-crafted traces ---- *)

let test_valid_resolution () =
  let s =
    expect_ok "resolution"
      (run
         [
           Sat.P_input [| p 1 |];
           Sat.P_input [| n 1; p 2 |];
           Sat.P_input [| n 2 |];
           Sat.P_rup [||];
         ])
  in
  Alcotest.(check int) "inputs" 3 s.Checker.inputs;
  Alcotest.(check int) "rup steps" 1 s.Checker.rup_checked

let test_goal_without_explicit_empty () =
  (* contradictory root units conflict when the goal is checked, even
     with no explicit empty-clause step *)
  ignore
    (expect_ok "root conflict" (run [ Sat.P_input [| p 1 |]; Sat.P_input [| n 1 |] ]))

let test_rejects_bogus_rup () =
  expect_error "bogus rup" "not RUP"
    (run [ Sat.P_input [| p 1; p 2 |]; Sat.P_rup [| p 1 |] ])

let test_rejects_deleted_then_used () =
  (* no root units anywhere, so the deletion cannot hide behind
     propagate-before-delete semantics *)
  let cnf = [ Sat.P_input [| p 1; p 2 |]; Sat.P_input [| n 1; p 3 |]; Sat.P_input [| n 2; p 3 |] ] in
  (* control: with all three clauses alive, [c] is RUP *)
  ignore
    (expect_ok "control"
       (run ~goal:(Checker.Assumptions [ n 3 ]) (cnf @ [ Sat.P_rup [| p 3 |] ])));
  (* deleting an antecedent first must break the derivation *)
  expect_error "deleted then used" "not RUP"
    (run (cnf @ [ Sat.P_delete [| n 1; p 3 |]; Sat.P_rup [| p 3 |] ]))

let test_rejects_absent_deletion () =
  expect_error "absent deletion" "not in the active set"
    (run [ Sat.P_input [| p 1; p 2 |]; Sat.P_delete [| p 1 |] ]);
  (* deleting the same clause twice: second kill has no alive copy *)
  expect_error "double deletion" "not in the active set"
    (run [ Sat.P_input [| p 1; p 2 |]; Sat.P_delete [| p 1; p 2 |]; Sat.P_delete [| p 2; p 1 |] ])

let test_rejects_bad_lemma () =
  (* default theory callback rejects every lemma *)
  expect_error "lemma, no theory" "rejected" (run [ Sat.P_lemma [| p 1; p 2 |] ]);
  (* an explicit revalidator that declines *)
  expect_error "lemma, declined" "no such lemma"
    (run ~theory:(fun _ -> Error "no such lemma") [ Sat.P_lemma [| p 1; p 2 |] ]);
  (* and one that accepts: the lemma joins the active set and resolves *)
  ignore
    (expect_ok "lemma accepted"
       (run
          ~theory:(fun _ -> Ok ())
          [
            Sat.P_lemma [| p 1 |];
            Sat.P_input [| n 1; p 2 |];
            Sat.P_input [| n 2 |];
            Sat.P_rup [||];
          ]))

let test_assumption_goal_unrefuted () =
  expect_error "assumptions not refuted" "not refuted"
    (run ~goal:(Checker.Assumptions [ p 1 ]) [ Sat.P_input [| p 1; p 2 |] ])

(* ---- real SAT-core traces ---- *)

(* Pigeonhole PHP(holes+1, holes): minimally unsatisfiable, forces real
   conflict analysis, and every input clause is load-bearing. *)
let pigeonhole_trace holes =
  let s = Sat.create () in
  Sat.enable_proof s;
  let var = Array.make_matrix (holes + 1) holes 0 in
  for i = 0 to holes do
    for j = 0 to holes - 1 do
      var.(i).(j) <- Sat.new_var s
    done
  done;
  for i = 0 to holes do
    Sat.add_clause s (List.init holes (fun j -> Sat.pos_lit var.(i).(j)))
  done;
  for j = 0 to holes - 1 do
    for i = 0 to holes do
      for i' = i + 1 to holes do
        Sat.add_clause s [ Sat.neg_lit var.(i).(j); Sat.neg_lit var.(i').(j) ]
      done
    done
  done;
  (match Sat.solve s with
   | Sat.Unsat -> ()
   | Sat.Sat -> Alcotest.fail "pigeonhole formula is satisfiable?");
  Sat.proof_steps s

let test_sat_core_trace_checks () =
  let trace = pigeonhole_trace 4 in
  let s = expect_ok "php" (run trace) in
  if s.Checker.rup_checked = 0 then
    Alcotest.fail "pigeonhole solve produced no checked derivation steps"

let test_tampered_trace_rejected () =
  let trace = pigeonhole_trace 4 in
  (* drop the first input clause: the remaining CNF is satisfiable, so
     no honest completion can reach the empty clause *)
  let tampered =
    let dropped = ref false in
    List.filter
      (fun step ->
        match step with
        | Sat.P_input _ when not !dropped ->
          dropped := true;
          false
        | _ -> true)
      trace
  in
  match run tampered with
  | Ok _ -> Alcotest.fail "checker accepted a trace with an input clause removed"
  | Error _ -> ()

(* ---- solver-level certification ---- *)

let test_certify_unsat_with_theory_lemmas () =
  let solver = Solver.create ~certify:true () in
  let x = T.var "x" Smt.Sort.Int and y = T.var "y" Smt.Sort.Int in
  Solver.assert_term solver (T.lt x y);
  Solver.assert_term solver (T.lt y x);
  (match Solver.check solver with
   | Solver.Unsat -> ()
   | Solver.Sat _ -> Alcotest.fail "x<y, y<x should be unsat");
  match Certify.unsat solver with
  | Error msg -> Alcotest.failf "certification failed: %s" msg
  | Ok s ->
    if s.Certify.lemmas = 0 then
      Alcotest.fail "difference-logic refutation certified without any theory lemma"

let test_certify_model () =
  let solver = Solver.create ~certify:true () in
  let x = T.var "x" Smt.Sort.Int and y = T.var "y" Smt.Sort.Int in
  Solver.assert_term solver (T.lt x y);
  Solver.assert_term solver (T.leq y (T.add x (T.int_const 5)));
  match Solver.check solver with
  | Solver.Unsat -> Alcotest.fail "x<y<=x+5 should be sat"
  | Solver.Sat m -> (
    match Certify.model solver m with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "model certification failed: %s" msg)

let test_uncertified_solver_refuses () =
  let solver = Solver.create () in
  Solver.assert_term solver (T.fls);
  (match Solver.check solver with Solver.Unsat -> () | Solver.Sat _ -> Alcotest.fail "false is sat?");
  match Certify.unsat solver with
  | Ok _ -> Alcotest.fail "certified a solver that recorded no trace"
  | Error _ -> ()

let test_lemma_over_non_atoms_rejected () =
  (* a revalidator is bound to one solver's atom registry: a lemma
     naming variables that are no theory atoms there must be rejected *)
  let solver = Solver.create ~certify:true () in
  Solver.assert_term solver (T.var "b" Smt.Sort.Bool);
  (match Solver.check solver with Solver.Sat _ -> () | Solver.Unsat -> Alcotest.fail "b is unsat?");
  match Certify.theory_revalidator solver [| p 0; n 1 |] with
  | Ok () -> Alcotest.fail "revalidator justified a lemma over non-atoms"
  | Error _ -> ()

(* ---- full-stack certification on generated networks ---- *)

let certified_or_fail name (r : MS.Verify.Report.t) =
  match (r.MS.Verify.Report.verdict, r.MS.Verify.Report.certificate) with
  | MS.Verify.Report.Verified, MS.Verify.Report.Checked_unsat_proof { clauses; _ } ->
    if clauses < 0 then Alcotest.fail "negative clause count"
  | MS.Verify.Report.Violated _, MS.Verify.Report.Checked_model -> ()
  | (MS.Verify.Report.Timeout | MS.Verify.Report.Error _), _ ->
    Alcotest.failf "%s: %s unexpectedly timed out/errored" name r.MS.Verify.Report.label
  | _, c ->
    Alcotest.failf "%s: %s got verdict %s but certificate %s" name r.MS.Verify.Report.label
      (MS.Verify.Report.verdict_name r.MS.Verify.Report.verdict)
      (match c with
       | MS.Verify.Report.Certification_failed msg -> "certification_failed: " ^ msg
       | c -> MS.Verify.Report.certificate_name c)

let fattree_queries ft =
  let dst_tor = List.hd ft.G.Fattree.tors in
  let other_tors = List.filter (fun t -> t <> dst_tor) ft.G.Fattree.tors in
  let dest = MS.Property.Subnet (dst_tor, ft.G.Fattree.tor_subnet dst_tor) in
  [
    MS.Verify.Query.v "reachability" (fun enc ->
        MS.Property.reachability enc ~sources:other_tors dest);
    MS.Verify.Query.v "no-loops" (fun enc -> MS.Property.no_loops enc ());
    (* isolation between connected tors is false: exercises the
       Sat/model/replay path *)
    MS.Verify.Query.v "isolation-should-fail" (fun enc ->
        MS.Property.isolation enc ~sources:[ List.hd other_tors ] dest);
  ]

let test_certified_fattree_queries () =
  let ft = G.Fattree.make ~pods:2 in
  let opts = MS.Options.with_certify MS.Options.default in
  let enc = MS.Encode.build ft.G.Fattree.network opts in
  List.iter
    (fun q -> certified_or_fail "fattree" (MS.Verify.run_query enc q))
    (fattree_queries ft)

let test_certified_enterprise_session () =
  let t = G.Enterprise.make ~seed:5 ~routers:6 ~inject:G.Enterprise.no_bugs () in
  let net = t.G.Enterprise.network in
  let devices =
    List.map (fun (d : Config.Ast.device) -> d.Config.Ast.dev_name) net.Config.Ast.net_devices
  in
  let target = List.hd (List.rev devices) in
  let dest = MS.Property.Subnet (target, t.G.Enterprise.mgmt_prefix target) in
  let opts = MS.Options.with_certify MS.Options.default in
  let session = MS.Verify.Session.create net opts in
  let queries =
    [
      MS.Verify.Query.v "mgmt-reachability" (fun enc ->
          MS.Property.reachability enc ~sources:devices dest);
      MS.Verify.Query.v "no-loops" (fun enc -> MS.Property.no_loops enc ());
      MS.Verify.Query.v "isolation-should-fail" (fun enc ->
          MS.Property.isolation enc ~sources:[ List.hd devices ] dest);
      (* repeat the first query: certification over a session trace that
         spans retired activation literals *)
      MS.Verify.Query.v "mgmt-reachability-again" (fun enc ->
          MS.Property.reachability enc ~sources:devices dest);
    ]
  in
  List.iter (fun r -> certified_or_fail "enterprise session" r)
    (MS.Verify.Session.run session queries)

let test_exit_code_4 () =
  let mk label verdict certificate =
    { (MS.Verify.Report.v label verdict) with MS.Verify.Report.certificate; wall_ms = 1.0 }
  in
  let ok = mk "a" MS.Verify.Report.Verified MS.Verify.Report.Checked_model in
  let failed = mk "c" MS.Verify.Report.Verified (MS.Verify.Report.Certification_failed "bogus") in
  let timeout = mk "d" MS.Verify.Report.Timeout MS.Verify.Report.Uncertified in
  Alcotest.(check int) "all ok" 0 (MS.Verify.Report.exit_code [ ok ]);
  Alcotest.(check int) "timeout" 3 (MS.Verify.Report.exit_code [ ok; timeout ]);
  Alcotest.(check int)
    "certification failure dominates" 4
    (MS.Verify.Report.exit_code [ ok; timeout; failed ])

(* ---- session fork guard ---- *)

let test_session_fork_guard () =
  let ft = G.Fattree.make ~pods:2 in
  let session = MS.Verify.Session.create ft.G.Fattree.network MS.Options.default in
  let dst_tor = List.hd ft.G.Fattree.tors in
  let dest = MS.Property.Subnet (dst_tor, ft.G.Fattree.tor_subnet dst_tor) in
  let prop enc = MS.Property.reachability enc ~sources:[ List.nth ft.G.Fattree.tors 1 ] dest in
  (* parent use before the fork is fine *)
  ignore (MS.Verify.Session.run_one session (MS.Verify.Query.v "pre-fork" prop));
  flush stdout;
  flush stderr;
  (match Unix.fork () with
   | 0 ->
     (* child: the session belongs to the parent; using it must fail
        fast rather than corrupt the shared-by-copy assumption stack *)
     let code =
       match MS.Verify.Session.run_one session (MS.Verify.Query.v "post-fork" prop) with
       | exception Invalid_argument _ -> 0
       | exception _ -> 1
       | _ -> 2
     in
     Unix._exit code
   | pid -> (
     match Unix.waitpid [] pid with
     | _, Unix.WEXITED 0 -> ()
     | _, Unix.WEXITED 2 -> Alcotest.fail "forked child used the parent's session unguarded"
     | _, _ -> Alcotest.fail "forked child died unexpectedly"));
  (* the parent's session is still usable after the child's attempt *)
  ignore (MS.Verify.Session.run_one session (MS.Verify.Query.v "post-child" prop))

let () =
  Alcotest.run "proof"
    [
      ( "checker",
        [
          Alcotest.test_case "valid resolution" `Quick test_valid_resolution;
          Alcotest.test_case "root conflict goal" `Quick test_goal_without_explicit_empty;
          Alcotest.test_case "bogus rup rejected" `Quick test_rejects_bogus_rup;
          Alcotest.test_case "deleted-then-used rejected" `Quick test_rejects_deleted_then_used;
          Alcotest.test_case "absent deletion rejected" `Quick test_rejects_absent_deletion;
          Alcotest.test_case "bad lemma rejected" `Quick test_rejects_bad_lemma;
          Alcotest.test_case "unrefuted assumptions rejected" `Quick
            test_assumption_goal_unrefuted;
        ] );
      ( "sat-core",
        [
          Alcotest.test_case "pigeonhole trace checks" `Quick test_sat_core_trace_checks;
          Alcotest.test_case "tampered trace rejected" `Quick test_tampered_trace_rejected;
        ] );
      ( "solver",
        [
          Alcotest.test_case "unsat with theory lemmas" `Quick
            test_certify_unsat_with_theory_lemmas;
          Alcotest.test_case "model certification" `Quick test_certify_model;
          Alcotest.test_case "no trace, no certificate" `Quick test_uncertified_solver_refuses;
          Alcotest.test_case "lemma over non-atoms rejected" `Quick
            test_lemma_over_non_atoms_rejected;
        ] );
      ( "full-stack",
        [
          Alcotest.test_case "fattree queries certified" `Quick test_certified_fattree_queries;
          Alcotest.test_case "enterprise session certified" `Quick
            test_certified_enterprise_session;
          Alcotest.test_case "exit code 4" `Quick test_exit_code_4;
        ] );
      ("fork-guard", [ Alcotest.test_case "session after fork" `Quick test_session_fork_guard ]);
    ]
