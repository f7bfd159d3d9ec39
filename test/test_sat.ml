(* Tests for the CDCL SAT core, including a differential qcheck test
   against a brute-force enumerator on random small CNFs and a certified
   property over random 3-CNF that drives chronological backtracking. *)

module S = Smt.Sat

let result = Alcotest.testable (fun fmt r -> Format.pp_print_string fmt (match r with S.Sat -> "sat" | S.Unsat -> "unsat")) ( = )

let fresh_vars s n = Array.init n (fun _ -> S.new_var s)

let test_trivial_sat () =
  let s = S.create () in
  let v = fresh_vars s 2 in
  S.add_clause s [ S.pos_lit v.(0); S.pos_lit v.(1) ];
  S.add_clause s [ S.neg_lit v.(0) ];
  Alcotest.check result "sat" S.Sat (S.solve s);
  Alcotest.(check bool) "v0 false" false (S.value_var s v.(0));
  Alcotest.(check bool) "v1 true" true (S.value_var s v.(1))

let test_trivial_unsat () =
  let s = S.create () in
  let v = fresh_vars s 1 in
  S.add_clause s [ S.pos_lit v.(0) ];
  S.add_clause s [ S.neg_lit v.(0) ];
  Alcotest.check result "unsat" S.Unsat (S.solve s)

let test_empty_clause () =
  let s = S.create () in
  let _ = fresh_vars s 1 in
  S.add_clause s [];
  Alcotest.check result "unsat" S.Unsat (S.solve s)

let test_no_clauses () =
  let s = S.create () in
  let _ = fresh_vars s 3 in
  Alcotest.check result "sat" S.Sat (S.solve s)

(* Pigeonhole: n+1 pigeons in n holes is unsatisfiable and needs real
   conflict-driven search, exercising learning and backjumping. *)
let pigeonhole_into s n =
  let var = Array.init (n + 1) (fun _ -> Array.init n (fun _ -> S.new_var s)) in
  for p = 0 to n do
    S.add_clause s (List.init n (fun h -> S.pos_lit var.(p).(h)))
  done;
  for h = 0 to n - 1 do
    for p1 = 0 to n do
      for p2 = p1 + 1 to n do
        S.add_clause s [ S.neg_lit var.(p1).(h); S.neg_lit var.(p2).(h) ]
      done
    done
  done

let pigeonhole n =
  let s = S.create () in
  pigeonhole_into s n;
  s

let test_pigeonhole () =
  for n = 2 to 6 do
    Alcotest.check result (Printf.sprintf "php %d" n) S.Unsat (S.solve (pigeonhole n))
  done

(* Graph-coloring style satisfiable instance with many propagations. *)
let test_chain_implications () =
  let s = S.create () in
  let n = 200 in
  let v = fresh_vars s n in
  for i = 0 to n - 2 do
    S.add_clause s [ S.neg_lit v.(i); S.pos_lit v.(i + 1) ]
  done;
  S.add_clause s [ S.pos_lit v.(0) ];
  Alcotest.check result "sat" S.Sat (S.solve s);
  for i = 0 to n - 1 do
    if not (S.value_var s v.(i)) then Alcotest.failf "var %d should be true" i
  done

let test_final_check_veto () =
  (* A final_check that rejects every assignment where v0 = v1 forces the
     solver to find a model with v0 <> v1. *)
  let s = S.create () in
  let v = fresh_vars s 2 in
  S.add_clause s [ S.pos_lit v.(0); S.pos_lit v.(1) ];
  let final_check s =
    if S.value_var s v.(0) = S.value_var s v.(1) then begin
      let lit_of i = if S.value_var s v.(i) then S.neg_lit v.(i) else S.pos_lit v.(i) in
      [ [ lit_of 0; lit_of 1 ] ]
    end
    else []
  in
  Alcotest.check result "sat" S.Sat (S.solve ~final_check s);
  Alcotest.(check bool) "differ" true (S.value_var s v.(0) <> S.value_var s v.(1))

let test_final_check_unsat () =
  (* Vetoing everything makes the instance unsatisfiable. *)
  let s = S.create () in
  let v = fresh_vars s 3 in
  let final_check s =
    let lit_of i = if S.value_var s v.(i) then S.neg_lit v.(i) else S.pos_lit v.(i) in
    [ [ lit_of 0; lit_of 1; lit_of 2 ] ]
  in
  Alcotest.check result "unsat" S.Unsat (S.solve ~final_check s)

(* --- assumptions and incremental reuse ------------------------------------- *)

let test_assumptions_basic () =
  let s = S.create () in
  let v = fresh_vars s 2 in
  S.add_clause s [ S.pos_lit v.(0); S.pos_lit v.(1) ];
  (* Satisfiable alone and under one-sided assumptions... *)
  Alcotest.check result "free" S.Sat (S.solve s);
  Alcotest.check result "assume ~v0" S.Sat (S.solve ~assumptions:[ S.neg_lit v.(0) ] s);
  Alcotest.(check bool) "v1 forced" true (S.value_var s v.(1));
  (* ...but not when both disjuncts are assumed away. *)
  Alcotest.check result "assume ~v0 ~v1" S.Unsat
    (S.solve ~assumptions:[ S.neg_lit v.(0); S.neg_lit v.(1) ] s);
  let core = S.unsat_core s in
  Alcotest.(check bool) "core nonempty" true (core <> []);
  List.iter
    (fun l ->
      if not (List.mem l [ S.neg_lit v.(0); S.neg_lit v.(1) ]) then
        Alcotest.failf "core literal %d is not an assumption" l)
    core;
  (* The solver is still usable, and not poisoned by the failed call. *)
  Alcotest.check result "free again" S.Sat (S.solve s)

let test_assumptions_contradictory () =
  let s = S.create () in
  let v = fresh_vars s 2 in
  S.add_clause s [ S.pos_lit v.(0); S.pos_lit v.(1) ];
  Alcotest.check result "p and ~p" S.Unsat
    (S.solve ~assumptions:[ S.pos_lit v.(0); S.neg_lit v.(0) ] s);
  let core = List.sort compare (S.unsat_core s) in
  Alcotest.(check (list int)) "core is the pair" [ S.pos_lit v.(0); S.neg_lit v.(0) ] core

let test_assumption_false_at_level0 () =
  let s = S.create () in
  let v = fresh_vars s 1 in
  S.add_clause s [ S.neg_lit v.(0) ];
  Alcotest.check result "forced false" S.Unsat (S.solve ~assumptions:[ S.pos_lit v.(0) ] s);
  Alcotest.(check (list int)) "core singleton" [ S.pos_lit v.(0) ] (S.unsat_core s)

let test_incremental_clause_growth () =
  (* Enumerate all models of "at least one of 3" by excluding each model
     found, exercising solve / add_clause interleaving. *)
  let s = S.create () in
  let v = fresh_vars s 3 in
  S.add_clause s [ S.pos_lit v.(0); S.pos_lit v.(1); S.pos_lit v.(2) ];
  let count = ref 0 in
  while S.solve s = S.Sat do
    incr count;
    if !count > 7 then Alcotest.fail "more models than assignments";
    S.add_clause s
      (List.init 3 (fun i -> if S.value_var s v.(i) then S.neg_lit v.(i) else S.pos_lit v.(i)))
  done;
  Alcotest.(check int) "7 models" 7 !count

let test_unsat_is_permanent () =
  let s = S.create () in
  let v = fresh_vars s 1 in
  S.add_clause s [ S.pos_lit v.(0) ];
  S.add_clause s [ S.neg_lit v.(0) ];
  Alcotest.check result "unsat" S.Unsat (S.solve s);
  Alcotest.(check (list int)) "no core: formula itself unsat" [] (S.unsat_core s);
  Alcotest.check result "still unsat under assumptions" S.Unsat
    (S.solve ~assumptions:[ S.pos_lit v.(0) ] s)

(* --- learnt-database reduction vs locked clauses (the PR 5 bug class) ------ *)

(* With the learnt cap tiny, a database reduction runs every few
   conflicts while many learnt clauses are serving as trail reasons.
   The historical bug compared reason values physically against a
   freshly boxed [Some clause] — always false — so reductions deleted
   locked clauses and conflict analysis cited deleted antecedents.  In
   the arena representation reasons are crefs and [locked] is integer
   equality, but a reintroduced fresh-box (or otherwise always-false)
   comparison would again delete live reasons; compaction then clears
   their [reason] slots, and conflict analysis hits the missing-reason
   assertion or derives garbage.  Correct Unsat answers under thousands
   of forced reductions *and* at least one arena compaction are the
   regression signal. *)
let test_locked_clauses_survive_reduction () =
  let s = S.create () in
  S.set_max_learnts s 3;
  pigeonhole_into s 6;
  Alcotest.check result "php 6 under constant reduction" S.Unsat (S.solve s);
  if S.num_compactions s = 0 then
    Alcotest.failf "expected arena compactions (wasted %d of %d words)" (S.arena_wasted_words s)
      (S.arena_words s)

(* The same stress under assumptions: the refutation is independent of
   the (irrelevant) assumed literal, so the reported core must be empty,
   and the solver must stay reusable after the stressed call. *)
let test_reduction_stress_incremental () =
  let s = S.create () in
  S.set_max_learnts s 3;
  let extra = S.new_var s in
  pigeonhole_into s 5;
  Alcotest.check result "unsat under irrelevant assumption" S.Unsat
    (S.solve ~assumptions:[ S.pos_lit extra ] s);
  Alcotest.(check (list int)) "core empty: formula itself unsat" [] (S.unsat_core s);
  Alcotest.check result "still unsat" S.Unsat (S.solve s)

(* --- differential testing against brute force ----------------------------- *)

let brute_force nvars clauses =
  let rec go assignment i =
    if i = nvars then
      List.for_all
        (fun clause ->
          List.exists
            (fun l ->
              let v = l / 2 and neg = l land 1 = 1 in
              if neg then not assignment.(v) else assignment.(v))
            clause)
        clauses
    else begin
      assignment.(i) <- false;
      go assignment (i + 1)
      ||
      (assignment.(i) <- true;
       go assignment (i + 1))
    end
  in
  go (Array.make nvars false) 0

let cnf_gen =
  let open QCheck.Gen in
  let nvars = 8 in
  let lit = map2 (fun v neg -> (2 * v) + if neg then 1 else 0) (int_range 0 (nvars - 1)) bool in
  let clause = list_size (int_range 1 3) lit in
  let cnf = list_size (int_range 1 40) clause in
  map (fun clauses -> (nvars, clauses)) cnf

let prop_matches_brute_force =
  QCheck.Test.make ~name:"cdcl matches brute force" ~count:500
    (QCheck.make cnf_gen)
    (fun (nvars, clauses) ->
      let s = S.create () in
      let v = fresh_vars s nvars in
      List.iter (fun c -> S.add_clause s (List.map (fun l -> if l land 1 = 1 then S.neg_lit v.(l / 2) else S.pos_lit v.(l / 2)) c)) clauses;
      let got = S.solve s = S.Sat in
      let expected = brute_force nvars clauses in
      if got <> expected then QCheck.Test.fail_reportf "solver=%b brute=%b" got expected;
      (* When satisfiable, the produced model must satisfy every clause. *)
      (not got)
      || List.for_all
           (fun c ->
             List.exists
               (fun l ->
                 let value = S.value_var s v.(l / 2) in
                 if l land 1 = 1 then not value else value)
               c)
           clauses)

(* --- differential testing of assumption-based solving ---------------------- *)

(* One incremental solver answering a sequence of assumption sets must
   agree with a fresh solver given the assumptions as unit clauses, and
   every unsat core must itself be unsatisfiable with the formula. *)
let cnf_with_assumptions_gen =
  let open QCheck.Gen in
  let nvars = 8 in
  let lit = map2 (fun v neg -> (2 * v) + if neg then 1 else 0) (int_range 0 (nvars - 1)) bool in
  let clause = list_size (int_range 1 3) lit in
  let cnf = list_size (int_range 1 40) clause in
  let assumption_set = list_size (int_range 0 5) lit in
  map3
    (fun clauses a1 a2 -> (nvars, clauses, a1, a2))
    cnf assumption_set assumption_set

let fresh_result nvars clauses units =
  let s = S.create () in
  let v = fresh_vars s nvars in
  let tr l = if l land 1 = 1 then S.neg_lit v.(l / 2) else S.pos_lit v.(l / 2) in
  List.iter (fun c -> S.add_clause s (List.map tr c)) clauses;
  List.iter (fun l -> S.add_clause s [ tr l ]) units;
  S.solve s

let prop_assumptions_match_fresh =
  QCheck.Test.make ~name:"assumption solving matches fresh solver with units" ~count:300
    (QCheck.make cnf_with_assumptions_gen)
    (fun (nvars, clauses, a1, a2) ->
      let s = S.create () in
      let v = fresh_vars s nvars in
      let tr l = if l land 1 = 1 then S.neg_lit v.(l / 2) else S.pos_lit v.(l / 2) in
      List.iter (fun c -> S.add_clause s (List.map tr c)) clauses;
      (* The same incremental solver answers three queries in a row. *)
      List.iteri
        (fun round assumptions ->
          let got = S.solve ~assumptions:(List.map tr assumptions) s in
          let expected = fresh_result nvars clauses assumptions in
          if got <> expected then
            QCheck.Test.fail_reportf "round %d: incremental=%s fresh=%s" round
              (match got with S.Sat -> "sat" | S.Unsat -> "unsat")
              (match expected with S.Sat -> "sat" | S.Unsat -> "unsat");
          (match got with
           | S.Sat ->
             (* Model satisfies the clauses and every assumption. *)
             List.iter
               (fun c ->
                 if not (List.exists (fun l -> S.value_lit s (tr l)) c) then
                   QCheck.Test.fail_reportf "round %d: clause unsatisfied" round)
               clauses;
             List.iter
               (fun l ->
                 if not (S.value_lit s (tr l)) then
                   QCheck.Test.fail_reportf "round %d: assumption unsatisfied" round)
               assumptions
           | S.Unsat ->
             let core = S.unsat_core s in
             (* Core literals are assumption literals... *)
             List.iter
               (fun cl ->
                 if not (List.exists (fun l -> tr l = cl) assumptions) then
                   QCheck.Test.fail_reportf "round %d: core literal not assumed" round)
               core;
             (* ...and the core alone (as units) is still unsatisfiable.
                Variables are allocated contiguously from 0 in both
                solvers, so core literals transfer verbatim. *)
             let s2 = S.create () in
             let _ = fresh_vars s2 nvars in
             List.iter (fun c -> S.add_clause s2 (List.map tr c)) clauses;
             List.iter (fun cl -> S.add_clause s2 [ cl ]) core;
             if S.solve s2 <> S.Unsat then
               QCheck.Test.fail_reportf "round %d: unsat core is not a core" round))
        [ a1; a2; a1 ];
      true)

(* --- chronological backtracking --------------------------------------------- *)

(* Random 3-CNF near the satisfiability threshold (4.26 clauses per
   variable), each solved twice on one solver with proof logging on,
   each time under a random (maybe empty) set of assumptions.  In half
   of the formulas a random third of the clauses is withheld from the
   database and handed back by [final_check] when a total assignment
   falsifies it, as a theory solver hands back conflict clauses: after
   the first of several such lemmas backtracks, the others assert their
   literals below the decision level, so the search assigns out of
   order on every such formula, not only after the rare jump longer
   than the threshold.  A model must satisfy every clause and
   assumption; an Unsat answer must come with a core drawn from the
   assumptions and a trace the independent checker accepts, the
   withheld clauses standing in for the theory that justifies lemmas. *)
let random_3cnf_gen =
  let open QCheck.Gen in
  int_range 60 150 >>= fun nvars ->
  let lit = map2 (fun v neg -> (2 * v) + if neg then 1 else 0) (int_range 0 (nvars - 1)) bool in
  let clause = pair (list_repeat 3 lit) (int_range 0 2) in
  let clauses = list_repeat (int_of_float (4.26 *. float_of_int nvars)) clause in
  let assumptions = oneof [ return []; list_size (int_range 1 8) lit ] in
  map4
    (fun withhold clauses a1 a2 ->
      let held, given = List.partition (fun (_, k) -> withhold && k = 0) clauses in
      (nvars, List.map fst given, List.map fst held, [ a1; a2 ]))
    bool clauses assumptions assumptions

let prop_chronological kept =
  QCheck.Test.make ~name:"chronological backtracking" ~count:(10 * Mutators.fuzz_count)
    (QCheck.make
       ~print:(fun (n, given, held, rounds) ->
         Printf.sprintf "%d vars, %d clauses + %d withheld, assumptions %s" n (List.length given)
           (List.length held)
           (String.concat " / "
              (List.map (fun a -> String.concat "," (List.map string_of_int a)) rounds)))
       random_3cnf_gen)
    (fun (nvars, given, held, rounds) ->
      let s = S.create () in
      S.enable_proof s;
      let _ = fresh_vars s nvars in
      List.iter (S.add_clause s) given;
      let falsified s c = List.for_all (fun l -> not (S.value_lit s l)) c in
      let final_check s = List.filter (falsified s) held in
      let held_sets = List.map (List.sort_uniq compare) held in
      let theory lemma =
        if List.mem (Array.to_list lemma) held_sets then Ok () else Error "not a withheld clause"
      in
      List.iteri
        (fun round assumptions ->
          match S.solve ~assumptions ~final_check s with
          | S.Sat ->
            if not (List.for_all (List.exists (S.value_lit s)) (given @ held)) then
              QCheck.Test.fail_reportf "round %d: a clause is unsatisfied" round;
            if not (List.for_all (S.value_lit s) assumptions) then
              QCheck.Test.fail_reportf "round %d: an assumption is unsatisfied" round
          | S.Unsat ->
            List.iter
              (fun l ->
                if not (List.mem l assumptions) then
                  QCheck.Test.fail_reportf "round %d: core literal %d not assumed" round l)
              (S.unsat_core s);
            (match
               Proof.Checker.run ~theory ~goal:(Proof.Checker.Assumptions assumptions)
                 (S.proof_steps s)
             with
             | Ok _ -> ()
             | Error e -> QCheck.Test.fail_reportf "round %d: proof rejected: %s" round e))
        rounds;
      kept := !kept + S.num_chrono_backtracks s;
      true)

(* The property must exercise the out-of-order path, not just pass. *)
let test_chronological () =
  let kept = ref 0 in
  QCheck.Test.check_exn ~rand:(QCheck_base_runner.random_state ()) (prop_chronological kept);
  if !kept = 0 then Alcotest.fail "no backtrack kept an out-of-order literal"

let () =
  Alcotest.run "sat"
    [
      ( "unit",
        [
          Alcotest.test_case "trivial sat" `Quick test_trivial_sat;
          Alcotest.test_case "trivial unsat" `Quick test_trivial_unsat;
          Alcotest.test_case "empty clause" `Quick test_empty_clause;
          Alcotest.test_case "no clauses" `Quick test_no_clauses;
          Alcotest.test_case "pigeonhole" `Quick test_pigeonhole;
          Alcotest.test_case "implication chain" `Quick test_chain_implications;
          Alcotest.test_case "final_check veto" `Quick test_final_check_veto;
          Alcotest.test_case "final_check unsat" `Quick test_final_check_unsat;
          Alcotest.test_case "assumptions basic" `Quick test_assumptions_basic;
          Alcotest.test_case "assumptions contradictory" `Quick test_assumptions_contradictory;
          Alcotest.test_case "assumption false at level 0" `Quick test_assumption_false_at_level0;
          Alcotest.test_case "incremental clause growth" `Quick test_incremental_clause_growth;
          Alcotest.test_case "unsat is permanent" `Quick test_unsat_is_permanent;
          Alcotest.test_case "locked clauses survive reduction" `Quick
            test_locked_clauses_survive_reduction;
          Alcotest.test_case "reduction stress incremental" `Quick
            test_reduction_stress_incremental;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_matches_brute_force;
          QCheck_alcotest.to_alcotest prop_assumptions_match_fresh;
          Alcotest.test_case "chronological backtracking" `Quick test_chronological;
        ] );
    ]
