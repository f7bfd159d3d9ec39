(* End-to-end tests for the SMT solver: terms, theories, bit vectors,
   cardinality, plus qcheck properties validating models against the
   reference evaluator and a brute-force difference-logic oracle. *)

module T = Smt.Term
module Sort = Smt.Sort
module Solver = Smt.Solver
module Model = Smt.Model
module Rat = Exactnum.Rat

let is_sat term = match Solver.check_term term with Solver.Sat _ -> true | Solver.Unsat -> false

let model_exn term =
  match Solver.check_term term with
  | Solver.Sat m -> m
  | Solver.Unsat -> Alcotest.fail "expected sat"

let check_sat msg term = Alcotest.(check bool) msg true (is_sat term)
let check_unsat msg term = Alcotest.(check bool) msg false (is_sat term)

(* -- term layer -------------------------------------------------------------- *)

let test_term_simplify () =
  let a = T.var "ts_a" Sort.Bool and b = T.var "ts_b" Sort.Bool in
  Alcotest.(check bool) "and true" true (T.equal (T.and_ [ a; T.tru ]) a);
  Alcotest.(check bool) "and false" true (T.equal (T.and_ [ a; T.fls ]) T.fls);
  Alcotest.(check bool) "or true" true (T.equal (T.or_ [ a; T.tru ]) T.tru);
  Alcotest.(check bool) "complement" true (T.equal (T.and_ [ a; T.not_ a ]) T.fls);
  Alcotest.(check bool) "dedupe" true (T.equal (T.and_ [ a; a ]) a);
  Alcotest.(check bool) "flatten" true
    (T.equal (T.and_ [ a; T.and_ [ b; a ] ]) (T.and_ [ a; b ]));
  Alcotest.(check bool) "not not" true (T.equal (T.not_ (T.not_ a)) a);
  Alcotest.(check bool) "hash-consing" true (T.and_ [ a; b ] == T.and_ [ a; b ]);
  Alcotest.(check bool) "const folding leq" true (T.equal (T.leq (T.int_const 1) (T.int_const 2)) T.tru);
  Alcotest.(check bool) "const folding lt" true (T.equal (T.lt (T.int_const 2) (T.int_const 2)) T.fls)

let test_term_sort_errors () =
  let x = T.var "ts_x" Sort.Int in
  Alcotest.check_raises "bool op on int" (Invalid_argument "Term.not_: expected sort Bool, got Int")
    (fun () -> ignore (T.not_ x));
  (try
     ignore (T.var "ts_x" Sort.Bool);
     Alcotest.fail "expected sort clash"
   with Invalid_argument _ -> ());
  (* Int terms take only integral scale factors *)
  Alcotest.check_raises "fractional scale of an Int term"
    (Invalid_argument "Term.scale: non-integer scaling of Int term") (fun () ->
      ignore (T.scale (Rat.of_ints 1 2) x));
  ignore (T.scale (Rat.of_ints 1 2) (T.var "ts_r" Sort.Real));
  (* the clash is only detected while [x] is live *)
  ignore (Sys.opaque_identity x)

(* -- term lifetime ------------------------------------------------------------ *)

(* The hash-consing table is weak: sharing must survive a collection
   while one copy is held, and a term nothing holds must go. *)
let test_term_sharing_across_gc () =
  let a = T.var "wk_a" Sort.Bool and n = T.var "wk_n" Sort.Int in
  let t1 = T.and_ [ a; T.leq n (T.int_const 3) ] in
  Gc.full_major ();
  let t2 = T.and_ [ a; T.leq n (T.int_const 3) ] in
  Alcotest.(check bool) "physically equal" true (t1 == t2);
  Alcotest.(check int) "same id" (T.id t1) (T.id t2)

let test_term_sort_clash_while_live () =
  let x = T.var "wk_x" Sort.Bool in
  Gc.full_major ();
  Alcotest.check_raises "re-declared at Int"
    (Invalid_argument "Term.var: wk_x re-declared at sort Int (was Bool)") (fun () ->
      ignore (T.var "wk_x" Sort.Int));
  ignore (Sys.opaque_identity x)

(* Builds an enterprise encoding and a session, asks one query and
   drops both; returns the live-term count while they were held. *)
let build_and_drop () =
  let module MS = Minesweeper in
  let module G = Generators in
  let t = G.Enterprise.make ~seed:3 ~routers:8 ~inject:G.Enterprise.no_bugs () in
  let s = MS.Verify.Session.create t.G.Enterprise.network MS.Options.default in
  let q = MS.Verify.Query.v "loops" (fun enc -> MS.Property.no_loops enc ()) in
  ignore (MS.Verify.Session.run_one s q);
  let held = T.live_count () in
  ignore (Sys.opaque_identity s);
  held
[@@inline never]

let test_term_reclaimed () =
  Gc.full_major ();
  let before = T.live_count () in
  let held = build_and_drop () in
  Gc.full_major ();
  let after = T.live_count () in
  if held - before < 1000 then
    Alcotest.failf "the encoding added only %d live terms" (held - before);
  (* a small slack for terms a module may cache for the process *)
  if after - before > 64 then
    Alcotest.failf "%d of %d terms outlived the dropped encoding" (after - before)
      (held - before)

(* -- propositional ------------------------------------------------------------ *)

let test_prop_basic () =
  let a = T.var "pb_a" Sort.Bool and b = T.var "pb_b" Sort.Bool in
  check_sat "a and not b" (T.and_ [ a; T.not_ b ]);
  check_unsat "a and not a" (T.and_ [ a; T.or_ [ T.not_ a ] ]);
  let m = model_exn (T.and_ [ T.or_ [ a; b ]; T.not_ a ]) in
  Alcotest.(check bool) "model b" true (Model.bool_value m b);
  Alcotest.(check bool) "model a" false (Model.bool_value m a)

(* -- integer difference logic -------------------------------------------------- *)

let ivar name = T.var name Sort.Int

let test_idl_sat () =
  let x = ivar "idl_x" and y = ivar "idl_y" in
  let f = T.and_ [ T.leq (T.sub x y) (T.int_const 3); T.leq (T.int_const 1) (T.sub x y) ] in
  let m = model_exn f in
  let dx = Model.int_value m x - Model.int_value m y in
  Alcotest.(check bool) "1 <= x-y <= 3" true (dx >= 1 && dx <= 3)

let test_idl_unsat_cycle () =
  let x = ivar "ic_x" and y = ivar "ic_y" and z = ivar "ic_z" in
  check_unsat "negative cycle"
    (T.and_
       [
         T.leq (T.sub x y) (T.int_const 3);
         T.leq (T.sub y z) (T.int_const (-2));
         T.leq (T.sub z x) (T.int_const (-2));
       ])

let test_idl_strict () =
  let x = ivar "is_x" and y = ivar "is_y" in
  check_unsat "x < y < x" (T.and_ [ T.lt x y; T.lt y x ]);
  check_unsat "x < y <= x" (T.and_ [ T.lt x y; T.leq y x ]);
  (* x < y and y < x + 2 forces y = x + 1 over integers *)
  let m = model_exn (T.and_ [ T.lt x y; T.lt y (T.add x (T.int_const 2)) ]) in
  Alcotest.(check int) "y = x+1" (Model.int_value m x + 1) (Model.int_value m y)

let test_idl_bounds_and_disjunction () =
  let x = ivar "ib_x" in
  let eq_const t n = T.eq t (T.int_const n) in
  let f =
    T.and_
      [
        T.leq x (T.int_const 5);
        T.geq x (T.int_const 3);
        T.or_ [ eq_const x 4; eq_const x 7 ];
      ]
  in
  let m = model_exn f in
  Alcotest.(check int) "x = 4" 4 (Model.int_value m x);
  check_unsat "empty interval"
    (T.and_ [ T.leq x (T.int_const 2); T.geq x (T.int_const 3) ])

let test_idl_equality_chain () =
  let vars = List.init 10 (fun i -> ivar (Printf.sprintf "chain_%d" i)) in
  let rec pairs = function a :: (b :: _ as rest) -> (a, b) :: pairs rest | _ -> [] in
  let eqs = List.map (fun (a, b) -> T.eq a b) (pairs vars) in
  let first = List.hd vars and last = List.nth vars 9 in
  check_unsat "equal chain with gap"
    (T.and_ (T.lt first last :: eqs));
  check_sat "equal chain consistent" (T.and_ (T.eq first last :: eqs))

(* -- linear rational arithmetic -------------------------------------------------- *)

let rvar name = T.var name Sort.Real

let test_lra_basic () =
  let a = rvar "lra_a" and b = rvar "lra_b" in
  let sum = T.add a b in
  let f =
    T.and_
      [
        T.leq sum (T.rat_const Rat.one);
        T.geq a (T.rat_const (Rat.of_ints 2 5));
        T.eq a b;
      ]
  in
  let m = model_exn f in
  let va = Model.rat_value m a and vb = Model.rat_value m b in
  Alcotest.(check bool) "a = b" true (Rat.equal va vb);
  Alcotest.(check bool) "sum <= 1" true (Rat.leq (Rat.add va vb) Rat.one);
  Alcotest.(check bool) "a >= 2/5" true (Rat.geq va (Rat.of_ints 2 5))

let test_lra_unsat () =
  let a = rvar "lu_a" and b = rvar "lu_b" in
  check_unsat "0.6 + 0.6 > 1"
    (T.and_
       [
         T.leq (T.add a b) (T.rat_const Rat.one);
         T.geq a (T.rat_const (Rat.of_ints 3 5));
         T.geq b (T.rat_const (Rat.of_ints 3 5));
       ])

let test_lra_strict () =
  let a = rvar "ls_a" and b = rvar "ls_b" in
  check_unsat "a < b < a" (T.and_ [ T.lt a b; T.lt b a ]);
  (* strict bounds have rational witnesses: a < b, b < 1, a > 0 *)
  let m =
    model_exn
      (T.and_ [ T.lt a b; T.lt b (T.rat_const Rat.one); T.lt (T.rat_const Rat.zero) a ])
  in
  let va = Model.rat_value m a and vb = Model.rat_value m b in
  Alcotest.(check bool) "0 < a < b < 1" true
    (Rat.lt Rat.zero va && Rat.lt va vb && Rat.lt vb Rat.one)

let test_lra_scale () =
  let a = rvar "lsc_a" in
  (* 3a <= 2 and a >= 1/2 gives 1/2 <= a <= 2/3 *)
  let m =
    model_exn
      (T.and_
         [
           T.leq (T.scale (Rat.of_int 3) a) (T.rat_const (Rat.of_int 2));
           T.geq a (T.rat_const (Rat.of_ints 1 2));
         ])
  in
  let va = Model.rat_value m a in
  Alcotest.(check bool) "in range" true
    (Rat.geq va (Rat.of_ints 1 2) && Rat.leq va (Rat.of_ints 2 3))

(* -- bit vectors ------------------------------------------------------------------ *)

let test_bv_basic () =
  let x = T.bv_var "bv_x" ~width:8 in
  let m = model_exn (T.bv_eq x (T.bv_const ~width:8 0xAB)) in
  Alcotest.(check int) "x = 0xAB" 0xAB (Model.bv_value m x);
  check_unsat "conflicting eq"
    (T.and_ [ T.bv_eq x (T.bv_const ~width:8 1); T.bv_eq x (T.bv_const ~width:8 2) ])

let test_bv_and_mask () =
  let x = T.bv_var "bvm_x" ~width:8 in
  let masked = T.bv_and x (T.bv_const ~width:8 0xF0) in
  let f =
    T.and_
      [ T.bv_eq masked (T.bv_const ~width:8 0xA0); T.bv_ule x (T.bv_const ~width:8 0xA3) ]
  in
  let m = model_exn f in
  let v = Model.bv_value m x in
  Alcotest.(check int) "high nibble" 0xA0 (v land 0xF0);
  Alcotest.(check bool) "<= 0xA3" true (v <= 0xA3)

let test_bv_ule () =
  let x = T.bv_var "bvu_x" ~width:4 in
  check_unsat "x <= 3 and x >= 12"
    (T.and_
       [
         T.bv_ule x (T.bv_const ~width:4 3);
         T.bv_ule (T.bv_const ~width:4 12) x;
       ]);
  let m =
    model_exn
      (T.and_
         [ T.bv_ule (T.bv_const ~width:4 5) x; T.bv_ule x (T.bv_const ~width:4 6) ])
  in
  let v = Model.bv_value m x in
  Alcotest.(check bool) "5 <= x <= 6" true (v >= 5 && v <= 6)

(* -- cardinality -------------------------------------------------------------------- *)

let test_at_most () =
  let vars = List.init 5 (fun i -> T.var (Printf.sprintf "am_%d" i) Sort.Bool) in
  let m = model_exn (T.and_ [ T.at_most 2 vars; T.at_least 2 vars ]) in
  let count = List.length (List.filter (Model.bool_value m) vars) in
  Alcotest.(check int) "exactly 2" 2 count;
  check_unsat "at most 1 with 2 forced"
    (T.and_ [ T.at_most 1 vars; List.nth vars 0; List.nth vars 3 ]);
  check_sat "at most 0" (T.at_most 0 vars);
  check_unsat "at least 6 of 5" (T.at_least 6 vars)

let test_exactly () =
  let vars = List.init 6 (fun i -> T.var (Printf.sprintf "ex_%d" i) Sort.Bool) in
  let m = model_exn (T.exactly 3 vars) in
  let count = List.length (List.filter (Model.bool_value m) vars) in
  Alcotest.(check int) "exactly 3" 3 count

(* The boundaries the failure-variable encoding leans on: k = 0 freezes
   every variable, k = n is a tautology, and the threshold is exact —
   forcing m variables true is UNSAT at bound m-1 and SAT at bound m. *)
let test_at_most_boundaries () =
  let n = 6 in
  let vars = List.init n (fun i -> T.var (Printf.sprintf "amb_%d" i) Sort.Bool) in
  let m = model_exn (T.at_most 0 vars) in
  List.iteri
    (fun i v ->
      Alcotest.(check bool) (Printf.sprintf "k=0 forces amb_%d false" i) false
        (Model.bool_value m v))
    vars;
  check_unsat "k=0 with one forced" (T.and_ [ T.at_most 0 vars; List.nth vars 3 ]);
  check_sat "k=n admits all true" (T.and_ (T.at_most n vars :: vars));
  let forced = [ List.nth vars 0; List.nth vars 2; List.nth vars 5 ] in
  check_unsat "3 forced, bound 2" (T.and_ (T.at_most 2 vars :: forced));
  check_sat "3 forced, bound 3" (T.and_ (T.at_most 3 vars :: forced))

(* UNSAT verdicts over cardinality clauses must replay through the
   independent proof checker (this is what --certify leans on once the
   encoding carries per-link failure variables). *)
let test_at_most_proof () =
  let s = Solver.create ~certify:true () in
  let vars = List.init 4 (fun i -> T.var (Printf.sprintf "amp_%d" i) Sort.Bool) in
  Solver.assert_term s (T.at_most 1 vars);
  Solver.assert_term s (List.nth vars 0);
  Solver.assert_term s (List.nth vars 2);
  (match Solver.check s with
   | Solver.Unsat -> ()
   | Solver.Sat _ -> Alcotest.fail "2 forced against bound 1 must be unsat");
  match Proof.Certify.unsat s with
  | Ok summary ->
    Alcotest.(check bool) "the trace derives clauses" true
      (summary.Proof.Certify.clauses > 0)
  | Error e -> Alcotest.failf "cardinality proof rejected: %s" e

(* -- mixed theories ------------------------------------------------------------------ *)

let test_mixed () =
  let x = ivar "mx_x" and r = rvar "mx_r" and b = T.var "mx_b" Sort.Bool in
  let f =
    T.and_
      [
        T.implies b (T.leq x (T.int_const 3));
        T.implies (T.not_ b) (T.geq r (T.rat_const (Rat.of_int 10)));
        T.geq x (T.int_const 5);
      ]
  in
  let m = model_exn f in
  Alcotest.(check bool) "b forced false" false (Model.bool_value m b);
  Alcotest.(check bool) "r >= 10" true (Rat.geq (Model.rat_value m r) (Rat.of_int 10))

(* -- qcheck properties ----------------------------------------------------------------- *)

(* Random difference-logic systems over a small domain, checked against
   brute force. *)
let idl_system_gen =
  let open QCheck.Gen in
  let nv = 4 in
  let constr = triple (int_range 0 (nv - 1)) (int_range 0 (nv - 1)) (int_range (-3) 3) in
  list_size (int_range 1 10) constr >>= fun cs -> return (nv, cs)

let brute_force_idl nv cs =
  (* all assignments in [0,7)^nv; difference constraints are
     translation-invariant so a window of size 7 >= sum of |k| bounds the
     search for 4 variables with |k| <= 3. *)
  let rec go assignment i =
    if i = nv then
      List.for_all (fun (x, y, k) -> assignment.(x) - assignment.(y) <= k) cs
    else begin
      let found = ref false in
      let v = ref 0 in
      while (not !found) && !v < 13 do
        assignment.(i) <- !v;
        if go assignment (i + 1) then found := true;
        incr v
      done;
      !found
    end
  in
  go (Array.make nv 0) 0

let prop_idl_matches_brute =
  QCheck.Test.make ~name:"idl solver matches brute force" ~count:300 (QCheck.make idl_system_gen)
    (fun (nv, cs) ->
      let vars = Array.init nv (fun i -> ivar (Printf.sprintf "qidl_%d_%d" (Hashtbl.hash cs) i)) in
      let f =
        T.and_
          (List.map (fun (x, y, k) -> T.leq (T.sub vars.(x) vars.(y)) (T.int_const k)) cs)
      in
      let got = is_sat f in
      let expected = brute_force_idl nv cs in
      if got <> expected then QCheck.Test.fail_reportf "solver=%b brute=%b" got expected;
      true)

(* Random Int sums over three variables with small integer scales,
   compared as an atom: whatever [Linexp.classify_leq] makes of it
   must hold under an assignment exactly when the inequality does.
   Atoms outside the difference fragment are rejected, not checked. *)
type isum = Ivar of int | Iconst of int | Iadd of isum * isum | Isub of isum * isum | Iscale of int * isum

let isum_gen =
  let open QCheck.Gen in
  let leaf = oneof [ map (fun i -> Ivar i) (int_range 0 2); map (fun n -> Iconst n) (int_range (-6) 6) ] in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [
            (2, leaf);
            (2, map2 (fun a b -> Iadd (a, b)) (self (depth - 1)) (self (depth - 1)));
            (2, map2 (fun a b -> Isub (a, b)) (self (depth - 1)) (self (depth - 1)));
            (1, map2 (fun k a -> Iscale (k, a)) (int_range (-3) 3) (self (depth - 1)));
          ])
    3

let isum_vars = Array.init 3 (fun i -> ivar (Printf.sprintf "qlin_%d" i))

let rec isum_term = function
  | Ivar i -> isum_vars.(i)
  | Iconst n -> T.int_const n
  | Iadd (a, b) -> T.add (isum_term a) (isum_term b)
  | Isub (a, b) -> T.sub (isum_term a) (isum_term b)
  | Iscale (k, a) -> T.scale (Rat.of_int k) (isum_term a)

let rec isum_eval env = function
  | Ivar i -> env.(i)
  | Iconst n -> n
  | Iadd (a, b) -> isum_eval env a + isum_eval env b
  | Isub (a, b) -> isum_eval env a - isum_eval env b
  | Iscale (k, a) -> k * isum_eval env a

let prop_int_atoms_classify =
  QCheck.Test.make ~name:"int atoms classify to an equivalent constraint" ~count:500
    (QCheck.make QCheck.Gen.(triple isum_gen isum_gen bool))
    (fun (a, b, strict) ->
      let ta = isum_term a and tb = isum_term b in
      let value env t =
        match Array.find_index (fun v -> v == t) isum_vars with
        | Some i -> env.(i)
        | None -> QCheck.Test.fail_report "difference atom over a foreign term"
      in
      let side env = function Some t -> value env t | None -> 0 in
      match Smt.Linexp.classify_leq ~strict ta tb with
      | exception Smt.Linexp.Not_difference_logic _ -> true
      | Smt.Linexp.Lra _ -> QCheck.Test.fail_report "an Int atom classified as rational"
      | classified ->
        let rng = Random.State.make [| Hashtbl.hash (a, b, strict) |] in
        List.for_all
          (fun _ ->
            let env = Array.init 3 (fun _ -> Random.State.int rng 9 - 4) in
            let l = isum_eval env a and r = isum_eval env b in
            let expected = if strict then l < r else l <= r in
            let got =
              match classified with
              | Smt.Linexp.Trivial t -> t
              | Smt.Linexp.Idl { x; y; k } -> side env x - side env y <= k
              | Smt.Linexp.Lra _ -> assert false
            in
            got = expected)
          (List.init 20 Fun.id))

(* Random Boolean formulas: any model returned must evaluate to true. *)
let term_gen =
  let open QCheck.Gen in
  let leaf i = T.var (Printf.sprintf "qb_%d" (i mod 6)) Sort.Bool in
  fix
    (fun self depth ->
      if depth = 0 then map leaf (int_range 0 5)
      else begin
        frequency
          [
            (2, map leaf (int_range 0 5));
            (2, map2 (fun a b -> T.and_ [ a; b ]) (self (depth - 1)) (self (depth - 1)));
            (2, map2 (fun a b -> T.or_ [ a; b ]) (self (depth - 1)) (self (depth - 1)));
            (1, map T.not_ (self (depth - 1)));
            (1, map2 T.implies (self (depth - 1)) (self (depth - 1)));
            (1, map2 T.iff (self (depth - 1)) (self (depth - 1)));
          ]
      end)
    4

let prop_model_evaluates_true =
  QCheck.Test.make ~name:"sat models evaluate to true" ~count:300 (QCheck.make term_gen)
    (fun term ->
      match Solver.check_term term with
      | Solver.Unsat -> true
      | Solver.Sat m -> Model.eval_bool m term)

(* Formulas and their negations cannot both be unsat (completeness smoke). *)
let prop_excluded_middle =
  QCheck.Test.make ~name:"f or not f is sat" ~count:200 (QCheck.make term_gen)
    (fun term -> is_sat (T.or_ [ term; T.not_ term ]))

(* -- incremental solving -------------------------------------------------------- *)

let test_single_shot_hardening () =
  let a = T.var "ssh_a" Sort.Bool in
  let s = Solver.create () in
  Solver.assert_term s a;
  (match Solver.check s with Solver.Sat _ -> () | Solver.Unsat -> Alcotest.fail "expected sat");
  (try
     ignore (Solver.check s);
     Alcotest.fail "second check on a single-shot solver must raise"
   with Invalid_argument _ -> ())

let test_incremental_checks () =
  let a = T.var "inc_a" Sort.Bool and b = T.var "inc_b" Sort.Bool in
  let s = Solver.create ~incremental:true () in
  Solver.assert_term s (T.or_ [ a; b ]);
  (match Solver.check s with Solver.Sat _ -> () | Solver.Unsat -> Alcotest.fail "sat 1");
  Solver.assert_term s (T.not_ a);
  (match Solver.check s with
   | Solver.Sat m -> Alcotest.(check bool) "b forced" true (Model.bool_value m b)
   | Solver.Unsat -> Alcotest.fail "sat 2");
  Solver.assert_term s (T.not_ b);
  (match Solver.check s with
   | Solver.Sat _ -> Alcotest.fail "expected unsat"
   | Solver.Unsat -> ())

let test_incremental_assumptions () =
  let a = T.var "ia_a" Sort.Bool and b = T.var "ia_b" Sort.Bool in
  let s = Solver.create ~incremental:true () in
  Solver.assert_term s (T.or_ [ a; b ]);
  (match Solver.check ~assumptions:[ T.not_ a ] s with
   | Solver.Sat m -> Alcotest.(check bool) "b forced under ~a" true (Model.bool_value m b)
   | Solver.Unsat -> Alcotest.fail "sat under ~a");
  (match Solver.check ~assumptions:[ T.not_ a; T.not_ b ] s with
   | Solver.Sat _ -> Alcotest.fail "expected unsat under ~a,~b"
   | Solver.Unsat ->
     let core = Solver.unsat_core s in
     Alcotest.(check bool) "core nonempty" true (core <> []);
     List.iter
       (fun t ->
         if not (List.exists (T.equal t) [ T.not_ a; T.not_ b ]) then
           Alcotest.fail "core term is not an assumption")
       core);
  (* assumptions leave no trace *)
  match Solver.check s with
  | Solver.Sat _ -> ()
  | Solver.Unsat -> Alcotest.fail "sat without assumptions"

let test_activation_literals () =
  (* Two contradictory queries against one shared formula, each guarded
     by its own activation literal — the Session pattern. *)
  let x = ivar "al_x" in
  let act1 = T.var "al_act1" Sort.Bool and act2 = T.var "al_act2" Sort.Bool in
  let s = Solver.create ~incremental:true () in
  Solver.assert_term s (T.and_ [ T.leq (T.int_const 0) x; T.leq x (T.int_const 10) ]);
  Solver.assert_implied s ~guard:act1 (T.leq x (T.int_const ~-1));
  (match Solver.check ~assumptions:[ act1 ] s with
   | Solver.Sat _ -> Alcotest.fail "query 1 should be unsat"
   | Solver.Unsat ->
     Alcotest.(check bool) "core is act1" true
       (List.exists (T.equal act1) (Solver.unsat_core s)));
  Solver.assert_term s (T.not_ act1);
  Solver.assert_implied s ~guard:act2 (T.leq (T.int_const 5) x);
  (match Solver.check ~assumptions:[ act2 ] s with
   | Solver.Sat m ->
     let v = Model.int_value m x in
     if v < 5 || v > 10 then Alcotest.failf "model x=%d outside [5,10]" v
   | Solver.Unsat -> Alcotest.fail "query 2 should be sat")

let test_incremental_theory () =
  (* New difference atoms and theory variables appearing between checks. *)
  let x = ivar "it_x" and y = ivar "it_y" and z = ivar "it_z" in
  let s = Solver.create ~incremental:true () in
  Solver.assert_term s (T.leq (T.sub x y) (T.int_const ~-1));
  (match Solver.check s with
   | Solver.Sat m ->
     Alcotest.(check bool) "x < y" true (Model.int_value m x < Model.int_value m y)
   | Solver.Unsat -> Alcotest.fail "sat 1");
  Solver.assert_term s (T.leq (T.sub y z) (T.int_const ~-1));
  (match Solver.check s with
   | Solver.Sat m ->
     Alcotest.(check bool) "x < y < z" true
       (Model.int_value m x < Model.int_value m y && Model.int_value m y < Model.int_value m z)
   | Solver.Unsat -> Alcotest.fail "sat 2");
  Solver.assert_term s (T.leq (T.sub z x) (T.int_const ~-1));
  match Solver.check s with
  | Solver.Sat _ -> Alcotest.fail "cycle should be unsat"
  | Solver.Unsat -> ()

let test_stats_accumulate () =
  let a = T.var "sa_a" Sort.Bool and b = T.var "sa_b" Sort.Bool in
  let s = Solver.create ~incremental:true () in
  Solver.assert_term s (T.or_ [ a; b ]);
  ignore (Solver.check s);
  let st1 = Solver.stats s in
  ignore (Solver.check ~assumptions:[ T.not_ a ] s);
  let st2 = Solver.stats s in
  Alcotest.(check int) "checks counted" 2 st2.Solver.checks;
  Alcotest.(check bool) "decisions monotone" true (st2.Solver.decisions >= st1.Solver.decisions);
  Alcotest.(check bool) "restarts present" true (st2.Solver.restarts >= 0);
  Alcotest.(check bool) "learned present" true (st2.Solver.learned_clauses >= 0)

let () =
  Alcotest.run "smt"
    [
      ( "term",
        [
          Alcotest.test_case "simplify" `Quick test_term_simplify;
          Alcotest.test_case "sort errors" `Quick test_term_sort_errors;
          Alcotest.test_case "sharing across a GC" `Quick test_term_sharing_across_gc;
          Alcotest.test_case "sort clash while live" `Quick test_term_sort_clash_while_live;
          Alcotest.test_case "dropped encoding reclaimed" `Quick test_term_reclaimed;
        ] );
      ("prop", [ Alcotest.test_case "basic" `Quick test_prop_basic ]);
      ( "idl",
        [
          Alcotest.test_case "sat" `Quick test_idl_sat;
          Alcotest.test_case "unsat cycle" `Quick test_idl_unsat_cycle;
          Alcotest.test_case "strict" `Quick test_idl_strict;
          Alcotest.test_case "bounds + disjunction" `Quick test_idl_bounds_and_disjunction;
          Alcotest.test_case "equality chain" `Quick test_idl_equality_chain;
        ] );
      ( "lra",
        [
          Alcotest.test_case "basic" `Quick test_lra_basic;
          Alcotest.test_case "unsat" `Quick test_lra_unsat;
          Alcotest.test_case "strict" `Quick test_lra_strict;
          Alcotest.test_case "scale" `Quick test_lra_scale;
        ] );
      ( "bv",
        [
          Alcotest.test_case "basic" `Quick test_bv_basic;
          Alcotest.test_case "and mask" `Quick test_bv_and_mask;
          Alcotest.test_case "ule" `Quick test_bv_ule;
        ] );
      ( "cardinality",
        [
          Alcotest.test_case "at_most" `Quick test_at_most;
          Alcotest.test_case "exactly" `Quick test_exactly;
          Alcotest.test_case "at_most boundaries" `Quick test_at_most_boundaries;
          Alcotest.test_case "at_most proof replay" `Quick test_at_most_proof;
        ] );
      ("mixed", [ Alcotest.test_case "bool+idl+lra" `Quick test_mixed ]);
      ( "incremental",
        [
          Alcotest.test_case "single-shot hardening" `Quick test_single_shot_hardening;
          Alcotest.test_case "re-entrant checks" `Quick test_incremental_checks;
          Alcotest.test_case "assumptions + unsat core" `Quick test_incremental_assumptions;
          Alcotest.test_case "activation literals" `Quick test_activation_literals;
          Alcotest.test_case "theory across checks" `Quick test_incremental_theory;
          Alcotest.test_case "stats accumulate" `Quick test_stats_accumulate;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_idl_matches_brute;
            prop_int_atoms_classify;
            prop_model_evaluates_true;
            prop_excluded_middle;
          ] );
    ]
