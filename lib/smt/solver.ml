(* Theory solvers and atom tables built for a given snapshot of the
   CNF's theory registries.  In incremental mode the snapshot is reused
   across checks as long as no new atoms or theory variables appeared
   (the common case for a session asserting purely propositional
   activation machinery between checks); any growth rebuilds it. *)
type tstate = {
  zero : int;  (* the distance-graph node playing "constant 0" *)
  idl : Idl_inc.t;
  simplex : Simplex.t;
  rat_atoms : (int * Cnf.rat_atom) array;
  atom_index : int array;
      (* SAT variable -> slot of its difference atom, or -1; slot [a]
         holds the atom [x - y <= k] as [atom_xyk.(3a .. 3a+2)], with
         the constant 0 already mapped to [zero] *)
  atom_xyk : int array;
  n_int_atoms : int;
  n_rat_atoms : int;
  n_int_vars : int;
  n_rat_vars : int;
}

type t = {
  cnf : Cnf.t;
  incremental : bool;
  certify : bool;
  mutable theory_rounds : int;
  mutable theory_props : int;
  mutable checks : int;
  mutable last_core : Term.t list;
  mutable tcache : tstate option;
  (* certification bookkeeping (recorded only when [certify]): the
     original formula as terms, for independent model evaluation *)
  mutable asserted : Term.t list;
  mutable implied : (Term.t * Term.t) list;
  mutable last_assumptions : (int * Term.t) list;
}

type result = Sat of Model.t | Unsat

type restart_mode = Sat.restart_mode = Luby | Ema_lbd

type strategy = Sat.strategy = {
  var_decay : float;
  restart_base : int;
  default_phase : bool;
  restart_mode : restart_mode;
  rephase : bool;
}

let default_strategy = Sat.default_strategy

exception Canceled = Sat.Canceled

type stats = {
  sat_vars : int;
  sat_clauses : int;
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  ema_restarts : int;
  blocked_restarts : int;
  rephases : int;
  clauses_imported : int;
  clauses_exported : int;
  learned_clauses : int;
  theory_rounds : int;
  chrono_backtracks : int;
  theory_propagations : int;
  preprocessed_clauses : int;
  lbd_reductions : int;
  checks : int;
  arena_words : int;
  arena_compactions : int;
  minor_words : float;
}

let create ?(incremental = false) ?(certify = false) ?strategy () =
  let cnf = Cnf.create ~proof:certify () in
  let sat = Cnf.sat cnf in
  (match strategy with None -> () | Some st -> Sat.set_strategy sat st);
  Sat.set_early_sat sat true;
  {
    cnf;
    incremental;
    certify;
    theory_rounds = 0;
    theory_props = 0;
    checks = 0;
    last_core = [];
    tcache = None;
    asserted = [];
    implied = [];
    last_assumptions = [];
  }

let set_stop s f = Sat.set_stop (Cnf.sat s.cnf) f
let set_on_restart s f = Sat.set_on_restart (Cnf.sat s.cnf) f

let enable_sharing ?(max_lbd = 6) ?(max_len = 30) s =
  Sat.set_share (Cnf.sat s.cnf) ~max_lbd ~max_len

let drain_exported s = Sat.drain_exports (Cnf.sat s.cnf)
let import_clause s lits = Sat.import_clause (Cnf.sat s.cnf) lits

let assert_term s term =
  if s.certify then s.asserted <- term :: s.asserted;
  Cnf.assert_term s.cnf term

let assert_implied s ~guard term =
  if s.certify then s.implied <- (guard, term) :: s.implied;
  Cnf.assert_implied s.cnf ~guard term

let unsat_core s = s.last_core

(* -- certification accessors ------------------------------------------------ *)

let certify_enabled s = s.certify
let proof s = Sat.proof_steps (Cnf.sat s.cnf)
let proof_length s = Sat.proof_length (Cnf.sat s.cnf)
let asserted_terms s = List.rev s.asserted
let implied_terms s = List.rev s.implied
let last_assumption_lits s = List.map fst s.last_assumptions
let last_assumption_terms s = List.map snd s.last_assumptions
let int_atom_table s = Cnf.int_atoms s.cnf
let rat_atom_table s = Cnf.rat_atoms s.cnf
let num_int_vars s = Cnf.num_int_vars s.cnf
let num_rat_vars s = Cnf.num_rat_vars s.cnf

(* Build (or reuse) the theory state for the atoms registered so far. *)
let theory_state s =
  let c = s.cnf in
  let sat = Cnf.sat c in
  let n_int_atoms = List.length (Cnf.int_atoms c) in
  let n_rat_atoms = List.length (Cnf.rat_atoms c) in
  let n_int_vars = Cnf.num_int_vars c in
  let n_rat_vars = Cnf.num_rat_vars c in
  let reusable =
    match s.tcache with
    | Some ts ->
      s.incremental && ts.n_int_atoms = n_int_atoms && ts.n_rat_atoms = n_rat_atoms
      && ts.n_int_vars = n_int_vars && ts.n_rat_vars = n_rat_vars
    | None -> false
  in
  match s.tcache with
  | Some ts when reusable ->
    (* same atoms as last check: keep the solvers, just clear the IDL
       assertion stack (positions are per-check trail indices) *)
    Idl_inc.backtrack ts.idl ~trail_size:0;
    ts
  | _ ->
    let zero = n_int_vars in
    let rat_atoms = Array.of_list (Cnf.rat_atoms c) in
    let simplex =
      Simplex.create ~nvars:n_rat_vars
        (Array.map
           (fun ((_, a) : int * Cnf.rat_atom) : Simplex.atom ->
             { coeffs = a.rcoeffs; bound = a.rbound })
           rat_atoms)
    in
    let atom_index = Array.make (max (Sat.nvars sat) 1) (-1) in
    let atom_xyk = Array.make (3 * n_int_atoms) 0 in
    let idl = Idl_inc.create ~nvars:(zero + 1) in
    List.iteri
      (fun i ((v, a) : int * Cnf.int_atom) ->
        let x = if a.Cnf.ix < 0 then zero else a.Cnf.ix in
        let y = if a.Cnf.iy < 0 then zero else a.Cnf.iy in
        atom_index.(v) <- i;
        atom_xyk.(3 * i) <- x;
        atom_xyk.((3 * i) + 1) <- y;
        atom_xyk.((3 * i) + 2) <- a.Cnf.ik;
        Idl_inc.register_atom idl ~x ~y ~k:a.Cnf.ik ~var:v)
      (Cnf.int_atoms c);
    let ts =
      {
        zero;
        idl;
        simplex;
        rat_atoms;
        atom_index;
        atom_xyk;
        n_int_atoms;
        n_rat_atoms;
        n_int_vars;
        n_rat_vars;
      }
    in
    s.tcache <- Some ts;
    ts

let check ?(assumptions = []) s =
  if (not s.incremental) && s.checks > 0 then
    invalid_arg
      "Solver.check: single-shot solver already used (its theory state is stale); create the \
       solver with ~incremental:true to run several checks against one formula";
  s.checks <- s.checks + 1;
  s.last_core <- [];
  let c = s.cnf in
  (* Convert assumption terms first: conversion may allocate variables
     and clauses, which must precede the theory tables built below. *)
  let assumption_lits = List.map (fun t -> (Cnf.lit_of c t, t)) assumptions in
  s.last_assumptions <- assumption_lits;
  let sat = Cnf.sat c in
  let ts = theory_state s in
  let zero = ts.zero in
  let idl = ts.idl in
  let rat_atoms = ts.rat_atoms in
  (* [atom_index] was sized when the cache was built; SAT variables
     allocated since (non-atoms, or the check would have rebuilt) fall
     off its end. *)
  let atom_index = ts.atom_index and atom_xyk = ts.atom_xyk in
  let n_indexed = Array.length atom_index in
  (* Theory atoms gate early-SAT detection: an unassigned atom could
     still be refuted by the theory. *)
  List.iter (fun ((v, _) : int * Cnf.int_atom) -> Sat.mark_important sat v) (Cnf.int_atoms c);
  Array.iter (fun ((v, _) : int * Cnf.rat_atom) -> Sat.mark_important sat v) rat_atoms;
  let theory_pos = ref 0 in
  let int_model = ref [||] in
  let rat_model = ref [||] in
  (* Ladder lemmas discovered while asserting atoms, flushed through the
     next partial/final check return (the SAT core integrates them as
     asserting learnt clauses, i.e. theory propagations with the lemma
     as reason). *)
  let pending = ref [] in
  (* Process trail entries [!theory_pos, trail_size): assert difference
     atoms incrementally; a failed assertion yields a conflict clause. *)
  (* The trail is read in place and literals decoded here: this loop
     runs once per assigned literal, and a call into [Sat] per read
     would cost more than the read. *)
  let process_new sat =
    let trail = Sat.trail sat in
    let size = trail.Vec.len in
    let conflict = ref None in
    let running = ref true in
    while !running && !theory_pos < size do
      let i = !theory_pos in
      let lit = trail.Vec.data.(i) in
      let v = lit lsr 1 in
      let a = if v < n_indexed then atom_index.(v) else -1 in
      if a >= 0 then begin
        let x = atom_xyk.(3 * a) and y = atom_xyk.((3 * a) + 1) and k = atom_xyk.((3 * a) + 2) in
        let positive = lit land 1 = 0 in
        (* the constraint's tag is the literal that asserts it *)
        let res =
          if positive then Idl_inc.assert_constr idl ~trail_pos:i ~x ~y ~k ~tag:lit
          else Idl_inc.assert_constr idl ~trail_pos:i ~x:y ~y:x ~k:(-k - 1) ~tag:lit
        in
        match res with
        | None ->
          (* Ladder propagation: x-y<=k true forces every weaker
             bound on the pair; false forces every stronger bound
             false.  Emitting the binary lemma towards the adjacent
             unassigned rung lets unit propagation (with the lemma as
             reason) do what would otherwise each be a full theory
             conflict; adjacency composes, so the whole ladder is
             eventually covered. *)
          if positive then begin
            let v' = Idl_inc.ladder_above idl ~var:v in
            if v' >= 0 && not (Sat.var_assigned sat v') then begin
              pending := [ Sat.neg_lit v; Sat.pos_lit v' ] :: !pending;
              s.theory_props <- s.theory_props + 1
            end
          end
          else begin
            let v' = Idl_inc.ladder_below idl ~var:v in
            if v' >= 0 && not (Sat.var_assigned sat v') then begin
              pending := [ Sat.neg_lit v'; Sat.pos_lit v ] :: !pending;
              s.theory_props <- s.theory_props + 1
            end
          end
        | Some tags ->
          s.theory_rounds <- s.theory_rounds + 1;
          running := false;
          conflict := Some (List.map Sat.lit_neg tags)
      end;
      if !running then incr theory_pos
    done;
    !conflict
  in
  let simplex_check sat ~partial =
    if Array.length rat_atoms = 0 then None
    else begin
      let assertions = ref [] in
      Array.iteri
        (fun i ((v, a) : int * Cnf.rat_atom) ->
          if (not partial) || Sat.var_assigned sat v then
            assertions := (i, Sat.value_var sat v, a.rstrict) :: !assertions)
        rat_atoms;
      match Simplex.check ts.simplex ~assertions:!assertions with
      | Error idxs ->
        s.theory_rounds <- s.theory_rounds + 1;
        Some
          (List.map
             (fun i ->
               let v, _ = rat_atoms.(i) in
               if Sat.value_var sat v then Sat.neg_lit v else Sat.pos_lit v)
             idxs)
      | Ok m ->
        if not partial then rat_model := m;
        None
    end
  in
  let drain_pending () =
    let lemmas = !pending in
    pending := [];
    lemmas
  in
  let partial_calls = ref 0 in
  let partial_check sat =
    match process_new sat with
    | Some clause -> clause :: drain_pending ()
    | None ->
      incr partial_calls;
      let lemmas = drain_pending () in
      if Array.length rat_atoms > 0 && !partial_calls mod 64 = 0 then begin
        match simplex_check sat ~partial:true with Some cl -> cl :: lemmas | None -> lemmas
      end
      else lemmas
  in
  let final_check sat =
    match process_new sat with
    | Some clause -> clause :: drain_pending ()
    | None ->
      (match drain_pending () with
       | _ :: _ as lemmas -> lemmas
       | [] ->
         (match simplex_check sat ~partial:false with
          | Some cl -> [ cl ]
          | None ->
            int_model := Idl_inc.model idl;
            []))
  in
  let on_backtrack n =
    Idl_inc.backtrack idl ~trail_size:n;
    if !theory_pos > n then theory_pos := n
  in
  match
    Sat.solve
      ~assumptions:(List.map fst assumption_lits)
      ~final_check ~partial_check ~partial_interval:1 ~on_backtrack sat
  with
  | Sat.Unsat ->
    let core = Sat.unsat_core sat in
    s.last_core <-
      List.filter_map
        (fun (l, t) -> if List.mem l core then Some t else None)
        assumption_lits;
    Unsat
  | Sat.Sat ->
    let bools = List.map (fun (t, l) -> (t, Sat.value_lit sat l)) (Cnf.bool_var_lits c) in
    let dist = !int_model in
    let base = if Array.length dist > zero then dist.(zero) else 0 in
    let ints =
      List.map
        (fun (t, i) -> (t, (if i < Array.length dist then dist.(i) else 0) - base))
        (Cnf.int_var_terms c)
    in
    let rats =
      List.map
        (fun (t, i) ->
          (t, if i < Array.length !rat_model then !rat_model.(i) else Exactnum.Rat.zero))
        (Cnf.rat_var_terms c)
    in
    let bvs =
      List.map
        (fun (t, bits) ->
          let v = ref 0 in
          Array.iteri (fun i l -> if Sat.value_lit sat l then v := !v lor (1 lsl i)) bits;
          (t, !v))
        (Cnf.bv_var_bits c)
    in
    Sat (Model.create ~bools ~ints ~rats ~bvs)

let check_term term =
  let s = create () in
  assert_term s term;
  check s

let stats s =
  let sat = Cnf.sat s.cnf in
  {
    sat_vars = Sat.nvars sat;
    sat_clauses = Sat.num_clauses sat;
    conflicts = Sat.num_conflicts sat;
    decisions = Sat.num_decisions sat;
    propagations = Sat.num_propagations sat;
    restarts = Sat.num_restarts sat;
    ema_restarts = Sat.num_ema_restarts sat;
    blocked_restarts = Sat.num_blocked_restarts sat;
    rephases = Sat.num_rephases sat;
    clauses_imported = Sat.num_imported sat;
    clauses_exported = Sat.num_exported sat;
    learned_clauses = Sat.num_learnts sat;
    theory_rounds = s.theory_rounds;
    chrono_backtracks = Sat.num_chrono_backtracks sat;
    theory_propagations = s.theory_props;
    preprocessed_clauses = 0;
    lbd_reductions = Sat.num_lbd_deletions sat;
    checks = s.checks;
    arena_words = Sat.arena_words sat;
    arena_compactions = Sat.num_compactions sat;
    minor_words = Sat.minor_words sat;
  }
