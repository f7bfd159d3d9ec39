(* An independent RUP/DRAT trace checker.

   Deliberately shares nothing with the CDCL solver beyond the literal
   convention (variable [v] is literal [2*v] positively, [2*v+1]
   negatively) and the [Smt.Sat.proof_step] type itself.  Propagation
   here is the naive counting scheme over occurrence lists — no watched
   literals, no activity, no learning — so a bug in the solver's clever
   machinery cannot hide in the checker.  The only concessions to speed
   are representational: occurrence lists are flat integer vectors, and
   entries of deleted clauses are compacted away once they outnumber
   half the live set.

   The checker replays the trace front to back, maintaining an "active
   set" of clauses that mirrors the solver's database:
   - [P_input] clauses are admitted on trust (their provenance — that
     they encode the original formula — is the caller's concern);
   - [P_rup] clauses must pass reverse unit propagation: asserting the
     negation of every literal and propagating over the active set must
     yield a conflict;
   - [P_lemma] clauses are handed to the caller's theory callback for
     re-justification and rejected if it declines;
   - [P_delete] must name a clause alive in the active set, compared as
     a sorted literal set, and kills one copy of it.

   Root units (alive unit clauses) are propagated
   persistently; deletions never retract them, which is sound for
   refutation checking (the active set only shrinks, so any conflict
   derived remains derivable). *)

type step = Smt.Sat.proof_step

type goal = Empty | Assumptions of int list

type summary = {
  steps : int;
  inputs : int;
  rup_checked : int;
  lemmas_checked : int;
  deletions : int;
}

let lit_var l = l lsr 1
let lit_sign l = l land 1 = 0
let lit_neg l = l lxor 1

type cls = {
  lits : int array;  (* sorted, duplicate-free *)
  mutable alive : bool;
  mutable n_false : int;  (* literals currently assigned false *)
}

(* Growable flat integer vector: occurrence lists and the propagation
   stack, without a cons cell per entry. *)
type ivec = { mutable a : int array; mutable n : int }

let iv_make () = { a = Array.make 4 0; n = 0 }

let iv_push v x =
  if v.n = Array.length v.a then begin
    let b = Array.make (2 * v.n) 0 in
    Array.blit v.a 0 b 0 v.n;
    v.a <- b
  end;
  v.a.(v.n) <- x;
  v.n <- v.n + 1

type t = {
  mutable value : int array;  (* per variable: 0 unassigned, 1 true, -1 false *)
  mutable occ : ivec array;  (* per literal: ids of clauses containing it *)
  mutable clauses : cls array;
  mutable n_clauses : int;
  mutable n_live : int;
  mutable n_dead : int;  (* deleted since the last occurrence compaction *)
  index : (int list, int list) Hashtbl.t;  (* canonical lits -> ids *)
  mutable root_queue : int list;  (* literals awaiting persistent propagation *)
  mutable root_conflict : bool;
}

let create () =
  {
    value = Array.make 64 0;
    occ = Array.init 128 (fun _ -> iv_make ());
    clauses = Array.make 64 { lits = [||]; alive = false; n_false = 0 };
    n_clauses = 0;
    n_live = 0;
    n_dead = 0;
    index = Hashtbl.create 1024;
    root_queue = [];
    root_conflict = false;
  }

let ensure_var t v =
  let n = Array.length t.value in
  if v >= n then begin
    let m = max (v + 1) (2 * n) in
    let value = Array.make m 0 in
    Array.blit t.value 0 value 0 n;
    t.value <- value;
    let old = t.occ in
    let occ = Array.init (2 * m) (fun i -> if i < Array.length old then old.(i) else iv_make ()) in
    t.occ <- occ
  end

let lit_value t l =
  let v = t.value.(lit_var l) in
  if lit_sign l then v else -v

exception Conflict

(* Make [l] true, bumping the false-counters of every alive clause
   containing [lit_neg l]; newly-unit clauses push their remaining
   literal onto [work].  The walk always completes before a conflict is
   raised, so an undo that decrements the same occurrence list is
   exact.  Dead clauses are skipped on both sides: they can never be
   consulted again, and no deletion happens between an assignment and
   its undo. *)
let assign t undo work l =
  match lit_value t l with
  | 1 -> ()
  | -1 -> raise Conflict
  | _ ->
    t.value.(lit_var l) <- (if lit_sign l then 1 else -1);
    (match undo with Some r -> r := l :: !r | None -> ());
    let conflict = ref false in
    let o = t.occ.(lit_neg l) in
    for i = 0 to o.n - 1 do
      let c = t.clauses.(o.a.(i)) in
      if c.alive then begin
        c.n_false <- c.n_false + 1;
        let len = Array.length c.lits in
        if c.n_false >= len then conflict := true
        else if c.n_false = len - 1 then begin
          (* exactly one literal not (yet) false: propagate it unless
             the clause is already satisfied *)
          let unassigned = ref (-1) in
          let satisfied = ref false in
          Array.iter
            (fun x ->
              match lit_value t x with
              | 1 -> satisfied := true
              | 0 -> unassigned := x
              | _ -> ())
            c.lits;
          if (not !satisfied) && !unassigned >= 0 then iv_push work !unassigned
        end
      end
    done;
    if !conflict then raise Conflict

(* Propagate [roots] (and their consequences) to fixpoint.  Returns
   [true] when a conflict arises.  Temporary assignments are recorded
   in [undo]. *)
let propagate t undo roots =
  let work = iv_make () in
  List.iter (fun l -> iv_push work l) roots;
  match
    while work.n > 0 do
      work.n <- work.n - 1;
      assign t undo work work.a.(work.n)
    done
  with
  | () -> false
  | exception Conflict -> true

let undo_all t undo =
  List.iter
    (fun l ->
      t.value.(lit_var l) <- 0;
      let o = t.occ.(lit_neg l) in
      for i = 0 to o.n - 1 do
        let c = t.clauses.(o.a.(i)) in
        if c.alive then c.n_false <- c.n_false - 1
      done)
    undo

(* Persistently propagate any pending root units. *)
let flush_root t =
  if not t.root_conflict then begin
    let roots = t.root_queue in
    t.root_queue <- [];
    if roots <> [] && propagate t None roots then t.root_conflict <- true
  end

let canonical lits = List.sort_uniq compare (Array.to_list lits)

(* Admit a clause into the active set (after whatever justification its
   step kind demanded). *)
let add_clause t lits =
  let key = canonical lits in
  let arr = Array.of_list key in
  List.iter (fun l -> ensure_var t (lit_var l)) key;
  let id = t.n_clauses in
  if id >= Array.length t.clauses then begin
    let grown = Array.make (max 64 (2 * id)) { lits = [||]; alive = false; n_false = 0 } in
    Array.blit t.clauses 0 grown 0 id;
    t.clauses <- grown
  end;
  let n_false = Array.fold_left (fun n l -> if lit_value t l = -1 then n + 1 else n) 0 arr in
  let c = { lits = arr; alive = true; n_false } in
  t.clauses.(id) <- c;
  t.n_clauses <- id + 1;
  t.n_live <- t.n_live + 1;
  Array.iter (fun l -> iv_push t.occ.(l) id) arr;
  Hashtbl.replace t.index key (id :: (try Hashtbl.find t.index key with Not_found -> []));
  let len = Array.length arr in
  if len = 0 || n_false = len then t.root_conflict <- true
  else if n_false = len - 1 then begin
    (* unit under the root assignment (unless already satisfied) *)
    let unassigned = ref (-1) in
    let satisfied = ref false in
    Array.iter
      (fun x ->
        match lit_value t x with 1 -> satisfied := true | 0 -> unassigned := x | _ -> ())
      arr;
    if (not !satisfied) && !unassigned >= 0 then
      t.root_queue <- !unassigned :: t.root_queue
  end

(* Reverse unit propagation: the clause is entailed if asserting its
   negation conflicts under propagation. *)
let rup_entailed t lits =
  flush_root t;
  t.root_conflict
  ||
  let undo = ref [] in
  let conflict = propagate t (Some undo) (List.map lit_neg (canonical lits)) in
  undo_all t !undo;
  conflict

(* Drop dead ids from the occurrence lists once they outnumber half the
   live set: long traces delete thousands of clauses, and every
   propagation otherwise keeps walking their corpses. *)
let compact_occ t =
  Array.iter
    (fun o ->
      let j = ref 0 in
      for i = 0 to o.n - 1 do
        let id = o.a.(i) in
        if t.clauses.(id).alive then begin
          o.a.(!j) <- id;
          incr j
        end
      done;
      o.n <- !j)
    t.occ;
  t.n_dead <- 0

let delete_clause t lits =
  let key = canonical lits in
  match Hashtbl.find_opt t.index key with
  | None -> false
  | Some ids ->
    let rec kill = function
      | [] -> false
      | id :: rest ->
        let c = t.clauses.(id) in
        if c.alive then begin
          c.alive <- false;
          t.n_live <- t.n_live - 1;
          t.n_dead <- t.n_dead + 1;
          if t.n_dead > 256 && t.n_dead * 2 > t.n_live then compact_occ t;
          true
        end
        else kill rest
    in
    kill ids

let check_goal t goal =
  flush_root t;
  if t.root_conflict then Ok ()
  else
    match goal with
    | Empty -> Error "trace does not derive the empty clause"
    | Assumptions [] -> Error "trace does not derive the empty clause"
    | Assumptions lits ->
      let undo = ref [] in
      let conflict = propagate t (Some undo) lits in
      undo_all t !undo;
      if conflict then Ok ()
      else Error "assumptions are not refuted by propagation over the final active set"

let pp_clause lits =
  "["
  ^ String.concat " "
      (List.map
         (fun l -> (if lit_sign l then "" else "-") ^ string_of_int (lit_var l))
         (Array.to_list lits))
  ^ "]"

let run ?(theory = fun (_ : int array) -> Error "no theory checker provided") ~goal steps =
  let t = create () in
  let inputs = ref 0 in
  let rups = ref 0 in
  let lemmas = ref 0 in
  let dels = ref 0 in
  let n = ref 0 in
  let err = ref None in
  List.iter
    (fun step ->
      if !err = None then begin
        incr n;
        match (step : step) with
        | Smt.Sat.P_input lits ->
          incr inputs;
          add_clause t lits
        | Smt.Sat.P_rup lits ->
          if rup_entailed t lits then begin
            incr rups;
            add_clause t lits
          end
          else
            err :=
              Some (Printf.sprintf "step %d: clause %s is not RUP" !n (pp_clause lits))
        | Smt.Sat.P_lemma lits -> (
          match theory lits with
          | Ok () ->
            incr lemmas;
            add_clause t lits
          | Error msg ->
            err :=
              Some
                (Printf.sprintf "step %d: theory lemma %s rejected: %s" !n
                   (pp_clause lits) msg))
        | Smt.Sat.P_delete lits ->
          (* propagate pending root units while the clause is still
             alive: the solver may have derived a persistent literal
             through this very clause just before deleting it as
             satisfied, and a lazy flush after the deletion would lose
             that derivation *)
          flush_root t;
          if delete_clause t lits then incr dels
          else
            err :=
              Some
                (Printf.sprintf "step %d: deletion of %s, which is not in the active set"
                   !n (pp_clause lits))
      end)
    steps;
  match !err with
  | Some msg -> Error msg
  | None -> (
    match check_goal t goal with
    | Error msg -> Error msg
    | Ok () ->
      Ok
        {
          steps = !n;
          inputs = !inputs;
          rup_checked = !rups;
          lemmas_checked = !lemmas;
          deletions = !dels;
        })
