(* CDCL with two-watched literals (MiniSat lineage).  Conventions:
   - literal [2*v] is the positive literal of variable [v], [2*v+1] the
     negative one;
   - [assign.(v)] is [0] when unassigned, [1] when true, [-1] when false;
   - a clause's two watched literals sit at positions 0 and 1 of its
     literal slice;
   - [watches.(l)] holds the watchers for literal [l] as a flat int
     vector of (cref, blocker) pairs: when the blocker is true the
     clause is satisfied and its literal slice is never touched
     (cache-friendliness);
   - the implied literal of a reason clause sits at position 0, and the
     highest-level literal among the others at position 1.

   Chronological backtracking (Nadel & Ryvchin, SAT 2018; Möhle &
   Biere, SAT 2019).  The trail is not sorted by level:
   - an implied literal gets the highest level of its reason's other
     literals, which can be below the current decision level;
   - a conflict first backtracks to its conflict level (the highest
     level in the conflicting clause), and [analyze] resolves only the
     literals of that level;
   - after a learnt clause or a conflicting theory lemma, a jump longer
     than [chrono_threshold] levels stops one level below the conflict
     level and assigns the asserting literal out of order, at its true
     level;
   - [cancel_until] keeps every literal at or below the target level and
     re-pushes it above the cut, where it is propagated again;
     [on_backtrack] still reports the cut, so a theory solver pops to it
     and re-asserts the re-pushed literals.
   Everything below [trail_lim.(l)] has a level <= [l].  Learnt units
   still go to level 0.  Only the order in which the search visits
   assignments changes: every clause it learns is the same kind of
   resolvent, so the clause database and every verdict stay sound.

   Memory layout.  The clause database is a single growable int array —
   the arena — and a "clause" is an integer offset (a cref) into it.
   The slice at cref [c] is

     arena.(c)     header: size lsl 3 | relocated lsl 2 | deleted lsl 1 | learnt
     arena.(c+1)   activity (integer-scaled), or the forwarding cref
                   while the relocated bit is set mid-compaction
     arena.(c+2)   literal block distance (glue)
     arena.(c+3â€¦)  the literals, watched ones at positions 0 and 1

   Everything that references a clause does so by cref: watcher lists
   are flat (cref, blocker) int pairs, [reason] is an int array
   (-1 = decision/none), and the clause lists are int vectors.  No
   boxed clause records exist, so the propagation inner loop chases no
   pointers and allocates nothing, and "is this clause the recorded
   reason" is integer equality — the physical-equality trap that once
   let [reduce_db] delete locked clauses cannot be expressed.

   Deletion marks the header bit and counts the slice as wasted; when
   enough of the arena is dead, [compact] copies the live slices into a
   fresh arena, leaving a forwarding cref in each old slice, and remaps
   watchers, reasons and the clause lists through it.  Proof [P_delete]
   steps copy the literals out at deletion time, so relocation can
   never orphan a logged step. *)

let header_words = 3

(* A backjump over more than this many levels backtracks chronologically
   instead (one level below the conflict level).  Chosen by an ablation
   over {0, 10, 100} on deterministic search counters (CHANGES.md). *)
let chrono_threshold = 10

type restart_mode = Luby | Ema_lbd

type strategy = {
  var_decay : float;
  restart_base : int;
  default_phase : bool;
  restart_mode : restart_mode;
  rephase : bool;
}

let default_strategy =
  {
    var_decay = 0.95;
    restart_base = 100;
    default_phase = false;
    restart_mode = Luby;
    rephase = false;
  }

exception Canceled

(* A DRAT-style trace.  The checker keeps an "active set" mirroring the
   solver's clause database clause-for-clause (clauses are compared as
   sorted literal sets, so the solver may log literal arrays in whatever
   order its watches left them):
   - [P_input]  original clause, admitted without justification;
   - [P_rup]    derived clause; checkable by reverse unit propagation
                over the active set (learnt clauses, stripped inputs
                and lemmas, assumption-core negations; [P_rup [||]] is
                the refutation);
   - [P_lemma]  theory lemma integrated mid-search; justified by
                re-running a standalone theory solver, not by RUP;
   - [P_delete] removal of a clause currently in the active set. *)
type proof_step =
  | P_input of int array
  | P_rup of int array
  | P_lemma of int array
  | P_delete of int array

type t = {
  mutable nvars : int;
  mutable assign : int array;
  mutable level : int array;
  mutable reason : int array;  (* cref, or -1 for decisions/units *)
  mutable phase : bool array;
  mutable seen : bool array;
  toclear : Vec.t;  (* variables conflict minimization marked in [seen] *)
  mutable important : bool array;
      (* variables whose assignment gates early-SAT detection (theory
         atoms): once all of them are assigned and every problem clause
         is satisfied, the remaining variables are don't-cares *)
  mutable activity : float array;
  mutable heap_pos : int array;
  heap : Vec.t;
  mutable watches : Vec.t array;  (* flat (cref, blocker) pairs *)
  trail : Vec.t;
  trail_lim : Vec.t;
  mutable qhead : int;
  (* -- the clause arena -- *)
  mutable arena : int array;
  mutable asize : int;  (* words used, including dead slices *)
  mutable awasted : int;  (* words in deleted slices *)
  mutable compactions : int;
  clauses : Vec.t;  (* crefs of problem clauses *)
  learnts : Vec.t;  (* crefs of learnt clauses *)
  mutable ok : bool;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable max_learnts : float;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable learnts_made : int;
  mutable chrono_backtracks : int;  (* backtracks that kept out-of-order literals *)
  mutable minor_words : float;
      (* minor-heap words allocated inside [solve] calls, cumulative
         ([Gc.minor_words] deltas): the observable for the
         allocation-free-propagation claim *)
  mutable core : int list;
      (* after an Unsat answer under assumptions: the subset of the
         assumption literals whose conjunction the clause database
         refutes (empty when the database alone is unsatisfiable) *)
  mutable on_backtrack : int -> unit;
      (* invoked from cancel_until with the cut (the trail size before
         kept literals are re-pushed), so theory solvers can pop their
         assertion stacks in lock step and re-assert what was re-pushed *)
  mutable strategy : strategy;
  mutable stop : (unit -> bool) option;
      (* cooperative cancellation: polled periodically during solve *)
  (* -- early-SAT detection (off by default: the raw SAT API only
        calls [final_check] on total assignments; Smt.Solver turns it
        on) -- *)
  mutable early_sat_enabled : bool;
  mutable n_important : int;
  mutable important_assigned : int;
  mutable lbd_deletions : int;  (* learnt clauses dropped by LBD-scored reduction *)
  mutable early_sats : int;  (* Sat answers concluded on a partial assignment *)
  mutable scan_backoff : int;  (* conflicts+decisions to wait after a failed scan *)
  mutable next_scan_work : int;
  mutable scan_cursor : int;
      (* index (into [clauses]) of the clause that failed the last
         early-SAT scan: while it stays unsatisfied, re-checking just it
         rejects the next scan in O(clause length) instead of O(db) *)
  (* -- proof logging -- *)
  mutable proof_on : bool;
  mutable proof_rev : proof_step list;  (* newest first *)
  mutable proof_len : int;
  (* -- adaptive restarts (Ema_lbd mode) and rephasing -- *)
  mutable lbd_sum : float;
      (* cumulative LBD over every learnt clause: [lbd_sum /. conflicts]
         is the long-run average the short EMA is compared against *)
  mutable ema_lbd : float;  (* short-horizon EMA of recent learnt-clause LBD *)
  mutable trail_ema : float;
      (* slow EMA of the trail size at conflicts; a conflict trail far
         above it suggests the search is near a model, which blocks the
         next adaptive restart *)
  mutable ema_restarts : int;  (* restarts triggered by the LBD EMA *)
  mutable blocked_restarts : int;  (* adaptive restarts postponed by trail depth *)
  mutable best_phase : bool array;
      (* the assignment of the deepest conflict trail seen since the
         last rephase: a known-good partial model to rebranch towards *)
  mutable best_trail : int;
  mutable rephases : int;
  mutable next_rephase : int;  (* conflict count scheduling the next rephase *)
  mutable rephase_kind : int;
}

type result = Sat | Unsat

let pos_lit v = 2 * v
let neg_lit v = (2 * v) + 1
let lit_var l = l lsr 1
let lit_sign l = l land 1 = 0
let lit_neg l = l lxor 1

(* -- int vectors, read in place -------------------------------------------

   Dev builds compile every module with -opaque, so no function of
   [Vec] is inlined here: each call would be an unknown call through
   [caml_applyN] on the hottest paths of the search.  The loops below
   use these copies instead, which this module inlines; like
   [Vec.unsafe_get] they bounds-check only under MS_VEC_DEBUG. *)
let[@inline] vget (v : Vec.t) i =
  if Vec.debug && (i < 0 || i >= v.Vec.len) then invalid_arg "Vec.unsafe_get (MS_VEC_DEBUG)";
  Array.unsafe_get v.Vec.data i

let[@inline] vset (v : Vec.t) i x =
  if Vec.debug && (i < 0 || i >= v.Vec.len) then invalid_arg "Vec.unsafe_set (MS_VEC_DEBUG)";
  Array.unsafe_set v.Vec.data i x

let[@inline] vpush (v : Vec.t) x =
  if v.Vec.len = Array.length v.Vec.data then Vec.grow v;
  Array.unsafe_set v.Vec.data v.Vec.len x;
  v.Vec.len <- v.Vec.len + 1

let[@inline] vshrink (v : Vec.t) n =
  if Vec.debug && (n < 0 || n > v.Vec.len) then invalid_arg "Vec.shrink (MS_VEC_DEBUG)";
  v.Vec.len <- n

let create () =
  {
    nvars = 0;
    assign = Array.make 16 0;
    level = Array.make 16 0;
    reason = Array.make 16 (-1);
    phase = Array.make 16 false;
    seen = Array.make 16 false;
    toclear = Vec.create ();
    important = Array.make 16 false;
    activity = Array.make 16 0.0;
    heap_pos = Array.make 16 (-1);
    heap = Vec.create ();
    watches = Array.init 32 (fun _ -> Vec.create ());
    trail = Vec.create ();
    trail_lim = Vec.create ();
    qhead = 0;
    arena = Array.make 1024 0;
    asize = 0;
    awasted = 0;
    compactions = 0;
    clauses = Vec.create ();
    learnts = Vec.create ();
    ok = true;
    var_inc = 1.0;
    cla_inc = 1.0;
    max_learnts = 4000.0;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    learnts_made = 0;
    chrono_backtracks = 0;
    minor_words = 0.0;
    core = [];
    on_backtrack = (fun (_ : int) -> ());
    strategy = default_strategy;
    stop = None;
    early_sat_enabled = false;
    n_important = 0;
    important_assigned = 0;
    lbd_deletions = 0;
    early_sats = 0;
    scan_backoff = 16;
    next_scan_work = 0;
    scan_cursor = -1;
    proof_on = false;
    proof_rev = [];
    proof_len = 0;
    lbd_sum = 0.0;
    ema_lbd = 0.0;
    trail_ema = 0.0;
    ema_restarts = 0;
    blocked_restarts = 0;
    best_phase = Array.make 16 false;
    best_trail = 0;
    rephases = 0;
    next_rephase = 1000;
    rephase_kind = 0;
  }

let enable_proof s = s.proof_on <- true
let proof_enabled s = s.proof_on
let proof_steps s = List.rev s.proof_rev
let proof_length s = s.proof_len

let log_step s step =
  if s.proof_on then begin
    s.proof_rev <- step :: s.proof_rev;
    s.proof_len <- s.proof_len + 1
  end

let set_strategy s st = s.strategy <- st
let set_stop s f = s.stop <- f
let set_max_learnts s n = s.max_learnts <- float_of_int n
let set_early_sat s b = s.early_sat_enabled <- b

let nvars s = s.nvars
let num_conflicts s = s.conflicts
let num_decisions s = s.decisions
let num_propagations s = s.propagations
let num_clauses s = Vec.size s.clauses
let num_restarts s = s.restarts
let num_learnts s = s.learnts_made
let num_chrono_backtracks s = s.chrono_backtracks
let num_lbd_deletions s = s.lbd_deletions
let num_early_sats s = s.early_sats
let num_compactions s = s.compactions
let num_ema_restarts s = s.ema_restarts
let num_blocked_restarts s = s.blocked_restarts
let num_rephases s = s.rephases
let arena_words s = s.asize
let arena_wasted_words s = s.awasted
let minor_words s = s.minor_words
let unsat_core s = s.core

(* -- clause accessors over the arena -------------------------------------- *)

let[@inline] c_size s c = s.arena.(c) lsr 3
let[@inline] c_learnt s c = s.arena.(c) land 1 = 1
let[@inline] c_deleted s c = s.arena.(c) land 2 <> 0
let[@inline] c_lit s c k = s.arena.(c + header_words + k)
let[@inline] c_lbd s c = s.arena.(c + 2)
let[@inline] c_set_glue s c g = s.arena.(c + 2) <- g

(* a fresh copy of the literal slice (proof logging, checker hand-off) *)
let clause_lits s c = Array.init (c_size s c) (fun k -> s.arena.(c + header_words + k))

let c_delete s c =
  if not (c_deleted s c) then begin
    s.awasted <- s.awasted + header_words + c_size s c;
    s.arena.(c) <- s.arena.(c) lor 2
  end

let log_delete s c = if s.proof_on then log_step s (P_delete (clause_lits s c))

let arena_ensure s n =
  if n > Array.length s.arena then begin
    let cap = ref (Array.length s.arena) in
    while !cap < n do
      cap := 2 * !cap
    done;
    let fresh = Array.make !cap 0 in
    Vec.copy_ints s.arena 0 fresh 0 s.asize;
    s.arena <- fresh
  end

let alloc_clause s lits learnt =
  let n = Array.length lits in
  arena_ensure s (s.asize + header_words + n);
  let c = s.asize in
  s.arena.(c) <- (n lsl 3) lor (if learnt then 1 else 0);
  s.arena.(c + 1) <- 0;
  s.arena.(c + 2) <- 0;
  Vec.copy_ints lits 0 s.arena (c + header_words) n;
  s.asize <- s.asize + header_words + n;
  c

(* -- variable order (binary max-heap on activity) ------------------------ *)

let[@inline] heap_less s a b = s.activity.(a) > s.activity.(b)

(* Both sifts move a hole instead of swapping, and write the moving
   variable once at its final slot.  A variable leaves its slot only
   for a strictly more active one, and [heap_down] prefers the left
   child on ties, so the heap ends in the same shape as with pairwise
   swaps. *)
let heap_up s i =
  let heap = s.heap in
  let x = vget heap i in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let p = vget heap parent in
    if heap_less s x p then begin
      vset heap !i p;
      s.heap_pos.(p) <- !i;
      i := parent
    end
    else continue := false
  done;
  vset heap !i x;
  s.heap_pos.(x) <- !i

let heap_down s i =
  let heap = s.heap in
  let n = heap.Vec.len in
  let x = vget heap i in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let r = l + 1 in
      let child = if r < n && heap_less s (vget heap r) (vget heap l) then r else l in
      let c = vget heap child in
      if heap_less s c x then begin
        vset heap !i c;
        s.heap_pos.(c) <- !i;
        i := child
      end
      else continue := false
    end
  done;
  vset heap !i x;
  s.heap_pos.(x) <- !i

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    vpush s.heap v;
    heap_up s (s.heap.Vec.len - 1)
  end

let heap_pop s =
  let heap = s.heap in
  let top = vget heap 0 in
  let n = heap.Vec.len - 1 in
  let last = vget heap n in
  vshrink heap n;
  s.heap_pos.(top) <- -1;
  if n > 0 then begin
    vset heap 0 last;
    heap_down s 0
  end;
  top

(* -- variable allocation -------------------------------------------------- *)

(* Copies of int and bool arrays go through explicit loops: [Array.blit]
   into a major-heap array pays the write barrier per element (see
   {!Vec.copy_ints}); float arrays are unboxed and [Array.blit] moves
   them in bulk. *)
let copy_bools (src : bool array) (dst : bool array) len =
  for i = 0 to len - 1 do
    dst.(i) <- src.(i)
  done

let grow_array copy arr n dummy =
  let old = Array.length arr in
  if n <= old then arr
  else begin
    let fresh = Array.make (max n (2 * old)) dummy in
    copy arr fresh old;
    fresh
  end

let ints src dst len = Vec.copy_ints src 0 dst 0 len
let floats src dst len = Array.blit src 0 dst 0 len

let new_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  s.assign <- grow_array ints s.assign s.nvars 0;
  s.level <- grow_array ints s.level s.nvars 0;
  s.reason <- grow_array ints s.reason s.nvars (-1);
  s.phase <- grow_array copy_bools s.phase s.nvars false;
  s.best_phase <- grow_array copy_bools s.best_phase s.nvars false;
  s.seen <- grow_array copy_bools s.seen s.nvars false;
  s.important <- grow_array copy_bools s.important s.nvars false;
  s.activity <- grow_array floats s.activity s.nvars 0.0;
  s.heap_pos <- grow_array ints s.heap_pos s.nvars (-1);
  let nlits = 2 * s.nvars in
  if Array.length s.watches < nlits then begin
    let old = Array.length s.watches in
    let fresh = Array.make (max nlits (2 * old)) (Vec.create ()) in
    Array.blit s.watches 0 fresh 0 old;
    for i = old to Array.length fresh - 1 do
      fresh.(i) <- Vec.create ()
    done;
    s.watches <- fresh
  end;
  s.phase.(v) <- s.strategy.default_phase;
  s.best_phase.(v) <- s.strategy.default_phase;
  heap_insert s v;
  v

let mark_important s v =
  if not s.important.(v) then begin
    s.important.(v) <- true;
    s.n_important <- s.n_important + 1;
    if s.assign.(v) <> 0 then s.important_assigned <- s.important_assigned + 1
  end

(* -- assignment ----------------------------------------------------------- *)

(* variables are allocated densely and literals validated on entry, so
   the assignment read skips the bounds check: this is the single
   hottest load in the solver *)
let[@inline] lit_value s l =
  let v = Array.unsafe_get s.assign (l lsr 1) in
  if l land 1 = 0 then v else -v

let[@inline] decision_level s = s.trail_lim.Vec.len

let[@inline] enqueue s l reason lvl =
  let v = lit_var l in
  s.assign.(v) <- (if lit_sign l then 1 else -1);
  s.level.(v) <- lvl;
  s.reason.(v) <- reason;
  if s.important.(v) then s.important_assigned <- s.important_assigned + 1;
  vpush s.trail l

(* Unassign every literal above level [lvl].  Literals at or below it
   that were assigned out of order above the cut stay assigned: they
   are re-pushed, in trail order, right above the cut and propagated
   again. *)
let cancel_until s lvl =
  if decision_level s > lvl then begin
    let trail = s.trail in
    let bound = vget s.trail_lim lvl in
    let n = trail.Vec.len in
    let kept = ref 0 in
    for i = n - 1 downto bound do
      let l = vget trail i in
      let v = lit_var l in
      if s.level.(v) > lvl then begin
        s.phase.(v) <- lit_sign l;
        s.assign.(v) <- 0;
        s.reason.(v) <- -1;
        if s.important.(v) then s.important_assigned <- s.important_assigned - 1;
        heap_insert s v
      end
      else incr kept
    done;
    if !kept > 0 then begin
      let j = ref bound in
      for i = bound to n - 1 do
        let l = vget trail i in
        if s.assign.(lit_var l) <> 0 then begin
          vset trail !j l;
          incr j
        end
      done;
      s.chrono_backtracks <- s.chrono_backtracks + 1
    end;
    s.qhead <- bound;
    vshrink trail (bound + !kept);
    vshrink s.trail_lim lvl;
    s.on_backtrack bound
  end

(* CaDiCaL-style rephasing: periodically overwrite the saved phases the
   search branches on.  The cycle alternates the best phases (the
   assignment of the deepest conflict trail seen since the last rephase
   — a known-good partial model), their inversion (pushing the search
   into the complement of the space it has been mining), and an
   untouched slot where plain phase saving keeps whatever it last
   recorded.  Runs at decision level 0 only (the restart point), so no
   live assignment is contradicted. *)
let rephase s =
  (match s.rephase_kind land 3 with
   | 0 | 2 -> copy_bools s.best_phase s.phase s.nvars
   | 1 ->
     for v = 0 to s.nvars - 1 do
       s.phase.(v) <- not s.phase.(v)
     done
   | _ -> () (* saved: keep the phases exactly as phase saving left them *));
  s.rephase_kind <- s.rephase_kind + 1;
  s.rephases <- s.rephases + 1;
  s.best_trail <- 0;
  (* widening cadence: early rephases probe cheaply, later ones leave
     a converging search alone for longer *)
  s.next_rephase <- s.conflicts + (1000 * (s.rephases + 1))

(* -- activity ------------------------------------------------------------- *)

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  if s.heap_pos.(v) >= 0 then heap_up s s.heap_pos.(v)

let var_decay s = s.var_inc <- s.var_inc /. s.strategy.var_decay

(* Clause activities live in the arena as integers: bumps add the
   truncated increment, and a rescale shifts every learnt activity down
   rather than multiplying by 1e-20.  Only the relative order matters
   (reduce_db sorts by it), so integer truncation is harmless. *)
let cla_bump s c =
  let a = s.arena.(c + 1) + int_of_float s.cla_inc in
  s.arena.(c + 1) <- a;
  if a > 1 lsl 50 then begin
    Vec.iter (fun c -> s.arena.(c + 1) <- s.arena.(c + 1) asr 25) s.learnts;
    s.cla_inc <- Float.max 1.0 (s.cla_inc /. 33554432.0)
  end

let cla_decay s = s.cla_inc <- s.cla_inc /. 0.999

(* -- clauses -------------------------------------------------------------- *)

let attach s c =
  let l0 = c_lit s c 0 and l1 = c_lit s c 1 in
  let w0 = s.watches.(l0) in
  vpush w0 c;
  vpush w0 l1;
  let w1 = s.watches.(l1) in
  vpush w1 c;
  vpush w1 l0

let add_clause s lits =
  (* A previous Sat answer leaves its model on the trail; new clauses are
     asserted at level 0, so undo it first. *)
  if decision_level s > 0 then cancel_until s 0;
  if s.ok then begin
    (* Simplify: drop duplicate and false literals, detect tautologies and
       satisfied clauses.  All current assignments are at level 0. *)
    let lits = List.sort_uniq compare lits in
    let orig = if s.proof_on then Array.of_list lits else [||] in
    log_step s (P_input orig);
    let tautology =
      List.exists (fun l -> lit_sign l && List.mem (lit_neg l) lits) lits
    in
    let satisfied = List.exists (fun l -> lit_value s l = 1) lits in
    if tautology || satisfied then
      (* the solver never stores this clause, so neither may the
         checker's active set; it can never appear in a derivation *)
      log_step s (P_delete orig)
    else begin
      let lits' = List.filter (fun l -> lit_value s l <> -1) lits in
      if s.proof_on && List.length lits' <> List.length lits then begin
        (* root-false literals were stripped: the stored clause is a
           unit-propagation consequence of the original plus root units *)
        log_step s (P_rup (Array.of_list lits'));
        if lits' <> [] then log_step s (P_delete orig)
      end;
      match lits' with
      | [] -> s.ok <- false
      | [ l ] -> enqueue s l (-1) 0
      | _ :: _ :: _ ->
        let c = alloc_clause s (Array.of_list lits') false in
        Vec.push s.clauses c;
        attach s c
    end
  end

(* -- propagation ---------------------------------------------------------- *)

(* The inner loop reads the arena and the flat watcher pairs directly:
   no closures, no options, no boxed records, no allocation (the only
   heap effect is the amortized growth of a watcher vector).  Returns
   the conflicting cref, or -1.

   A unit clause implies its literal at the highest level among its
   other literals.  That is the level of the literal being propagated
   unless it was assigned out of order; then the highest-level literal
   moves to watch position 1, so any backtrack that unassigns the
   implied literal unassigns that watch too. *)
let propagate s =
  let confl = ref (-1) in
  let trail = s.trail in
  let dl = decision_level s in
  while !confl < 0 && s.qhead < trail.Vec.len do
    let p = vget trail s.qhead in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    let fl = lit_neg p in
    let ws = Array.unsafe_get s.watches fl in
    let n = ws.Vec.len in
    let arena = s.arena in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let cr = vget ws !i in
      let blocker = vget ws (!i + 1) in
      i := !i + 2;
      if lit_value s blocker = 1 then begin
        (* Blocking literal is true: the clause is satisfied without
           touching its literal slice. *)
        vset ws !j cr;
        vset ws (!j + 1) blocker;
        j := !j + 2
      end
      else begin
        let hd = Array.unsafe_get arena cr in
        if hd land 2 = 0 then begin
          (* not deleted *)
          let l0 = Array.unsafe_get arena (cr + 3) in
          if l0 = fl then begin
            Array.unsafe_set arena (cr + 3) (Array.unsafe_get arena (cr + 4));
            Array.unsafe_set arena (cr + 4) fl
          end;
          let first = Array.unsafe_get arena (cr + 3) in
          if lit_value s first = 1 then begin
            (* Clause satisfied by the other watch; keep it here and
               remember that watch as the blocker. *)
            vset ws !j cr;
            vset ws (!j + 1) first;
            j := !j + 2
          end
          else begin
            let len = hd lsr 3 in
            let k = ref 2 in
            while !k < len && lit_value s (Array.unsafe_get arena (cr + 3 + !k)) = -1 do
              incr k
            done;
            if !k < len then begin
              (* Move the watch to literal position !k. *)
              let lk = Array.unsafe_get arena (cr + 3 + !k) in
              Array.unsafe_set arena (cr + 4) lk;
              Array.unsafe_set arena (cr + 3 + !k) fl;
              let wk = Array.unsafe_get s.watches lk in
              vpush wk cr;
              vpush wk first
            end
            else if lit_value s first = -1 then begin
              vset ws !j cr;
              vset ws (!j + 1) first;
              j := !j + 2;
              confl := cr;
              s.qhead <- trail.Vec.len;
              while !i < n do
                vset ws !j (vget ws !i);
                incr i;
                incr j
              done
            end
            else begin
              let lv = Array.unsafe_get s.level (lit_var fl) in
              let top = ref 1 and top_lv = ref lv in
              if lv < dl then
                for k = 2 to len - 1 do
                  let lk = Array.unsafe_get s.level (lit_var (Array.unsafe_get arena (cr + 3 + k))) in
                  if lk > !top_lv then begin
                    top := k;
                    top_lv := lk
                  end
                done;
              if !top = 1 then begin
                vset ws !j cr;
                vset ws (!j + 1) first;
                j := !j + 2
              end
              else begin
                let lk = Array.unsafe_get arena (cr + 3 + !top) in
                Array.unsafe_set arena (cr + 4) lk;
                Array.unsafe_set arena (cr + 3 + !top) fl;
                let wk = Array.unsafe_get s.watches lk in
                vpush wk cr;
                vpush wk first
              end;
              enqueue s first cr !top_lv
            end
          end
        end
        (* deleted clause: drop the watcher pair *)
      end
    done;
    vshrink ws !j
  done;
  !confl

(* -- arena compaction ------------------------------------------------------ *)

(* Copy every live clause into a fresh arena and rewrite all crefs
   through forwarding pointers.  A relocated slice keeps its old header
   with the relocated bit set and its new cref in the activity word, so
   any reference order works; references to deleted clauses are dropped
   (watchers) or must not exist (reasons, clause lists filter first).
   Safe whenever no cref is held in a local across the call — the
   caller is [reduce_db], run between search decisions. *)
let compact s =
  let live = s.asize - s.awasted in
  let cap = ref 1024 in
  while !cap < live do
    cap := 2 * !cap
  done;
  let to_arena = Array.make !cap 0 in
  let to_size = ref 0 in
  let reloc c =
    if s.arena.(c) land 4 <> 0 then s.arena.(c + 1)
    else begin
      let words = header_words + c_size s c in
      let nc = !to_size in
      Vec.copy_ints s.arena c to_arena nc words;
      to_size := nc + words;
      s.arena.(c) <- s.arena.(c) lor 4;
      s.arena.(c + 1) <- nc;
      nc
    end
  in
  let reloc_clause_vec vec =
    let j = ref 0 in
    for i = 0 to Vec.size vec - 1 do
      let c = Vec.get vec i in
      if not (c_deleted s c) then begin
        Vec.set vec !j (reloc c);
        incr j
      end
    done;
    Vec.shrink vec !j
  in
  (* watchers: drop pairs pointing at deleted clauses, forward the rest *)
  for l = 0 to (2 * s.nvars) - 1 do
    let ws = s.watches.(l) in
    let j = ref 0 in
    let i = ref 0 in
    let n = Vec.size ws in
    while !i < n do
      let c = Vec.get ws !i in
      let blocker = Vec.get ws (!i + 1) in
      i := !i + 2;
      if not (c_deleted s c) then begin
        Vec.set ws !j (reloc c);
        Vec.set ws (!j + 1) blocker;
        j := !j + 2
      end
    done;
    Vec.shrink ws !j
  done;
  (* reasons of assigned variables (a deleted reason cannot happen —
     reduce_db skips locked clauses — but a stale one must not survive
     relocation either way) *)
  for i = 0 to Vec.size s.trail - 1 do
    let v = lit_var (Vec.get s.trail i) in
    let r = s.reason.(v) in
    if r >= 0 then s.reason.(v) <- (if c_deleted s r then -1 else reloc r)
  done;
  reloc_clause_vec s.clauses;
  reloc_clause_vec s.learnts;
  s.arena <- to_arena;
  s.asize <- !to_size;
  s.awasted <- 0;
  s.compactions <- s.compactions + 1;
  s.scan_cursor <- -1

(* Compact when at least a quarter of a non-trivial arena is dead:
   amortizes the copy against the propagation locality it buys back. *)
let maybe_compact s =
  if s.awasted > 4096 && s.awasted * 4 > s.asize then compact s

(* -- conflict analysis (first UIP) ----------------------------------------- *)

let reason_exn s v =
  let r = s.reason.(v) in
  assert (r >= 0);
  r

(* Recursive (MiniSat-exact) minimization: [q] is redundant if every
   path from its reason bottoms out in clause literals or level-0 facts.
   [abstract_levels] is a Bloom filter of the levels present in the
   clause — a var on a level outside it can never be absorbed.
   Successfully explored vars stay marked in [s.seen] (memoization)
   and listed in [s.toclear], which the caller unmarks after use. *)
let[@inline] abstract_level s v = 1 lsl (s.level.(v) mod 61)

exception Keep

let lit_redundant_rec s abstract_levels q0 =
  let toclear = s.toclear in
  let top = toclear.Vec.len in
  let rec go q =
    let r = s.reason.(lit_var q) in
    if r < 0 then raise Keep
    else
      for k = 1 to c_size s r - 1 do
        let l = c_lit s r k in
        let v = lit_var l in
        if (not s.seen.(v)) && s.level.(v) > 0 then begin
          if s.reason.(v) >= 0 && abstract_level s v land abstract_levels <> 0 then begin
            s.seen.(v) <- true;
            vpush toclear v;
            go l
          end
          else raise Keep
        end
      done
  in
  match go q0 with
  | () -> true
  | exception Keep ->
    for i = top to toclear.Vec.len - 1 do
      s.seen.(vget toclear i) <- false
    done;
    vshrink toclear top;
    false

(* Drop clause [c]'s watcher from literal [l]'s list, keeping the order
   of the others. *)
let unwatch s l c =
  let ws = s.watches.(l) in
  let n = ws.Vec.len in
  let i = ref 0 in
  while !i < n && vget ws !i <> c do
    i := !i + 2
  done;
  if !i < n then begin
    for k = !i to n - 3 do
      vset ws k (vget ws (k + 2))
    done;
    vshrink ws (n - 2)
  end

(* The literals of a clause found conflicting can all sit below the
   decision level.  Moves its two highest-level literals to the watch
   positions (then every backtrack below the conflict level unassigns
   both watches) and returns the conflict level, and whether the clause
   has a single literal there: such a clause is a missed implication,
   not a conflict to analyze. *)
let conflict_level s c =
  let len = c_size s c in
  let lv k = s.level.(lit_var (c_lit s c k)) in
  for i = 0 to 1 do
    let top = ref i in
    for k = i + 1 to len - 1 do
      if lv k > lv !top then top := k
    done;
    let t = !top in
    if t <> i then begin
      let li = c_lit s c i and lt = c_lit s c t in
      if t > 1 then unwatch s li c;
      s.arena.(c + header_words + i) <- lt;
      s.arena.(c + header_words + t) <- li;
      if t > 1 then begin
        let w = s.watches.(lt) in
        vpush w c;
        vpush w (c_lit s c (1 - i))
      end
    end
  done;
  let cl = lv 0 in
  (cl, lv 1 < cl)

(* Where a conflict at level [conflict] whose learnt clause asserts at
   [blevel] backtracks to: the asserting level for a short jump, one
   level below the conflict otherwise. *)
let backtrack_level ~conflict blevel =
  if conflict - blevel > chrono_threshold then conflict - 1 else blevel

let compute_lbd s lits =
  List.length (List.sort_uniq compare (List.map (fun q -> s.level.(lit_var q)) lits))

let analyze s confl =
  let learnt = ref [] in
  let path = ref 0 in
  let p = ref (-1) in
  let idx = ref (s.trail.Vec.len - 1) in
  let c = ref confl in
  let dl = decision_level s in
  let expanding = ref true in
  while !expanding do
    if c_learnt s !c then begin
      cla_bump s !c;
      (* Dynamic LBD re-scoring (Glucose): a learnt clause participating
         in a new conflict gets its glue recomputed against the current
         levels — clauses that keep proving useful migrate towards the
         protected end of [reduce_db]. *)
      if c_lbd s !c > 2 then begin
        let l = compute_lbd s (Array.to_list (clause_lits s !c)) in
        if l < c_lbd s !c then c_set_glue s !c l
      end
    end;
    let start = if !p = -1 then 0 else 1 in
    for k = start to c_size s !c - 1 do
      let q = c_lit s !c k in
      let v = lit_var q in
      if (not s.seen.(v)) && s.level.(v) > 0 then begin
        s.seen.(v) <- true;
        var_bump s v;
        if s.level.(v) >= dl then incr path else learnt := q :: !learnt
      end
    done;
    (* seen literals below the conflict level go to the clause; the
       trail interleaves them with the ones resolved here *)
    while
      let v = lit_var (vget s.trail !idx) in
      not (s.seen.(v) && s.level.(v) = dl)
    do
      decr idx
    done;
    p := vget s.trail !idx;
    decr idx;
    s.seen.(lit_var !p) <- false;
    decr path;
    if !path > 0 then c := reason_exn s (lit_var !p) else expanding := false
  done;
  let abstract_levels =
    List.fold_left (fun acc q -> acc lor abstract_level s (lit_var q)) 0 !learnt
  in
  let tail = List.filter (fun q -> not (lit_redundant_rec s abstract_levels q)) !learnt in
  let toclear = s.toclear in
  for i = 0 to toclear.Vec.len - 1 do
    s.seen.(vget toclear i) <- false
  done;
  vshrink toclear 0;
  List.iter (fun q -> s.seen.(lit_var q) <- false) !learnt;
  let asserting = lit_neg !p in
  (* Asserting level: highest level among the tail. *)
  let blevel = List.fold_left (fun acc q -> max acc s.level.(lit_var q)) 0 tail in
  (* Put a literal of the asserting level in watch position 1. *)
  let tail =
    match List.partition (fun q -> s.level.(lit_var q) = blevel) tail with
    | q :: rest_max, rest -> q :: (rest_max @ rest)
    | [], rest -> rest
  in
  (asserting :: tail, blevel)

(* -- learnt clause database reduction -------------------------------------- *)

(* A clause is locked while it is the recorded reason of a trail
   literal: reasons are crefs, so the check is integer equality — the
   fresh-[Some]-box physical-equality trap that once deleted locked
   clauses (conflict minimization then cited deleted antecedents and
   the logged proof lost a step) is unrepresentable here. *)
let locked s c = c_size s c > 0 && s.reason.(lit_var (c_lit s c 0)) = c

let reduce_db s =
  (* Glue-aware reduction: delete the worse half by (high LBD, low
     activity), never touching locked, binary or glue (lbd <= 2)
     clauses — they encode the tight dependencies of the search. *)
  Vec.sort_in_place
    (fun a b ->
      if c_lbd s a <> c_lbd s b then compare (c_lbd s b) (c_lbd s a)
      else compare s.arena.(a + 1) s.arena.(b + 1))
    s.learnts;
  let n = Vec.size s.learnts in
  let j = ref 0 in
  for i = 0 to n - 1 do
    let c = Vec.get s.learnts i in
    if i < n / 2 && (not (locked s c)) && c_size s c > 2 && c_lbd s c > 2 then begin
      log_delete s c;
      c_delete s c;
      s.lbd_deletions <- s.lbd_deletions + 1
    end
    else begin
      Vec.set s.learnts !j c;
      incr j
    end
  done;
  Vec.shrink s.learnts !j;
  maybe_compact s

(* Integrate a theory-learned clause at the current state without
   restarting from scratch: attach it with valid watches and, when it
   is conflicting, backtrack below its conflict level as a learnt
   clause would (then it propagates like any learnt clause, at the
   level of its highest false literal). *)
let integrate_core s lits =
  (* literals false at level 0 can never help *)
  let lits' =
    List.filter (fun l -> not (lit_value s l = -1 && s.level.(lit_var l) = 0)) lits
  in
  if s.proof_on && List.length lits' <> List.length lits then begin
    log_step s (P_rup (Array.of_list lits'));
    if lits' <> [] then log_step s (P_delete (Array.of_list lits))
  end;
  match lits' with
  | [] -> s.ok <- false
  | [ l ] ->
    cancel_until s 0;
    (match lit_value s l with
     | 1 -> ()
     | -1 ->
       s.ok <- false;
       log_step s (P_rup [||])
     | _ -> enqueue s l (-1) 0)
  | _ :: _ :: _ ->
    let arr = Array.of_list lits' in
    s.learnts_made <- s.learnts_made + 1;
    (* watch preference: true > unassigned > false by decreasing level *)
    let rank l =
      match lit_value s l with
      | 1 -> max_int
      | 0 -> max_int - 1
      | _ -> s.level.(lit_var l)
    in
    let alloc_attached () =
      let c = alloc_clause s arr true in
      c_set_glue s c (Array.length arr);
      Vec.push s.learnts c;
      attach s c;
      c
    in
    let finished = ref false in
    while not !finished do
      Array.sort (fun a b -> compare (rank b) (rank a)) arr;
      match (lit_value s arr.(0), lit_value s arr.(1)) with
      | 1, _ | 0, (1 | 0) ->
        (* satisfied, or two non-false watches: just attach *)
        ignore (alloc_attached ());
        finished := true
      | 0, -1 ->
        (* asserting: propagate the single non-false literal *)
        let c = alloc_attached () in
        enqueue s arr.(0) c s.level.(lit_var arr.(1));
        finished := true
      | -1, _ ->
        (* conflicting (all false): backtrack below the conflict level *)
        let l0 = s.level.(lit_var arr.(0)) in
        if l0 = 0 then begin
          s.ok <- false;
          log_step s (P_rup [||]);
          finished := true
        end
        else begin
          let l1 = s.level.(lit_var arr.(1)) in
          cancel_until s (if l1 < l0 then backtrack_level ~conflict:l0 l1 else l0 - 1)
        end
      | _ -> assert false
    done

let integrate_clause s lits =
  let lits = List.sort_uniq compare lits in
  log_step s (P_lemma (Array.of_list lits));
  integrate_core s lits

(* -- final conflict analysis (assumptions) ---------------------------------- *)

(* [p] is an assumption literal found false under the current trail.
   Walk the implication graph backwards from [p]'s variable and collect
   the assumption literals that, together with the clause database,
   imply [lit_neg p]: the returned list (which includes [p]) is an
   unsat core over the assumptions.  Decisions above level 0 are
   necessarily assumptions here, because assumptions occupy the first
   decision levels and a normal decision is never made before all of
   them are established. *)
let analyze_final s p =
  if decision_level s = 0 then [ p ]
  else begin
    let core = ref [ p ] in
    s.seen.(lit_var p) <- true;
    let bottom = Vec.get s.trail_lim 0 in
    for i = Vec.size s.trail - 1 downto bottom do
      let l = Vec.get s.trail i in
      let v = lit_var l in
      if s.seen.(v) then begin
        let r = s.reason.(v) in
        (if r < 0 then core := l :: !core
         else
           for k = 1 to c_size s r - 1 do
             let u = lit_var (c_lit s r k) in
             if s.level.(u) > 0 then s.seen.(u) <- true
           done);
        s.seen.(v) <- false
      end
    done;
    s.seen.(lit_var p) <- false;
    !core
  end

(* -- restarts -------------------------------------------------------------- *)

let luby i =
  (* Luby sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... (MiniSat's algorithm) *)
  let size = ref 1 and seq = ref 0 in
  while !size < i + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref i in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  1 lsl !seq

(* -- early-SAT detection ---------------------------------------------------- *)

(* With every theory atom assigned and every problem clause satisfied,
   the unassigned variables are don't-cares: reading them as [false]
   (what [value_var] does for an unassigned variable) yields a total
   model of the clause database, and — because learnt clauses are
   consequences of the problem clauses plus the theory axioms — of the
   learnt clauses too, once [final_check] confirms theory consistency.

   The scan walks the flat arena, so it is a linear streaming read; on
   failure it remembers the offending clause ([scan_cursor]), and while
   that clause stays unsatisfied the next attempts reject in O(clause
   length) without touching the rest of the database.  Full scans that
   fail still double an exponential backoff, bounding their cost. *)
let clause_satisfied s c =
  let arena = s.arena in
  let hd = Array.unsafe_get arena c in
  if hd land 2 <> 0 then true
  else begin
    let len = hd lsr 3 in
    let sat = ref false in
    let k = ref 0 in
    while (not !sat) && !k < len do
      if lit_value s (Array.unsafe_get arena (c + 3 + !k)) = 1 then sat := true;
      incr k
    done;
    !sat
  end

let all_problem_clauses_satisfied s =
  let ok = ref true in
  let n = s.clauses.Vec.len in
  let i = ref 0 in
  while !ok && !i < n do
    if not (clause_satisfied s (vget s.clauses !i)) then begin
      ok := false;
      s.scan_cursor <- !i
    end;
    incr i
  done;
  if !ok then s.scan_cursor <- -1;
  !ok

(* O(clause length) pre-filter: the clause that failed the previous
   scan.  While it is still unsatisfied a full scan cannot succeed. *)
let scan_prefilter s =
  s.scan_cursor < 0
  || s.scan_cursor >= s.clauses.Vec.len
  || clause_satisfied s (vget s.clauses s.scan_cursor)

(* -- main solve loop -------------------------------------------------------- *)

let decide s =
  let rec next () =
    if s.heap.Vec.len = 0 then -1
    else begin
      let v = heap_pop s in
      if s.assign.(v) = 0 then v else next ()
    end
  in
  let v = next () in
  if v < 0 then false
  else begin
    s.decisions <- s.decisions + 1;
    vpush s.trail_lim s.trail.Vec.len;
    enqueue s (if s.phase.(v) then pos_lit v else neg_lit v) (-1) (decision_level s);
    true
  end

(* Cooperative cancellation point: when the stop hook fires, abandon
   the search at level 0 (keeping all learnt clauses — they were derived
   from the clause database alone, so a later solve may reuse them). *)
let poll_stop s =
  match s.stop with
  | Some f when f () ->
    cancel_until s 0;
    raise Canceled
  | _ -> ()

let solve_body ?(assumptions = []) ?(final_check = fun (_ : t) -> [])
    ?(partial_check = fun (_ : t) -> []) ?(partial_interval = 64)
    ?(on_backtrack = fun (_ : int) -> ()) s =
  s.on_backtrack <- on_backtrack;
  (* A previous Sat answer leaves its model on the trail; start clean. *)
  cancel_until s 0;
  s.core <- [];
  poll_stop s;
  s.scan_backoff <- 16;
  s.next_scan_work <- 0;
  s.scan_cursor <- -1;
  let assumps = Array.of_list assumptions in
  let n_assumps = Array.length assumps in
  (* Establish the next pending assumption as a decision.  Assumption
     [i] owns decision level [i+1] (already-true assumptions get an
     empty level), so they always precede normal decisions and
     [analyze_final] can treat every decision above level 0 as an
     assumption. *)
  let rec pick_assumption () =
    if decision_level s >= n_assumps then `Search
    else begin
      let p = assumps.(decision_level s) in
      match lit_value s p with
      | 1 ->
        vpush s.trail_lim s.trail.Vec.len;
        pick_assumption ()
      | -1 -> `Failed p
      | _ ->
        s.decisions <- s.decisions + 1;
        vpush s.trail_lim s.trail.Vec.len;
        enqueue s p (-1) (decision_level s);
        `Propagate
    end
  in
  let restart_num = ref 0 in
  let conflicts_since_restart = ref 0 in
  let restart_limit = ref (s.strategy.restart_base * luby 0) in
  let answer = ref None in
  let since_partial = ref 0 in
  let steps = ref 0 in
  if not s.ok then answer := Some Unsat;
  while !answer = None do
    let confl = propagate s in
    if confl >= 0 then begin
      s.conflicts <- s.conflicts + 1;
      incr conflicts_since_restart;
      incr steps;
      if !steps land 255 = 0 then poll_stop s;
      (* restart-scheduling signals, read at conflict time: the trail
         EMA feeds restart blocking; in rephase mode the deepest trail
         seen snapshots its assignment as the best phases *)
      let tsize = s.trail.Vec.len in
      s.trail_ema <- s.trail_ema +. (0.000244140625 *. (float_of_int tsize -. s.trail_ema));
      if s.strategy.rephase && tsize > s.best_trail then begin
        s.best_trail <- tsize;
        for i = 0 to tsize - 1 do
          let l = vget s.trail i in
          s.best_phase.(lit_var l) <- lit_sign l
        done
      end;
      let cl, single = conflict_level s confl in
      if cl = 0 then begin
        s.ok <- false;
        log_step s (P_rup [||]);
        answer := Some Unsat
      end
      else if single then begin
        (* a missed lower implication: assign its one conflict-level
           literal one level down, with the clause as its reason *)
        cancel_until s (cl - 1);
        enqueue s (c_lit s confl 0) confl s.level.(lit_var (c_lit s confl 1))
      end
      else begin
        cancel_until s cl;
        let learnt, blevel = analyze s confl in
        let glue = compute_lbd s learnt in
        s.lbd_sum <- s.lbd_sum +. float_of_int glue;
        s.ema_lbd <- s.ema_lbd +. (0.03125 *. (float_of_int glue -. s.ema_lbd));
        log_step s (P_rup (Array.of_list learnt));
        (match learnt with
         | [] -> assert false
         | [ l ] ->
           cancel_until s 0;
           enqueue s l (-1) 0
         | l :: _ ->
           cancel_until s (backtrack_level ~conflict:cl blevel);
           let c = alloc_clause s (Array.of_list learnt) true in
           c_set_glue s c glue;
           cla_bump s c;
           s.learnts_made <- s.learnts_made + 1;
           vpush s.learnts c;
           attach s c;
           enqueue s l c blevel);
        var_decay s;
        cla_decay s
      end
    end
    else if !since_partial >= partial_interval then begin
      (* Periodic partial theory check on the propagation-complete
         prefix: catches theory-inconsistent assignments long before
         they are total. *)
      since_partial := 0;
      match partial_check s with
      | [] -> ()
      | conflict_clauses ->
        List.iter (fun c -> integrate_clause s c) conflict_clauses;
        if not s.ok then answer := Some Unsat
    end
    else if
      (match s.strategy.restart_mode with
       | Luby -> !conflicts_since_restart >= !restart_limit
       | Ema_lbd ->
         (* Glucose-style adaptive restarts: when the short-horizon LBD
            average runs hot against the long-run average, the clauses
            this orbit is learning are poor — restart and rebranch. *)
         !conflicts_since_restart >= 50
         && s.conflicts > 0
         && s.ema_lbd *. 0.8 > s.lbd_sum /. float_of_int s.conflicts)
    then begin
      if
        s.strategy.restart_mode = Ema_lbd
        && s.conflicts > 5000
        && float_of_int s.trail.Vec.len > 1.4 *. s.trail_ema
      then begin
        (* restart blocking: the trail is unusually deep for this
           search, i.e. it looks close to a satisfying assignment —
           postpone the restart rather than discard the progress *)
        s.blocked_restarts <- s.blocked_restarts + 1;
        conflicts_since_restart := 0
      end
      else begin
        incr restart_num;
        s.restarts <- s.restarts + 1;
        if s.strategy.restart_mode = Ema_lbd then
          s.ema_restarts <- s.ema_restarts + 1;
        conflicts_since_restart := 0;
        restart_limit := s.strategy.restart_base * luby !restart_num;
        cancel_until s 0;
        if s.strategy.rephase && s.conflicts >= s.next_rephase then rephase s
      end
    end
    else begin
      match pick_assumption () with
      | `Failed p ->
        s.core <- analyze_final s p;
        (* the negated core is implied by the database alone: record
           it so the trace refutes the assumptions by propagation *)
        log_step s (P_rup (Array.of_list (List.map lit_neg s.core)));
        answer := Some Unsat
      | `Propagate -> ()
      | `Search ->
        let total = s.trail.Vec.len = s.nvars in
        let early =
          (not total) && s.early_sat_enabled
          && s.important_assigned = s.n_important
          && scan_prefilter s
          && s.decisions + s.conflicts >= s.next_scan_work
          &&
          if all_problem_clauses_satisfied s then true
          else begin
            s.next_scan_work <- s.decisions + s.conflicts + s.scan_backoff;
            s.scan_backoff <- min 1024 (2 * s.scan_backoff);
            false
          end
        in
        if total || early then begin
          match final_check s with
          | [] ->
            if early then s.early_sats <- s.early_sats + 1;
            answer := Some Sat
          | conflict_clauses ->
            List.iter (fun c -> integrate_clause s c) conflict_clauses;
            if not s.ok then answer := Some Unsat
        end
        else begin
          if float_of_int s.learnts.Vec.len > s.max_learnts then begin
            reduce_db s;
            s.max_learnts <- s.max_learnts *. 1.3
          end;
          let made = decide s in
          assert made;
          incr since_partial;
          incr steps;
          if !steps land 255 = 0 then poll_stop s
        end
    end
  done;
  (match !answer with
   | Some Sat -> ()
   | _ -> cancel_until s 0);
  match !answer with
  | Some r -> r
  | None -> assert false

let solve ?assumptions ?final_check ?partial_check ?partial_interval ?on_backtrack s =
  let m0 = Gc.minor_words () in
  Fun.protect
    ~finally:(fun () -> s.minor_words <- s.minor_words +. (Gc.minor_words () -. m0))
    (fun () -> solve_body ?assumptions ?final_check ?partial_check ?partial_interval ?on_backtrack s)

let value_var s v = s.assign.(v) = 1
let value_lit s l = lit_value s l = 1

let var_assigned s v = s.assign.(v) <> 0

let trail s = s.trail
