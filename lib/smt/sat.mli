(** A CDCL SAT solver (two-watched literals, VSIDS, 1UIP learning with
    recursive clause minimization, chronological backtracking, Luby or
    LBD-driven restarts, LBD-scored learnt-clause deletion), solvable
    incrementally under assumptions (MiniSat style).

    When the jump back to a learnt clause's asserting level would cross
    many levels, the solver instead backtracks one level below the
    conflict level and assigns the asserting literal out of order, at
    its true level, rather than re-propagating everything above that
    level.  The trail is therefore not sorted by level; backtracking
    keeps the lower-level literals above the cut and re-pushes them
    there.

    Literals are integers: variable [v]'s positive literal is [2*v] and
    its negative literal is [2*v+1].  Variables are allocated with
    {!new_var} and clauses added with {!add_clause}; {!solve} then decides
    satisfiability.  A [final_check] callback supports lazy SMT: it runs
    whenever the solver reaches a full assignment and may veto it by
    returning conflict clauses to learn.

    {!solve} may be called any number of times, interleaved with
    {!new_var} and {!add_clause}; learnt clauses, variable activities
    and saved phases persist across calls (learnt clauses are derived
    from the clause database alone — never from assumptions, which are
    retractable decisions — so reusing them is sound as the database
    only grows).  Passing [~assumptions] decides the given literals
    before any search decision; on [Unsat] caused by the assumptions,
    {!unsat_core} names the guilty subset. *)

type t

type result = Sat | Unsat

type restart_mode =
  | Luby
      (** Fixed-schedule restarts: [restart_base] conflicts scaled by
          the Luby sequence.  Robust on satisfiable instances. *)
  | Ema_lbd
      (** Glucose-style adaptive restarts: restart when the exponential
          moving average of recent learnt-clause LBDs exceeds the
          long-run average (the search is producing worse-than-usual
          clauses), blocked when the trail is unusually deep (the
          search may be closing in on a model). *)

type strategy = {
  var_decay : float;
      (** VSIDS activity decay: [var_inc] is divided by this after every
          conflict.  Smaller values focus the search harder on recent
          conflicts (MiniSat default 0.95). *)
  restart_base : int;
      (** Conflicts before the first restart; later restart intervals
          are this base scaled by the Luby sequence ({!Luby} mode only —
          {!Ema_lbd} paces itself off clause quality). *)
  default_phase : bool;
      (** Initial saved phase of freshly allocated variables (branching
          polarity before any phase is saved). *)
  restart_mode : restart_mode;
      (** Restart scheduling policy (see {!restart_mode}). *)
  rephase : bool;
      (** CaDiCaL-style phase scheduling: remember the phases of the
          deepest trail reached since the last rephase ("best phase")
          and, on a widening conflict cadence, reset every saved phase
          to best / inverted / saved in rotation.  Diversifies the
          regions of the assignment space the search revisits after
          restarts. *)
}
(** Search-strategy knobs.  Any strategy is sound and complete — they
    only steer the search, which is what makes racing them in a
    portfolio worthwhile. *)

val default_strategy : strategy

val set_strategy : t -> strategy -> unit
(** Install a strategy.  Decay and restart cadence apply from the next
    conflict on; the default phase applies to variables allocated after
    the call. *)

exception Canceled

type proof_step =
  | P_input of int array
      (** Original clause, exactly as admitted into the database
          (duplicate literals removed, sorted).  Not justified by the
          trace — provenance is the caller's responsibility. *)
  | P_rup of int array
      (** Derived clause: learnt clauses, clauses stripped of root-false
          literals, negated assumption cores.  Checkable by reverse unit
          propagation over the preceding active set; [P_rup [||]] is
          the refutation. *)
  | P_lemma of int array
      (** Theory lemma integrated mid-search.  Not propositionally
          derivable — a checker must re-justify it against a standalone
          theory solver. *)
  | P_delete of int array
      (** Removal of a clause currently in the active set (compared as
          a sorted literal set). *)
(** One step of a DRAT-style trace.  The sequence of steps keeps an
    imagined "active set" of clauses in sync with the solver's own
    database, so an independent checker can replay it with nothing but
    unit propagation (plus theory revalidation for [P_lemma]). *)

val enable_proof : t -> unit
(** Start recording a proof trace.  Must be called before any clause is
    added; recording cannot be turned off again.  Logging costs memory
    proportional to the search, so leave it off unless a certificate is
    wanted. *)

val proof_enabled : t -> bool

val proof_steps : t -> proof_step list
(** The recorded trace, in chronological order.  Literal arrays are
    fresh copies, but their order reflects the solver's internal watch
    bookkeeping — consumers must treat clauses as literal {e sets}. *)

val proof_length : t -> int
(** Number of recorded steps ([List.length (proof_steps s)], O(1)). *)

val set_early_sat : t -> bool -> unit
(** Allow {!solve} to call [final_check] on a partial assignment once
    every variable marked {!mark_important} is assigned and every
    problem clause is satisfied.  The remaining variables are
    don't-cares and read as [false] via {!value_var}.  Off by default;
    only sound when all externally-constrained variables (theory atoms)
    are marked important. *)

val mark_important : t -> int -> unit
(** Mark a variable as gating early-SAT detection (see
    {!set_early_sat}).  Idempotent. *)

val set_max_learnts : t -> int -> unit
(** Learnt clauses tolerated before {!solve} runs a database reduction
    (default 4000; the limit then grows geometrically).  A tiny value
    forces a reduction every few conflicts — the stress mode the
    locked-clause regression tests rely on. *)

val set_stop : t -> (unit -> bool) option -> unit
(** Cooperative cancellation: the hook is polled every few hundred
    search steps (decisions and conflicts) inside {!solve}.  When it
    returns [true], the search backtracks to level 0 and {!solve}
    raises {!Canceled}.  The solver stays usable — clauses learnt
    before the cancellation are kept and a later {!solve} starts the
    search afresh. *)

val set_on_restart : t -> (unit -> unit) option -> unit
(** Hook invoked at every restart, after the trail has been cancelled
    to level 0 (and after any rephase).  This is the portfolio tick:
    the callback may {!drain_exports} and {!import_clause} freely —
    propagation is complete and imports attach cleanly.  If the hook
    imports a clause that makes the database unsatisfiable, the running
    {!solve} answers [Unsat]. *)

val set_share : t -> max_lbd:int -> max_len:int -> unit
(** Enable learnt-clause export: conflict clauses with LBD at most
    [max_lbd] and at most [max_len] literals are copied to an export
    buffer (bounded; overflow drops silently).  [max_lbd = 0] disables
    export (the default). *)

val drain_exports : t -> int array list
(** Take the export buffer, oldest first.  Literals use this solver's
    numbering — sharing is only sound between solvers with identical
    variable numbering (e.g. portfolio workers forked from one parent
    after CNF conversion). *)

val import_clause : t -> int array -> bool
(** Attach a clause learnt by a sibling solver over the same CNF.
    Returns [true] if the clause was integrated.  Must be called at
    decision level 0 with propagation complete (the {!set_on_restart}
    hook guarantees both).  When proof logging is on, the import is
    first checked to be RUP with respect to this solver's active set
    (assert the negation, propagate, require a conflict) and logged as
    {!P_rup}; non-RUP imports are dropped — returning [false] — so the
    trace stays independently checkable. *)

val create : unit -> t

val new_var : t -> int
(** Allocate a fresh variable and return its index. *)

val nvars : t -> int

val pos_lit : int -> int
val neg_lit : int -> int
val lit_var : int -> int
val lit_sign : int -> bool
(** [lit_sign l] is [true] for a positive literal. *)

val lit_neg : int -> int

val add_clause : t -> int list -> unit
(** Add a clause (a disjunction of literals).  If a previous {!solve}
    left a satisfying trail, it is undone first: clauses are always
    asserted at decision level 0. *)

val solve :
  ?assumptions:int list ->
  ?final_check:(t -> int list list) ->
  ?partial_check:(t -> int list list) ->
  ?partial_interval:int ->
  ?on_backtrack:(int -> unit) ->
  t ->
  result
(** Decide satisfiability of the clause database, under the
    [assumptions] literals if given.  Assumptions are decided (in
    order) at the first decision levels and backtracking past them
    re-establishes them, so they hold in any [Sat] answer but leave no
    permanent trace: a later call is free to assume differently.  When
    the database is satisfiable but contradicts the assumptions, the
    answer is [Unsat] and {!unsat_core} reports a subset of the
    assumptions that is jointly infeasible (final-conflict analysis).

    [final_check s] is invoked on every full propositional assignment.
    Returning [[]] accepts the assignment ({!solve} answers [Sat]);
    returning conflict clauses (each must be false under the current
    assignment) forces the search to continue.

    [partial_check s] is invoked every [partial_interval] decisions on
    the current {e partial} assignment (after propagation); any conflict
    clause over currently-assigned literals prunes the search early.

    [on_backtrack n] fires whenever the trail is cut at length [n]
    (backtracks and restarts), letting theory solvers pop their
    assertion stacks in lock step with the trail.  Literals at or below
    the target level that sat above the cut stay assigned and are
    re-pushed from position [n] on, so a theory solver that re-reads
    the trail from [n] re-asserts them. *)

val unsat_core : t -> int list
(** After an [Unsat] answer from {!solve} with assumptions: the subset
    of the assumption literals whose conjunction is refuted by the
    clause database (it includes the assumption found false).  Empty
    when the database alone is unsatisfiable. *)

val value_var : t -> int -> bool
(** Value of a variable in the current (full) assignment.  Meaningful
    after [Sat], or inside a [final_check] callback. *)

val value_lit : t -> int -> bool

val var_assigned : t -> int -> bool
(** Whether the variable is assigned in the current partial assignment
    (for use inside [partial_check]). *)

val num_conflicts : t -> int
val num_decisions : t -> int
val num_propagations : t -> int
val num_clauses : t -> int

val num_restarts : t -> int
(** Restarts performed, accumulated over every {!solve} call. *)

val num_ema_restarts : t -> int
(** Restarts triggered by the {!Ema_lbd} adaptive condition (a subset
    of {!num_restarts}). *)

val num_blocked_restarts : t -> int
(** Adaptive restarts suppressed by the trail-size blocking heuristic
    ({!Ema_lbd} mode only). *)

val num_rephases : t -> int
(** Phase-schedule resets performed (strategy [rephase] only). *)

val num_imported : t -> int
(** Clauses integrated via {!import_clause}. *)

val num_exported : t -> int
(** Clauses handed out by {!drain_exports}. *)

val num_learnts : t -> int
(** Learnt clauses created (conflict analysis and integrated theory
    lemmas), accumulated over every {!solve} call; deletion by the
    clause-database reduction does not decrease it. *)

val num_chrono_backtracks : t -> int
(** Backtracks that kept literals assigned out of order above the cut
    (and re-pushed them), accumulated over every {!solve} call. *)

val num_lbd_deletions : t -> int
(** Learnt clauses deleted by the database reduction, which drops the
    high-LBD half (keeping binary, glue and locked clauses), accumulated
    over every {!solve} call. *)

val num_early_sats : t -> int
(** [Sat] answers concluded on a partial assignment by early-SAT
    detection ({!set_early_sat}). *)

val num_compactions : t -> int
(** Arena compactions performed (live clauses copied to a fresh arena
    and every cref relocated), accumulated over the solver's life. *)

val arena_words : t -> int
(** Words currently used in the clause arena, including dead slices not
    yet reclaimed by compaction.  Multiply by [Sys.word_size / 8] for
    bytes. *)

val arena_wasted_words : t -> int
(** Words of the arena occupied by deleted slices (reclaimed by the
    next compaction). *)

val minor_words : t -> float
(** Minor-heap words allocated inside {!solve} calls, cumulative
    ([Gc.minor_words] deltas).  The observable behind the
    allocation-free-propagation claim: at steady state this grows by
    roughly zero words per propagation. *)

val trail : t -> Vec.t
(** The assignment trail itself, literals in assignment order, for a
    theory solver to read in place (elements [0] to [len - 1]).  It is
    the solver's own vector: read it, never write it. *)
