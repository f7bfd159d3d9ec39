(** Top-level SMT solver: lazy DPLL(T) over the CDCL core with
    difference-logic and linear-rational theory solvers, plus eager
    bit-blasting for bit-vector terms.

    Single-shot usage: {!create}, {!assert_term} any number of Boolean
    terms, then {!check} once ([check] answers for the conjunction of
    everything asserted; a second call raises [Invalid_argument]).

    Incremental usage: {!create} [~incremental:true], then interleave
    {!assert_term} / {!assert_implied} and {!check} freely.  The
    propositional state (CNF cache, learnt clauses, variable
    activities, saved phases) is retained across checks, so a suite of
    queries against one large formula amortizes the search; terms
    converted for an earlier check are deduplicated by the CNF cache.
    The theory solvers are reused across checks as long as no new
    theory atoms or variables appeared in between (only their assertion
    stacks are cleared); any growth rebuilds them from the enlarged
    registries.  Their atoms keep their SAT variables either way, so
    theory lemmas learnt as clauses carry over.  Assumptions make queries retractable:
    guard a query's assertions behind a fresh activation variable with
    {!assert_implied} and pass the variable to {!check}. *)

type t

type result = Sat of Model.t | Unsat

type restart_mode = Sat.restart_mode =
  | Luby  (** fixed Luby-sequence restart schedule *)
  | Ema_lbd
      (** Glucose-style adaptive restarts with trail-size blocking
          (see {!Sat.restart_mode}) *)

type strategy = Sat.strategy = {
  var_decay : float;  (** VSIDS decay (see {!Sat.strategy}) *)
  restart_base : int;  (** Luby restart base, in conflicts *)
  default_phase : bool;  (** branching polarity of fresh variables *)
  restart_mode : restart_mode;  (** restart scheduling policy *)
  rephase : bool;  (** CaDiCaL-style periodic phase rescheduling *)
}
(** SAT search strategy.  Every strategy is sound and complete; racing
    variants against each other (a portfolio) exploits their very
    different search orders on hard queries. *)

val default_strategy : strategy

exception Canceled
(** Raised by {!check} when the {!set_stop} hook fires.  The solver
    remains usable: learnt clauses are kept and a later {!check}
    restarts the search (incremental solvers only — a single-shot
    solver still refuses a second check). *)

type stats = {
  sat_vars : int;
  sat_clauses : int;  (** problem clauses (excludes learnt clauses) *)
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  ema_restarts : int;
      (** restarts triggered by the {!Ema_lbd} adaptive condition *)
  blocked_restarts : int;
      (** adaptive restarts suppressed by trail-size blocking *)
  rephases : int;  (** phase-schedule resets (strategy [rephase]) *)
  clauses_imported : int;
      (** sibling-learnt clauses integrated via {!import_clause} *)
  clauses_exported : int;  (** learnt clauses handed to {!drain_exported} *)
  learned_clauses : int;  (** learnt clauses created, incl. theory lemmas *)
  theory_rounds : int;
      (** number of theory conflicts raised (["theory_conflicts"] in the
          report JSON) *)
  chrono_backtracks : int;
      (** backtracks that kept literals assigned out of order and
          re-pushed them (chronological backtracking) *)
  theory_propagations : int;
      (** ladder lemmas pushed to the SAT core by difference-logic
          theory propagation *)
  preprocessed_clauses : int;
      (** always [0]: the solver runs no level-0 preprocessing.  Kept
          so readers of the stats record and of the schema-2 report
          JSON (its ["preprocessed_clauses"] key) stay unchanged. *)
  lbd_reductions : int;  (** learnt clauses deleted by LBD-scored reduction *)
  checks : int;  (** {!check} calls answered so far *)
  arena_words : int;
      (** words currently used by the SAT core's clause arena
          (multiply by [Sys.word_size / 8] for bytes) *)
  arena_compactions : int;  (** arena compactions performed *)
  minor_words : float;
      (** minor-heap words allocated inside SAT solving, cumulative
          ([Gc.minor_words] deltas around each [Sat.solve]) *)
}
(** Counters accumulate across every {!check} of an incremental
    solver; they are never reset. *)

val create : ?incremental:bool -> ?certify:bool -> ?strategy:strategy -> unit -> t
(** [incremental] (default [false]) allows any number of {!check}
    calls, interleaved with new assertions.  [certify] (default
    [false]) records the evidence needed for independent verdict
    checking: a DRAT-style proof trace in the SAT core (see
    {!Sat.enable_proof}) and the asserted terms for model evaluation;
    the recordings are consumed by the [Proof] library.  [strategy]
    (default {!default_strategy}) steers the SAT search.

    There is one solver configuration: difference-logic theory
    propagation (ladder lemmas pushed to the SAT core as propagations
    with theory reasons) with early-SAT detection once every theory
    atom is assigned, LBD-scored learnt-clause deletion with recursive
    conflict-clause minimization, and full Tseitin CNF. *)

val set_stop : t -> (unit -> bool) option -> unit
(** Cooperative cancellation/budget hook: polled every few hundred SAT
    search steps during {!check}.  When it returns [true] the running
    check raises {!Canceled}.  Close the hook over a wall-clock
    deadline for timeouts, or over {!stats} for conflict/decision
    budgets.  [None] clears it. *)

(** {2 Portfolio clause sharing}

    Learnt-clause exchange between solvers over the {e same} CNF
    (identical variable numbering — e.g. portfolio workers forked from
    one parent).  All hooks operate on the underlying SAT core; see
    {!Sat.set_share}, {!Sat.drain_exports}, {!Sat.import_clause}. *)

val set_on_restart : t -> (unit -> unit) option -> unit
(** Hook fired at every SAT restart, at decision level 0 with
    propagation complete — the safe point for {!drain_exported} and
    {!import_clause}. *)

val enable_sharing : ?max_lbd:int -> ?max_len:int -> t -> unit
(** Start exporting learnt clauses with LBD ≤ [max_lbd] (default 6)
    and length ≤ [max_len] (default 30) to the export buffer. *)

val drain_exported : t -> int array list
(** Take the export buffer (oldest first), in SAT-literal form. *)

val import_clause : t -> int array -> bool
(** Integrate a sibling's learnt clause (SAT-literal form).  Under
    [~certify:true] the clause is RUP-checked against this solver's
    active set and logged; non-RUP imports are dropped (returns
    [false]). *)

val assert_term : t -> Term.t -> unit

val assert_implied : t -> guard:Term.t -> Term.t -> unit
(** [assert_implied s ~guard t] asserts [guard => t].  With [guard] a
    fresh Boolean variable, pass it to {!check} as an assumption to
    enable the assertion for that call only; assert its negation to
    retire it permanently. *)

val check : ?assumptions:Term.t list -> t -> result
(** Decide the asserted conjunction, under the given Boolean
    [assumptions] (default none).  On a non-incremental solver a second
    call raises [Invalid_argument].
    @raise Invalid_argument on the second check of a single-shot solver. *)

val unsat_core : t -> Term.t list
(** After {!check} returned [Unsat] under assumptions: a subset of the
    assumption terms that is already inconsistent with the asserted
    formula.  Empty when the formula alone is unsatisfiable (or when
    the last check answered [Sat]). *)

val check_term : Term.t -> result
(** One-shot convenience: a fresh solver asserting a single term. *)

val stats : t -> stats

(** {2 Certification accessors}

    Raw evidence for an independent checker (the [Proof] library).
    Meaningful only on a solver created with [~certify:true]; the term
    recordings are empty otherwise. *)

val certify_enabled : t -> bool

val proof : t -> Sat.proof_step list
(** The DRAT-style trace recorded so far, chronological. *)

val proof_length : t -> int

val asserted_terms : t -> Term.t list
(** Every term passed to {!assert_term}, in assertion order. *)

val implied_terms : t -> (Term.t * Term.t) list
(** Every [(guard, body)] passed to {!assert_implied}. *)

val last_assumption_lits : t -> int list
(** SAT literals of the assumptions of the most recent {!check}. *)

val last_assumption_terms : t -> Term.t list

val int_atom_table : t -> (int * Cnf.int_atom) list
(** [(sat_var, atom)] for every registered difference atom — the key
    for re-justifying difference-logic lemmas independently. *)

val rat_atom_table : t -> (int * Cnf.rat_atom) list

val num_int_vars : t -> int
(** Dense integer theory variables allocated (the checker's IDL
    instances add one extra node for the constant zero). *)

val num_rat_vars : t -> int
