(** Top-level verification: the {!Query}/{!Report} API.

    Every verification path — one-shot {!run_query}, incremental
    {!Session}s, portfolio racing, the serve daemon — answers
    labelled {!Query.t}s with uniform {!Report.t}s.
    A query asserts the network semantics, the property's
    instrumentation and assumptions, and the negation of its goal.
    UNSAT ⇒ the property is [Verified] in every stable state, for every
    packet and environment; SAT ⇒ [Violated] with a decoded
    counterexample. *)

type outcome = Holds | Violation of Counterexample.t
(** The bare two-valued answer, kept as the vocabulary of
    counterexample plumbing and differential tests; {!Report.to_outcome}
    extracts it from a report. *)

(** A labelled property query: the unit of work of every verification
    path (sequential sessions, portfolio racing, the serve daemon).
    The property is a thunk over the encoding so the same query can be
    replayed against each racer's own session. *)
module Query : sig
  type t = {
    label : string;
    timeout : float option;  (** wall-clock budget, seconds, for this query alone *)
    prop : Encode.t -> Property.t;
  }

  val v : ?timeout:float -> string -> (Encode.t -> Property.t) -> t

  val of_property : ?timeout:float -> string -> Property.t -> t
  (** Wrap an already-built property (ignores the encoding argument). *)

  val with_default_timeout : float option -> t -> t
  (** Fill in [timeout] when the query has none. *)
end

(** The uniform answer to a {!Query}: one verdict, its wall time, the
    solver work it cost, and which worker produced it. *)
module Report : sig
  type verdict =
    | Verified  (** the property holds in every stable state *)
    | Violated of Counterexample.t
    | Timeout  (** the query's wall-clock budget expired *)
    | Error of string  (** a racer crashed or the query raised *)

  (** Independent evidence for a verdict, produced when the encoding
      was built with [Options.certify].  [Checked_unsat_proof]: the
      solver's DRAT-style trace was replayed through the standalone
      {!Proof.Checker} (theory lemmas re-justified by fresh Idl/Simplex
      runs) and derives the refutation; the fields count the trace
      steps, the propagation-checked derived clauses and the
      re-justified theory lemmas.  [Checked_model]: the satisfying
      assignment was re-evaluated over the original asserted terms and
      the decoded counterexample was replayed through the concrete
      routing simulator.  Certificates are plain data and survive
      marshalling across the {!Engine} racer boundary. *)
  type certificate =
    | Uncertified
    | Checked_unsat_proof of { trace_steps : int; clauses : int; lemmas : int }
    | Checked_model
    | Certification_failed of string

  (** Which path of the fault-invariance workload produced the verdict:
      [Graph] the {!Faults} min-cut fast path over the simulator's
      converged routes, [Smt] the full two-copy encoding, [Fallback]
      the SMT encoding reached after the graph path declined to
      decide.  Absent on queries outside the fault workload. *)
  type meth = Graph | Smt | Fallback

  type t = {
    label : string;
    verdict : verdict;
    certificate : certificate;
    wall_ms : float;
    stats : Smt.Solver.stats;
        (** per-query solver work: absolute for a fresh solver, a delta
            over the enclosing session otherwise *)
    worker : int;  (** 0 when answered in-process; portfolio racers count from 1 *)
    strategy : string option;  (** winning variant, in portfolio mode *)
    support : string list option;
        (** [Verified] verdicts from a support-tracking session: the
            devices whose assumption guards appear in the final-conflict
            core.  The refutation used only their configuration slices
            (plus shared structure), so the verdict survives any config
            edit disjoint from this set — the serve daemon's delta
            re-verification replays on exactly this. *)
    replayed : bool;
        (** the verdict was replayed from a cache (core-disjoint delta
            re-verification), not produced by a solver run *)
    method_ : meth option;
        (** which fault-workload path answered ([method] is an OCaml
            keyword; the JSON key is ["method"]) *)
  }

  val schema_version : int
  (** The version stamped as ["schema"] on every JSON surface of the
      repo: {!to_json}, the [BENCH_*.json] writers, and the serve
      protocol.  Currently [2]. *)

  val verdict_name : verdict -> string
  (** ["verified" | "violated" | "timeout" | "error"]. *)

  val certificate_name : certificate -> string
  (** ["uncertified" | "checked_unsat_proof" | "checked_model" |
      "certification_failed"]. *)

  val method_name : meth -> string
  (** ["graph" | "smt" | "fallback"]. *)

  val of_outcome : outcome -> verdict

  val to_outcome : t -> outcome
  (** @raise Invalid_argument on [Timeout] and [Error] verdicts. *)

  val empty_stats : Smt.Solver.stats

  val v : string -> verdict -> t
  (** [v label verdict]: a report no solver produced — [Uncertified],
      zero wall time, {!empty_stats}, worker 0, no strategy, support or
      method.  Crashed racers, watchdog timeouts and the fault graph
      path build theirs with [{ (v label verdict) with ... }]. *)

  val decisions_per_conflict : Smt.Solver.stats -> float
  (** Decisions per conflict ([0.] when no conflicts): how much of the
      search was blind walking over don't-care variables versus
      conflict-driven progress.  Lower is tighter. *)

  val to_json : t -> string
  (** One JSON object — the single renderer behind the CLI's
      [--format json], the bench harness and the serve protocol. *)

  val list_to_json : t list -> string

  val exit_code : t list -> int
  (** Uniform process exit code for a report suite: [0] every query
      holds, [1] any violation, [3] any timeout/worker error, [4] any
      certification failure ([2] is reserved for usage and parse
      errors).  Violations dominate timeouts; certification failures
      dominate everything. *)
end

val run_query : Encode.t -> Query.t -> Report.t
(** Answer one query on a fresh single-shot solver (honouring the
    query's timeout). *)

(** Incremental verification sessions: one network encoding answering
    many property queries on a single incremental solver.

    The network semantics [N] is asserted once at session creation.
    Each query's instrumentation, assumptions and negated goal are then
    guarded behind a fresh activation literal ([act => constraint]) and
    checked under the assumption [act]; the next query permanently
    retires the previous activation literal with a unit clause.  The
    SAT core keeps its clause database, learnt clauses, variable
    activities and saved phases across queries, and the CNF cache
    deduplicates terms shared between queries — so a suite of
    properties is markedly cheaper than one fresh solver per query
    (learnt-clause reuse is sound because learnt clauses are derived
    from asserted clauses only, never from the retractable
    assumptions).

    A support-tracking session can also move to another encoding of a
    similar network without a new solver: {!rebase} returns a view of
    the same solver that re-asserts only the device slices whose terms
    changed.  The serve daemon keeps one solver this way across
    configuration diffs. *)
module Session : sig
  type t

  val create : ?support:bool -> Config.Ast.network -> Options.t -> t
  (** Build the encoding and assert the network semantics once. *)

  val of_encoding : ?strategy:Smt.Solver.strategy -> ?support:bool -> Encode.t -> t
  (** Start a session over an already-built encoding.  [strategy]
      overrides the encoding options' search strategy — the portfolio
      engine uses this to race variants over one shared encoding.

      [support] (default [false]) turns on verdict-support tracking:
      each device's slice of the network assertions (see
      {!Encode.tagged_assertions}) is guarded behind a per-device
      assumption literal passed to every check, and a [Verified]
      report's [support] field names the devices whose guards appear in
      the solver's final-conflict core.  Verdicts are unchanged — the
      guards are always all assumed true — but every guarded clause
      carries its device's guard literal, so nothing it implies is a
      root-level fact and learnt clauses carry the guards they depend
      on.  Support tracking therefore costs some solve time; the serve
      daemon pays it to earn core-disjoint delta re-verification. *)

  val rebase : t -> Encode.t -> t option
  (** [rebase s enc]: a view of [s]'s solver answering for [enc], or
      [None] when [s] does not track support, when [enc]'s unscoped
      assertions are not physically those [s]'s solver was started
      with, or when the solver has aged out — it carries more than
      twice the SAT variables it had right after its first encoding was
      asserted (nothing asserted is ever taken out, so a long chain of
      views only grows it).  Each device slice of [enc] (see
      {!Encode.tagged_assertions}) whose term list is physically equal
      to one already asserted in the solver keeps that slice's guard;
      every other slice is asserted under a fresh guard.  A view's
      checks assume only its own guards: an inactive slice is satisfied
      by setting its guard false, so verdicts are those of a fresh
      session on [enc], and the unsat core — hence [support] — can only
      name assumed guards.  Learnt clauses, activities and the CNF cache
      carry over.

      For slices to be shared, [enc] must be built in the same
      {!Encode.build} [namespace] as the encodings already asserted.
      Every view of one solver shares its activation-literal counter and
      live activation literal, so views may be used in any order.
      Raises [Invalid_argument] when called from a process other than
      the one that created the session. *)

  val live_guards : t -> int
  (** Device guards asserted into the solver so far, over all views:
      one per device at creation, one per slice a {!rebase} added. *)

  val encoding : t -> Encode.t

  val run_one : t -> Query.t -> Report.t
  (** Answer one query on the session's incremental solver.  A timeout
      cancels only this query (verdict [Timeout]); the session remains
      usable and later queries are unaffected.  [stats] in the report
      is the delta over this query alone. *)

  val run : t -> Query.t list -> Report.t list
  (** Answer a suite in order on the session's one solver. *)

  val queries : t -> int
  (** Number of queries checked so far on the solver (by any view). *)

  val stats : t -> Smt.Solver.stats
  (** Solver statistics accumulated over all queries of the session's
      solver, by every view of it. *)

  val solver : t -> Smt.Solver.t
  (** The session's underlying incremental solver, for clause-sharing
      hooks ({!Smt.Solver.set_on_restart}, {!Smt.Solver.enable_sharing});
      portfolio workers wire their exchange through it.  Asserting
      through it directly would corrupt the session's bookkeeping. *)

  val last_support : t -> string list option
  (** Support of the most recent [Verified] check of a
      support-tracking session; [None] otherwise. *)
end

val equivalent : ?timeout:float -> Config.Ast.network -> Config.Ast.network -> Options.t -> Report.t
(** Full equivalence (§5): under pointwise-equal environments and the
    same packet, both networks make identical forwarding decisions and
    external exports.  Devices and peerings are matched by name. *)

val fault_invariant :
  ?timeout:float ->
  ?label:string ->
  Config.Ast.network ->
  Options.t ->
  k:int ->
  sources:string list ->
  Property.destination ->
  Report.t
(** Fault-invariance testing (§5): reachability of the destination from
    each source is identical between a failure-free copy and a copy
    with up to [k] failures of internal links (cardinality-bounded
    per-link failure variables; a [Violated] counterexample's
    [failures] field names the failed-link set).  [label] defaults to
    ["fault-invariant k=<k>"]; the report is stamped [method_ = Smt]. *)

val fault_invariant_query :
  ?timeout:float ->
  ?label:string ->
  Config.Ast.network ->
  Options.t ->
  k:int ->
  sources:string list ->
  Property.destination ->
  Encode.t * Query.t
(** The two-copy encoding and query behind {!fault_invariant}, exposed
    so other paths (the {!Engine} portfolio, the {!Faults} hybrid) can
    answer the same property on their own solvers: run the query
    against the returned healthy-copy encoding. *)

(** The versioned line-JSON protocol of the serve daemon
    ([minesweeper_cli serve], the {!Serve} library).

    Requests are one JSON object per line; every request and response
    carries a top-level ["schema"] field (see {!Report.schema_version}).
    Ops: [load] (full configuration text), [diff] (full replacement
    text; the daemon computes the changed-device delta), [query] (a
    list of property specs answered from the verdict cache, by delta
    replay, or by solving), [stats], [shutdown]. *)
module Protocol : sig
  val schema : int
  (** = {!Report.schema_version}. *)

  type query_spec = {
    property : string;  (** same vocabulary as the CLI's [--property] / [--batch] *)
    label : string option;
    sources : string list;
    dst_device : string option;
    dst_prefix : string option;
    bound : int;
    devices : string list;  (** equivalence pair *)
    allowed : string list;
    max_len : int;
    timeout : float option;
  }

  val default_spec : query_spec
  (** [reachability] with every default filled in — build specs with
      [{ default_spec with ... }]. *)

  type request =
    | Load of string
    | Diff of string
    | Query of { specs : query_spec list }
    | Stats
    | Shutdown

  val request_of_json : Msutil.Json.value -> (request, string) result

  val parse_request : string -> (request, string) result
  (** Parse one request line.  The error string is safe to echo back to
      the client. *)

  val spec_key : query_spec -> string
  (** The verdict-cache key: every field that can change the verdict,
      none that cannot (label, timeout). *)

  val queries_of_spec : Encode.t -> query_spec -> (Query.t list, string) result
  (** Expand a spec into labelled queries over the encoding;
      [all-pairs] fans out per destination device. *)
end
