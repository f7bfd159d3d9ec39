(** Portfolio racing: answer one hard query by racing solver strategies
    in forked processes, first decisive answer wins.

    The parent forks every racer after the encoding is built (cheap
    copy-on-write sharing of the encoding and the query closure); each
    racer answers the query on its own incremental
    {!Minesweeper.Verify.Session} and streams framed, marshalled
    messages back over a pipe.  No solver state crosses a process
    boundary except clauses the racers share, which are consequences
    of the one input formula they all solve.

    A suite of queries is answered by one sequential
    {!Minesweeper.Verify.Session}, whose learnt clauses carry from one
    query to the next; this module has no suite mode. *)

module Verify = Minesweeper.Verify

val portfolio :
  ?timeout:float ->
  ?strategies:(string * Smt.Solver.strategy) list ->
  ?share:bool ->
  ?extra:(string * (unit -> Verify.Report.t)) list ->
  Minesweeper.Encode.t ->
  Verify.Query.t ->
  Verify.Report.t
(** Race one query under [strategies] (default
    {!Minesweeper.Options.portfolio}), one process per strategy, and
    return the first decisive report — [Verified] or [Violated] — with
    its [strategy] field naming the winner; the losers are killed.
    Every strategy is sound and complete, so any winner's verdict is
    the query's verdict.  If no racer is decisive (all time out or
    error), the first-completed indecisive report is returned; if every
    racer dies without reporting, the verdict is
    [Error "all portfolio racers crashed"].  Every racer is reaped
    before the call returns.

    [timeout] is a default per-query budget in seconds, applied when
    the query carries none.  Each racer enforces it cooperatively
    (verdict [Timeout]); past twice the budget plus one second the
    parent stops waiting and kills every racer still running, and a
    race with no report at all is [Timeout].

    [extra] racers are non-solver methods raced alongside the strategy
    processes — one forked process per [(name, thunk)], the thunk's
    report treated like any racer's ([strategy] is set to [name], the
    [worker] field counts after the strategy racers).  The fault
    workload races the {!Faults} graph fast path this way: a thunk
    that cannot decide returns an [Error]/[Timeout] report, which can
    never win over a decisive solver racer — the race itself encodes
    the fall-back-to-SMT semantics.  The caller must ensure each
    thunk's decisive verdicts agree with the query's SMT semantics
    (the differential suite and [bench fault] gate this for the graph
    path).

    [share] (default [true]) turns the race into a cooperating
    portfolio: each solver racer exports its low-LBD (glue) learnt
    clauses at restarts, the parent rebroadcasts them, and the other
    solver racers attach them via the solver's import path.  Sharing
    is sound because every racer solves the {e same} CNF with
    identical variable numbering (all are forked from one parent after
    the encoding is built), so a clause learnt by one is a logical
    consequence of the shared input formula for all; under
    [--certify] each import is additionally RUP-checked by the
    importer and logged, keeping proof traces independently checkable
    (see {!Smt.Solver.import_clause}).  The exchange is best-effort —
    frames ride the atomic-pipe-write guarantee and are dropped rather
    than ever blocking the race.  The winner's
    [clauses_imported]/[clauses_exported] stats record the traffic. *)
