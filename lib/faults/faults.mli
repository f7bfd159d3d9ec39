(** Tiramisu-style graph fast path for ⟨k⟩-failure fault-invariance.

    The SMT encoding answers "is reachability of a destination
    invariant under every set of at most [k] internal-link failures?"
    by a two-copy check over cardinality-bounded failure variables
    ({!Minesweeper.Verify.fault_invariant}).  For a large class of
    networks that question collapses to pure graph theory: when the
    control plane is policy-free any-path routing, a source reaches the
    destination exactly when the surviving internal topology connects
    them, so by Menger's theorem the invariance holds iff the min
    edge cut between source and destination owner exceeds [k] — and a
    minimum cut of size ≤ [k] is itself an explicit counterexample.

    {!analyze} runs a conservative feature scan ({!eligible}) and, when
    it permits, answers by max-flow over the internal topology,
    cross-checked hop-for-hop against the {!Routing} simulator's
    converged forwarding.  Whenever any condition fails it returns
    {!answer.Undecided} and the caller falls back to the SMT encoding —
    {!hybrid} races both paths inside {!Engine.portfolio} and stamps
    the winning report's [method_] field ([Graph] / [Smt] /
    [Fallback]).  Differential agreement between the two paths is the
    correctness gate for the whole feature ([test/test_faults.ml],
    [make bench-fault-smoke]).

    The feature-scan conditions and the soundness argument are spelled
    out in DESIGN.md ("Why the graph fast path is sound"). *)

module Report = Minesweeper.Verify.Report

(** A witness that invariance fails: removing [links] (all internal,
    [|links| <= k]) disconnects [src] from the destination owner even
    though the healthy network connects them. *)
type cut = { src : string; links : (string * string) list }

type answer =
  | Invariant  (** every healthy-reachable source has min-cut > k *)
  | Broken of cut  (** an explicit ≤k cut set *)
  | Undecided of string  (** why the fast path must fall back to SMT *)

val eligible :
  Config.Ast.network ->
  Minesweeper.Property.destination ->
  (string * Net.Prefix.t, string) result
(** The conservative feature scan: [Ok (owner, prefix)] when k-failure
    reachability of [dest] provably reduces to graph connectivity over
    internal links, [Error reason] otherwise.  The conditions (each
    checked syntactically; any failure aborts):

    - the destination is [Subnet (owner, p)] with [p] a connected
      subnet of [owner], originated into BGP by [owner];
    - every device runs BGP and only BGP — no OSPF, no static routes,
      no data-plane ACLs (device- or interface-attached), no
      redistribution, no aggregation;
    - no iBGP session anywhere and all internal ASNs are pairwise
      distinct (AS-path loop rejection can otherwise block a
      topologically-live path);
    - internal BGP sessions carry no import/export route maps
      (policy-free any-path propagation: a route floods the whole
      connected component);
    - every external peering has an import route map under which no
      announcement of any subprefix of [p] can be permitted
      ({!prefix_list} first-match semantics walked symbolically), so
      the environment cannot inject a route at least as specific as
      the destination subnet;
    - no other device owns an interface or originates a BGP network
      overlapping [p] (longest-prefix match inside [p] always lands on
      [owner]). *)

val min_cut :
  Net.Topology.t ->
  src:string ->
  dst:string ->
  limit:int ->
  [ `Above_limit | `Cut of (string * string) list ]
(** Max-flow (BFS augmenting paths, unit capacity per distinct
    unordered device pair) between [src] and [dst] over the internal
    topology.  Stops as soon as the flow exceeds [limit] —
    [`Above_limit] means min-cut > limit; otherwise [`Cut links] is a
    minimum edge cut (possibly empty when already disconnected). *)

val analyze :
  Config.Ast.network ->
  k:int ->
  sources:string list ->
  Minesweeper.Property.destination ->
  answer
(** Decide fault-invariance by graph analysis when {!eligible} permits.
    Beyond the feature scan, the converged simulator state grounds the
    answer: the simulation must converge, and per-source healthy
    reachability through the actual FIB must coincide with topological
    connectivity — any mismatch is an [Undecided] tripwire, never a
    wrong verdict.  Sources that cannot reach the destination even
    healthy are invariantly unreachable and skipped. *)

val report :
  ?label:string ->
  Config.Ast.network ->
  k:int ->
  sources:string list ->
  Minesweeper.Property.destination ->
  Report.t
(** {!analyze} as a {!Report.t} with [method_ = Some Graph]:
    [Invariant] ⇒ [Verified]; [Broken cut] ⇒ [Violated] with a
    counterexample whose [failures] field is the cut set (packet
    addressed into the destination subnet, source address taken from
    the cut source's own subnets); [Undecided r] ⇒
    [Error "graph-undecided: r"] — indecisive by construction, so it
    can never win a portfolio race over a decisive SMT verdict.
    [label] defaults to ["fault-invariant k=<k>"]. *)

val hybrid :
  ?timeout:float ->
  ?strategies:(string * Smt.Solver.strategy) list ->
  ?share:bool ->
  Config.Ast.network ->
  Minesweeper.Options.t ->
  k:int ->
  sources:string list ->
  Minesweeper.Property.destination ->
  Report.t
(** Race the graph fast path against the SMT two-copy encoding inside
    {!Engine.portfolio}: one process per solver strategy (by default a
    single racer, ["default"], with the strategy of [opts], which is
    {!Minesweeper.Options.default}'s unless the caller changed it) plus
    one [extra] racer running {!report}.  The first decisive answer wins; an undecided graph
    racer simply never produces one.  The winner's [method_] is
    [Graph] when the graph racer won, [Smt] when a solver racer beat a
    decided graph path, and [Fallback] when the graph path could not
    decide. *)
