(** Encoding options: the §6 optimizations as independent switches so
    the ablation benchmarks (E7) can toggle them. *)

type t = {
  hoist_prefixes : bool;
      (** §6.1 prefix elimination: drop per-record prefix variables and
          rewrite prefix filters as integer range tests on the single
          symbolic destination IP.  When [false], every record carries a
          32-bit bit-vector prefix that is bit-blasted (the "naive"
          baseline). *)
  slice_unused : bool;
      (** §6.2: statically drop attributes that can never influence any
          decision in this network (e.g. local-preference when no
          configuration sets it), replacing them by shared constants. *)
  merge_filters : bool;
      (** §6.2: share import and export records over an edge when no
          import policy exists (derived copies instead of fresh
          variables). *)
  merge_dataplane : bool;
      (** §6.2: merge control-plane and data-plane forwarding variables
          on edges without ACLs. *)
  max_failures : int option;
      (** [Some k] introduces per-link failure variables constrained to
          at most [k] simultaneous failures; [None] encodes a fully
          healthy network (failure variables sliced away). *)
  fail_internal_only : bool;
      (** Restrict failure variables to links between internal devices.
          A failed external peering is behaviourally identical to the
          peer not announcing, which the symbolic environment already
          covers; fault-invariance checking therefore uses this mode to
          avoid double-counting the environment as a "failure". *)
  symmetry : bool;
      (** Quotient encoding by symmetry reduction: partition the devices
          into interchangeability classes ({!Analysis.Symmetry.classes},
          color refinement seeded by renaming-invariant config
          fingerprints) and encode one representative per class instead
          of the full network.  Property endpoints must be pinned via
          [Encode.build ~pins] so their classes stay singletons.  The
          reduction conservatively bails out to the full encoding for
          asymmetric networks and for feature combinations whose
          quotient semantics differ (iBGP, statics with internal next
          hops, intra-class links, [max_failures]); see DESIGN.md for
          the soundness argument. *)
  preflight_lint : bool;
      (** Run the {!Analysis} linter before encoding and refuse to
          encode a network with Error-level findings (undefined policy
          objects, AS mismatches, ...): {!Encode.build} raises
          {!Analysis.Lint.Lint_errors} instead of silently verifying
          the wrong network. *)
  strategy : Smt.Solver.strategy;
      (** SAT search strategy (VSIDS decay, restart cadence, branching
          polarity) used by every solver created for this encoding.
          Any strategy yields the same verdicts.  The solver has no
          other knobs: it always runs theory propagation, LBD clause
          management and full Tseitin CNF (see {!Smt.Solver.create}). *)
  certify : bool;
      (** Certify every verdict independently: solvers record a
          DRAT-style proof trace, Unsat answers are replayed through the
          [Proof] checker (with theory lemmas re-justified by standalone
          solvers), and Sat answers are validated by model evaluation
          over the original terms plus counterexample replay through the
          concrete routing simulator.  Results land in
          [Verify.Report.certificate]; verdicts are unchanged. *)
}

let default =
  {
    hoist_prefixes = true;
    slice_unused = true;
    merge_filters = true;
    merge_dataplane = true;
    max_failures = None;
    fail_internal_only = false;
    symmetry = false;
    preflight_lint = true;
    (* Production default: Glucose-style adaptive (EMA-of-LBD) restarts
       plus periodic rephasing.  [Smt.Solver.default_strategy] keeps
       the Luby cadence with rephasing off as the neutral library
       baseline so [bench solver]'s strategy grid can isolate each
       knob; on the large fat-tree encodings the adaptive mode roughly
       halves the conflict count of the same all-ToR query and
       rephasing shaves another ~20% (pods=10: 108 s vs 264 s under
       Luby — BENCH_scale.json), while on small instances the corners
       are within noise of each other. *)
    strategy =
      { Smt.Solver.default_strategy with
        Smt.Solver.restart_mode = Smt.Solver.Ema_lbd;
        rephase = true };
    certify = false;
  }

let naive = { default with hoist_prefixes = false; slice_unused = false; merge_filters = false; merge_dataplane = false }

let with_failures k t = { t with max_failures = Some k }
let with_symmetry t = { t with symmetry = true }
let with_strategy st t = { t with strategy = st }
let with_certify t = { t with certify = true }
