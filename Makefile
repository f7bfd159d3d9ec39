# Convenience targets; `make check` is the full local gate: build,
# test suite, a lint pass over every example configuration, the
# batch-verification smoke benchmark (one incremental session must
# beat N fresh solvers with identical verdicts), the solver smoke
# benchmark (all four corners of the restart-mode/rephasing strategy
# grid must give identical verdicts), and the certification smoke
# benchmark (every verdict of the enterprise and fattree suites must
# carry a positive certificate — UNSAT proofs
# replayed through the independent checker, SAT models evaluated and
# simulated — with zero Uncertified verdicts and verdict agreement
# against the uncertified pass), and the symmetry-scale smoke
# benchmark (the quotient encoding must agree with the full encoding
# on every fat-tree point both modes ran — as must Ema_lbd vs Luby
# restarts and the clause-sharing portfolio vs the sharing-off race —
# with the speedup gated above a noise floor only where symmetry
# classes actually collapse devices; clause sharing must demonstrably
# fire on the full encoding, the winner importing at least one
# clause; full-mode points past the wall-clock budget are skipped
# with an explicit label), and the arena smoke benchmark (the
# SAT core's steady-state propagation loop must allocate ~0 minor
# words per propagation, a fresh solver and an incremental session
# must agree on the hardest query, and the arena-compaction path must
# actually run under reduction stress),
# and the serve smoke benchmark (the delta daemon absorbing config
# churn via core-disjoint verdict replay must agree with cold full
# re-verification on every step, show non-zero replay and cache-hit
# counters, and be at least 2x faster than the cold path when the
# diff touches <= 20% of the devices), and the fault smoke benchmark
# (the hybrid graph-min-cut/SMT race must agree with the two-copy SMT
# encoding alone on every <=k-failure query of both generators, the
# graph fast path must decide at least one query, and the hybrid must
# be at least 2x faster than SMT on the graph-decided subset above a
# noise floor).

.PHONY: all build test lint fuzz coverage bench-smoke bench-solver-smoke certify-smoke bench-scale-smoke bench-arena-smoke bench-serve-smoke bench-fault-smoke check clean

all: build

build:
	dune build

test: build
	dune runtest

lint: build
	@for f in examples/configs/*.cfg; do \
	  echo "lint $$f"; \
	  dune exec bin/minesweeper_cli.exe -- lint $$f || exit 1; \
	done

# Long-budget differential fuzzing: QCheck mutations of generated
# enterprise/fattree configurations, verified with --certify and
# cross-checked against the concrete simulator, plus the certified
# audit of the whole 152-network fleet (every verdict replays and
# matches its injection label), the serve daemon's churn
# differential (random diff sequences, every answer against a cold
# session), the rebuild oracle (Encode.rebuild against a build, term
# for term, across churn steps), the print/parse round trip of
# mutated networks and the SAT core's chronological-backtracking
# property (random 3-CNF; models, cores and proof traces checked).
# `dune runtest` runs the same properties with small bounded samples;
# this raises them.
fuzz: build
	MS_FUZZ_COUNT=$${MS_FUZZ_COUNT:-60} MS_FUZZ_FLEET=$${MS_FUZZ_FLEET:-152} dune exec test/test_fuzz.exe
	MS_FUZZ_COUNT=$${MS_FUZZ_COUNT:-60} dune exec test/test_serve.exe
	MS_FUZZ_COUNT=$${MS_FUZZ_COUNT:-60} dune exec test/test_encode.exe
	MS_FUZZ_COUNT=$${MS_FUZZ_COUNT:-60} dune exec test/test_config.exe
	MS_FUZZ_COUNT=$${MS_FUZZ_COUNT:-60} dune exec test/test_sat.exe

# Line/branch coverage of the test suite via bisect_ppx.  The library
# stanzas carry `(instrumentation (backend bisect_ppx))`, which is
# inert unless dune is invoked with --instrument-with, so the target
# degrades honestly to a skip message on containers without the
# package installed (this repo's CI image does not ship it).
coverage:
	@if ocamlfind query bisect_ppx >/dev/null 2>&1; then \
	  mkdir -p _coverage && rm -f _coverage/*.coverage; \
	  BISECT_FILE=$$(pwd)/_coverage/bisect dune runtest --instrument-with bisect_ppx --force && \
	  bisect-ppx-report html --coverage-path _coverage && \
	  bisect-ppx-report summary --coverage-path _coverage; \
	else \
	  echo "coverage: bisect_ppx is not installed; skipping (the dune"; \
	  echo "instrumentation stanzas are inert without --instrument-with,"; \
	  echo "so no build configuration changes are needed to enable it"; \
	  echo "later: opam install bisect_ppx, then re-run make coverage)"; \
	fi

bench-smoke: build
	dune exec bench/main.exe -- batch --smoke

bench-solver-smoke: build
	dune exec bench/main.exe -- solver --smoke

certify-smoke: build
	dune exec bench/main.exe -- certify --smoke

bench-scale-smoke: build
	dune exec bench/main.exe -- scale --smoke

bench-arena-smoke: build
	dune exec bench/main.exe -- arena --smoke

bench-serve-smoke: build
	dune exec bench/main.exe -- serve --smoke

bench-fault-smoke: build
	dune exec bench/main.exe -- fault --smoke

check: build test lint bench-smoke bench-solver-smoke certify-smoke bench-scale-smoke bench-arena-smoke bench-serve-smoke bench-fault-smoke

clean:
	dune clean
