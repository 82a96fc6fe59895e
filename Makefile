# Developer entry points.  `make check` is the one-command gate: it must
# stay green before every commit (tier-1 verify + engine tests + dune-file
# formatting).

.PHONY: all build test fmt check check-deep chaos corpus stress bench bench-check bench-engine bench-atms bench-session bench-serve bench-obs bench-compile bench-store serve trace clean

all: build

build:
	dune build

test:
	dune runtest

# dune-file formatting check; OCaml sources are gated off in dune-project
# until an ocamlformat binary is part of the toolchain.
fmt:
	dune build @fmt

check: fmt build test
	@echo "check: build, tests and formatting are green"

# deep verification: differential oracles, random-circuit invariants and
# the golden snapshot corpus (lib/check); ITERS scales every budget
ITERS ?= 1000
check-deep: build
	dune exec bin/flames_cli.exe -- check --iters $(ITERS)

# chaos harness: seeded batches of random diagnoses with injected
# faults (exceptions, worker kills, singular systems, NaN, delays)
# through the full resilience stack; a failing case prints the seed
# that replays it (CHAOS_ITERS and CHAOS_SEED scale/pin the run)
CHAOS_ITERS ?= 25
CHAOS_SEED ?= 0
chaos: build
	dune exec bin/flames_cli.exe -- chaos --iters $(CHAOS_ITERS) --seed $(CHAOS_SEED)

# concurrency stress: the suites that exercise multicore contracts (the
# wide-event total order, single-flight schedule compiles) run standalone
# STRESS_RUNS times each; the first failure stops the loop and prints
# that run's log
STRESS_RUNS ?= 20
stress: build
	@cd _build/default/test && for i in $$(seq $(STRESS_RUNS)); do \
	  for t in test_obs test_engine; do \
	    ./$$t.exe > stress.log 2>&1 || { cat stress.log; \
	      echo "stress: $$t failed on run $$i"; exit 1; }; \
	  done; \
	done; echo "stress: $(STRESS_RUNS) standalone runs of test_obs and test_engine green"

# re-render the golden corpus after an intentional behaviour change
corpus: build
	dune exec bin/flames_cli.exe -- check --iters 1 --no-corpus --write-corpus

# full harness: paper tables, bechamel timings and every BENCH series
bench: build
	dune exec bench/main.exe

# One BENCH_<series>.json each, through the shared harness in
# bench/harness (monotonic clock, median + IQR, ABBA pairs, host record,
# one row schema); append --smoke to the command for the reduced atms
# and compile variants CI runs.
#   engine:  batch-engine throughput of the A2 amplifier chains at 1/2/4
#            workers, cold and warm schedule cache
#   atms:    naive vs interned-bitset ATMS label, nogood and hitting-set
#            paths (hitting-chain skips past n=20)
#   session: incremental troubleshooting sessions vs per-step cold
#            rebuilds over the corpus scenarios
#   obs:     wide events + digests on vs off over the fig-7 diagnosis,
#            ABBA pairs (gate: overhead < 3%)
#   compile: compiled schedules vs the reference interpreter on fig 7
#            and the amplifier chains (claim: fig-7 median warm ~5x;
#            gate: >= 3x)
#   store:   journal append overhead per fsync mode, ABBA pairs, and
#            recovery time vs journal length (claim: interval <= 5%;
#            gate: < 15%)
bench-engine bench-atms bench-session bench-obs bench-compile bench-store: build
	dune exec bench/main.exe -- $(@:bench-%=%)

# every committed BENCH file against the checker's schema and gates
bench-check: build
	dune exec bench/main.exe -- --check BENCH_*.json

# run the diagnosis service on the default port (SERVE_ARGS appends
# e.g. --port 9000 --quota-rate 5)
serve: build
	dune exec bin/flames_cli.exe -- serve $(SERVE_ARGS)

# saturation sweep against an in-process server on an ephemeral port:
# seeded clients, exact latency percentiles, writes BENCH_serve.json in
# the harness's row schema
SERVE_SEED ?= 42
SERVE_DURATION ?= 5
SERVE_LEVELS ?= 1,2,4,8,16
bench-serve: build
	dune exec bin/flames_load.exe -- --spawn --workers 1 --max-inflight 4 \
	  --seed $(SERVE_SEED) --duration $(SERVE_DURATION) \
	  --levels $(SERVE_LEVELS) --json BENCH_serve.json

# traced fig-7 sweep: writes trace.json (open in ui.perfetto.dev) and
# dumps the metrics registry on stderr
trace: build
	dune exec bin/flames_cli.exe -- obs-demo --trace trace.json --metrics

clean:
	dune clean
