PY      ?= python
PYTEST  = PYTHONPATH=src $(PY) -m pytest

.PHONY: test protocol overlap bench bench-smoke bench-check bench-ab fingerprint \
        fingerprint-check verify verify-telemetry lint verify-sanitizer verify-faults \
        verify-sharding verify-hotpath verify-service verify-flow verify-hmc examples

## tier-1: the full unit/integration/property suite
test:
	$(PYTEST) -x -q

## serial-link protocol regressions at word_batch=1 (window, idle
## receive, go-back-N under fault injection)
protocol:
	$(PYTEST) -m protocol -q

## bit-exactness of the overlapped two-phase Dirac pipeline
overlap:
	$(PYTEST) tests/test_overlap_bitexact.py -q

## paper-claim benchmarks (E1..E15)
bench:
	$(PYTEST) benchmarks -q

## quick dslash timing smoke: half-spinor comms vs the full-spinor seed
## path + memoised vs rebuilt gather tables; writes BENCH_dslash.json,
## then the E18 dynamical-HMC chaos run (fault/remap/resume), which
## writes BENCH_hmc.json
bench-smoke:
	$(PYTEST) benchmarks/bench_dslash_smoke.py -m perf -q -s
	$(PYTEST) benchmarks/bench_e18_dynamical_hmc.py -m perf -q -s

## the repo's benchmark (BENCHMARK.json, bench/): every workload twice
## with its oracle and the exact figures compared, then bench/'s own tests
bench-check:
	python3 bench/run.py --check-repeat
	$(PYTEST) bench/tests -q

## a speed claim's ten alternating pairs as one command: W's bench/run.py
## run with seeds 1..N in a git worktree of BASE (under $$TMPDIR, else
## /tmp; removed afterwards) and in the working tree, alternating which
## goes first; prints each pair's wall_s, setup_s and peak_rss_mb and the
## median here/base ratios, and writes nothing under bench/.  EXACT=1
## instead compares one seed-1 pass's exact figures: those that differ,
## the count of equal ones, each side's failed oracle checks.  ENTRIES=1
## instead tallies one seed-1 repeat's heap entries by callback in each
## tree (each side's total checked against its sim.events) and prints
## base, here and the difference per callback.  CALLS=1 instead counts
## one warm seed-1 repeat's Python calls by src/repro file and C calls by
## function in each tree and prints base, here and the difference
W    ?= dslash-hot
N    ?= 10
BASE ?= HEAD
EXACT ?=
ENTRIES ?=
CALLS ?=
bench-ab:
	$(PY) benchmarks/ab.py --workload $(W) --pairs $(N) --base $(BASE) \
		$(if $(filter 1,$(EXACT)),--exact) $(if $(filter 1,$(ENTRIES)),--entries) \
		$(if $(filter 1,$(CALLS)),--calls)

## two sha256 per case — results, then timeline — of a fixed matrix of
## machine runs (3 operators x 1d/2d x word_batch face/1 x shards 1/2,
## plus one solve per operator)
fingerprint:
	@PYTHONPATH=src $(PY) benchmarks/fingerprint.py

## "same numbers to the bit": the digests against the committed
## benchmarks/fingerprint.txt.  A change that means to move a result,
## a counter, a trace record or the simulated clock regenerates the file
## (`make fingerprint > benchmarks/fingerprint.txt`) and says why — and
## which column moved: one that only re-times the machine leaves the
## results column equal to its parent's.
fingerprint-check:
	@PYTHONPATH=src $(PY) benchmarks/fingerprint.py | diff - benchmarks/fingerprint.txt
	@echo "fingerprint-check: digests equal benchmarks/fingerprint.txt"

## every script under examples/ end to end (about 12 s in all); fails on
## the first one that does not exit 0
examples:
	@for script in examples/*.py; do \
		echo "examples: $$script"; \
		PYTHONPATH=src $(PY) $$script > /dev/null || exit 1; \
	done

## telemetry invariants: counter conservation, trace-schema registry,
## fault-injection accounting, measured-vs-model crosscheck
verify-telemetry:
	$(PYTEST) -m telemetry -q

## reprolint (the in-tree simulator-aware linter): every rule over src/,
## one project parsed once, plus API-hygiene-only scans of tests/ and
## benchmarks/ (fixture code there would trip the simulator-semantics
## rules on purpose).  ruff and mypy run when installed (skipped
## gracefully — the container does not bake them in).
lint:
	PYTHONPATH=src $(PY) -m repro.analysis src
	PYTHONPATH=src $(PY) -m repro.analysis tests --hygiene --no-allowlist
	PYTHONPATH=src $(PY) -m repro.analysis benchmarks --hygiene --no-allowlist
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "lint: ruff not installed, skipping"; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy src/repro/analysis src/repro/telemetry src/repro/service src/repro/sim; \
	else \
		echo "lint: mypy not installed, skipping"; \
	fi

## SCU link protocol: a bounded enumeration of the production send/receive
## units of a two-node machine (DESIGN.md section 14), each failing run
## printed as the Case that replays it.  (The other non-pytest gate, reprolint
## over src/, runs once, in `lint`; both suites,
## tests/test_flow_analysis.py and tests/test_protocol_verifier.py, are
## part of tier-1.)
verify-flow:
	PYTHONPATH=src $(PY) -m repro.analysis --protocol

## halo-buffer race sanitizer: clean-pipeline run + seeded-race detection
verify-sanitizer:
	$(PYTEST) tests/test_race_sanitizer.py -q

## hard-fault tolerance: watchdog detection, partition abort, remap,
## bit-identical checkpoint resume (kill a cable / a node mid-CG)
verify-faults:
	$(PYTEST) -m faults -q

## sharded event engine: shards=1 vs N bit-identity across all fermion
## actions, window-protocol edge cases, 64-node cross-shard conservation
verify-sharding:
	$(PYTEST) -m sharding -q

## hot path: face-batch/replay bit-identity (protocol equivalence,
## fault recovery, CG under shards) + the zero-allocation steady state
verify-hotpath:
	$(PYTEST) tests/test_replay_hotpath.py tests/test_hotpath_alloc.py -q

## machine-as-a-service: scheduler property suite, chaos campaigns,
## sub-torus remap unit tests, quarantine-atomicity regressions
verify-service:
	$(PYTEST) -m service -q

## distributed dynamical-fermion HMC: serial-vs-machine bit-identity,
## force-kernel crosscheck/sanitizer runs, checkpoint/rebind resume
verify-hmc:
	$(PYTEST) -m hmc -q

## what CI gates a merge on: tier-1 (which contains the overlap,
## sanitizer, faults, sharding, hot-path, service and HMC suites — the
## per-suite targets above are conveniences, not extra gates) + static
## analysis, every reprolint rule (`lint`) + the protocol
## verifier (`verify-flow`) + bit-identity against the committed
## fingerprint + every example script (`examples`)
verify: test lint verify-flow fingerprint-check examples
	@echo "verify: tier-1 + lint + flow/protocol + fingerprint + examples green"
