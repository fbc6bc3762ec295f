# Verification targets. `make ci` is the full gate: lint (vet + strict
# gofmt), build, the whole test suite under the race detector, the
# randomized fault soak, the distributed-sweep chaos campaign, the fuzz
# seed corpora (in regression mode), the golden-file checks, and the
# benchmark module's vet and pinned-digest check.

GO ?= go

.PHONY: all build vet lint test race soak chaos fuzz-regression fuzz bench benchdiff golden-update perfbench-check ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Lint is vet plus strict formatting: any file gofmt would rewrite fails
# the gate, so formatting drift never reaches review.
lint: vet
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt -l flagged:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# The tier-1 suite under the race detector. The parallel experiment sweeps
# and the forEachIndex tests exercise real goroutine concurrency, so -race
# is load-bearing here, not ceremonial.
race:
	$(GO) test -race ./...

# Randomized fault soak: the acceptance campaign (1e-4 fault rates over a
# million-record audited run of each migration design) plus the span
# reconciliation's dense ladder campaign, which climbs to the upper rungs
# (rollback, retirement, degraded mode) and checks that every landed copy
# is counted, traced and metered once. Both draw a fresh PRNG seed each
# invocation. Set SOAK_SEED / SOAK_RECORDS to reproduce a run.
SOAK_SEED ?= $(shell date +%s)
soak:
	SOAK_SEED=$(SOAK_SEED) $(GO) test -run 'TestFaultSoak|TestSpanTraceReconcilesFaultLedger' -count=1 -v .

# Distributed-sweep chaos campaign: worker processes are SIGKILLed mid-cell
# on a seeded schedule; the sweep must still finish with per-cell results
# byte-identical to an uninterrupted run, and the structured journal (kept
# at CHAOS_JOURNAL for post-mortem: hmreport -fleet $(CHAOS_JOURNAL)) must
# tell the true story of every kill. A fresh PRNG seed each invocation
# randomizes the kill timing; set CHAOS_SEED to reproduce a run.
CHAOS_SEED ?= $(shell date +%s)
# go test runs with the package dir as cwd, so anchor the journal path.
CHAOS_JOURNAL ?= $(CURDIR)/chaos.journal
chaos:
	CHAOS_SEED=$(CHAOS_SEED) CHAOS_JOURNAL=$(CHAOS_JOURNAL) $(GO) test -run TestChaosKillAndTakeover -count=1 -v ./internal/dsweep/

# Run the committed fuzz seed corpora (testdata/fuzz/...) as regression
# tests. This is what `go test` already does for fuzz targets without
# -fuzz; the explicit target documents and isolates it. It selects every
# fuzz target in the module by name, so a new one is never left out.
fuzz-regression:
	$(GO) test -run '^Fuzz' ./...

# Active fuzzing (not part of ci; run locally when touching the parsers).
# It asks every package for its fuzz targets and fuzzes each in turn (go
# test -fuzz takes one target per run), so a new one is never left out.
# -run limits the tests run before fuzzing to the target's own seed corpus.
FUZZTIME ?= 30s
fuzz:
	@set -ef; pkgs=$$($(GO) list ./...); for pkg in $$pkgs; do \
		names=$$($(GO) test -list '^Fuzz' $$pkg); \
		for name in $$names; do case $$name in Fuzz*) \
			echo "$(GO) test $$pkg -run '^$$name\$$' -fuzz '^$$name\$$' -fuzztime $(FUZZTIME)"; \
			$(GO) test $$pkg -run "^$$name\$$" -fuzz "^$$name\$$" -fuzztime $(FUZZTIME);; \
		esac; done; \
	done

# Benchmarks: the raw text is benchstat input, the JSON is the archived
# machine-readable form. Both default to untracked BENCH_local names, so a
# run never overwrites an archived BENCH_pr*.json; pass BENCH_TXT and
# BENCH_JSON to archive one. Compare the TemporalObservabilityOff/On pair
# to bound the tracing overhead, the CheckpointOff/On pair to bound the
# checkpoint serialization overhead, and the AccessPathScheme variants
# against the AccessPath designs to bound what each capacity scheme's
# bookkeeping costs per record.
BENCH_TXT ?= BENCH_local.txt
BENCH_JSON ?= BENCH_local.json
BENCH_COUNT ?= 5
bench:
	$(GO) test -bench . -benchmem -count $(BENCH_COUNT) -run '^$$' . | tee $(BENCH_TXT)
	$(GO) run ./tools/bench2json -o $(BENCH_JSON) < $(BENCH_TXT)

# Regression gate between two archived benchmark runs: fails if NEW is
# slower than OLD past the threshold (default 10%, with an absolute ns/op
# jitter floor) or allocates more. -count'ed archives are folded to each
# benchmark's best sample, so the gate compares code, not host load.
#   make benchdiff OLD=BENCH_pr9.json NEW=BENCH_pr10.json
OLD ?= BENCH_pr9.json
NEW ?= BENCH_pr10.json
benchdiff:
	$(GO) run ./tools/benchdiff $(OLD) $(NEW)

# The benchmark (perfbench/) is a Go module of its own, so `go build ./...`
# never compiles it. Vet it and replay its pinned seed-1 digests, which
# also catches API changes in the packages it imports.
perfbench-check:
	cd perfbench && $(GO) vet . && $(GO) test -count=1 -run TestPinnedDigests .

# Rewrite the golden files after an intended output change.
golden-update:
	$(GO) test ./cmd/hmreport/ -update
	$(GO) test ./internal/workload/ -run TestGeneratorGolden -update

ci: lint build race soak chaos fuzz-regression perfbench-check
