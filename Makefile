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
# million-record audited run of each migration design) with a fresh PRNG
# seed each invocation. Set SOAK_SEED / SOAK_RECORDS to reproduce a run.
SOAK_SEED ?= $(shell date +%s)
soak:
	SOAK_SEED=$(SOAK_SEED) $(GO) test -run TestFaultSoak -count=1 -v .

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
# -fuzz; the explicit target documents and isolates it.
fuzz-regression:
	$(GO) test ./internal/trace/ -run 'Fuzz'
	$(GO) test ./internal/fault/ -run 'Fuzz'
	$(GO) test ./internal/snap/ -run 'Fuzz'
	$(GO) test ./internal/addr/ -run 'Fuzz'
	$(GO) test ./internal/scheme/ -run 'Fuzz'

# Active fuzzing (not part of ci; run locally when touching the parsers).
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/trace/ -fuzz FuzzTextReader -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace/ -fuzz FuzzReader -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace/ -fuzz FuzzPackedTrace -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fault/ -fuzz FuzzParseSchedule -fuzztime $(FUZZTIME)
	$(GO) test ./internal/snap/ -fuzz FuzzSnapshotRestore -fuzztime $(FUZZTIME)
	$(GO) test ./internal/addr/ -fuzz FuzzAddressMapping -fuzztime $(FUZZTIME)
	$(GO) test ./internal/scheme/ -fuzz FuzzSetCodec -fuzztime $(FUZZTIME)

# Benchmarks: the raw text is benchstat input, the JSON is the archived
# machine-readable form; both default to per-PR names so history is kept
# side by side. Compare the TemporalObservabilityOff/On pair to bound the
# tracing overhead, the CheckpointOff/On pair to bound the checkpoint
# serialization overhead, and the AccessPathScheme variants against the
# AccessPath designs to bound what each capacity scheme's bookkeeping
# costs per record.
BENCH_TXT ?= BENCH_pr10.txt
BENCH_JSON ?= BENCH_pr10.json
BENCH_COUNT ?= 3
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
