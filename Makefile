# Repo checks. `make check` is the tier-1 gate plus vet, command builds and
# a one-iteration pass over the scale and root figure benchmarks so they
# cannot rot.

GO ?= go

.PHONY: check vet build test race race-comm race-sim bench bench-figures bench-scale bench-build bench-compare benchmark benchmark-pair benchmark-smoke build-cmds check-figures check-sweep check-serve check-lint fuzz-smoke loc

check: vet check-lint race race-comm race-sim build-cmds check-figures check-sweep check-serve bench-build benchmark-smoke

# Figures gate: every deterministic table cmd/experiments prints (the
# registry entries marked Golden) is regenerated in one sweep batch at the
# default flags and must equal internal/experiments/testdata/figures/<name>.txt
# byte for byte, and EXPERIMENTS.md's "Paper figures" table must equal the
# one generated from the registry. After a deliberate change, rewrite both
# with `go test ./internal/experiments -run 'TestFiguresGolden|TestExperimentsTableFromRegistry' -update`.
# The kernels table also carries acceptance criteria, which fail the gate
# with experiments.ErrCriteria before any diff. Rabenseifner must strictly
# beat the tree allreduce in virtual time and wire volume on large vectors.
# And the distributed cholesky must factorize bitwise-equal to the serial
# reference under injected faults, with hierarchical broadcasts strictly
# cutting inter-node wire volume.
check-figures:
	$(GO) test -count=1 -run 'TestFiguresGolden|TestExperimentsTableFromRegistry' ./internal/experiments

# Lint gate: appfitlint (cmd/appfitlint, DESIGN.md §14) must pass clean over
# the module — range-over-map emission order, wall-clock/math-rand use in
# deterministic packages, `// guarded by <mu>` field access, %w sentinel
# wrapping at internal package boundaries, and exported internal/ code that
# only tests reach — and the script then seeds each of the five analyzers'
# own testdata back through the driver and requires a failure, so an
# analyzer that silently stopped firing cannot keep the gate green; it also
# requires unusedexport silent on its negative and waiver testdata.
check-lint:
	sh scripts/check_lint.sh

# Fuzz smoke: a short native-fuzz pass over each boundary parser — the
# sweep key encoder's canonicality invariants (stability, spelling
# collapse, sensitivity), the daemons' tenant-spec parser (no panic,
# named errors, only usable configs accepted) and appfitd's job-spec
# decoding (no panic, every rejection an ErrSpec, nothing out of bounds
# accepted), the vector collectives' counts/displacements (no panic; a
# named error and no task, or the serial reference) and Comm.Split (a named
# error and no context, or the reference partition) — and over Figure 2's
# recovery rule (no adopt without two agreeing survivors, no attempt past
# MaxAttempts, one detection at most) — and over the failure-log reader
# behind appfit -rates-log (no panic, every rejection a named error, every
# accepted log finite, non-negative rates) — and over the replica compare
# (two byte strings as each buffer kind: EqualTo is the element-wise
# bit-pattern reference, within and across kinds). 10 seconds each is a smoke
# budget — run with a longer -fuzztime for real exploration; failures
# minimize into the package's testdata/fuzz/.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzSweepKeyCanonical -fuzztime 10s ./internal/sweep
	$(GO) test -run '^$$' -fuzz FuzzParseTenants -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzJobSpec -fuzztime 10s ./internal/serve/httpapi
	$(GO) test -run '^$$' -fuzz FuzzVectorArgs -fuzztime 10s ./internal/dist
	$(GO) test -run '^$$' -fuzz FuzzSplit -fuzztime 10s ./internal/dist
	$(GO) test -run '^$$' -fuzz FuzzRecoveryRule -fuzztime 10s ./internal/vote
	$(GO) test -run '^$$' -fuzz FuzzFitFromLog -fuzztime 10s ./internal/fit
	$(GO) test -run '^$$' -fuzz FuzzEqualTo -fuzztime 10s ./internal/buffer

# Sweep gate: run a small replication sweep twice through one engine and
# require the second pass to be ≥90% cache hits with a bitwise-identical
# table (cmd/replicate -check-cache exits non-zero otherwise). This locks
# the engine's determinism end to end: key canonicalization, singleflight,
# LRU and result cloning all sit on this path.
check-sweep:
	$(GO) run ./cmd/replicate -bench cholesky -scale tiny -nodes 1,2,4 -rate 1e-3 -check-cache > /dev/null

# Service gate: boot appfitd on loopback, drive a 10×-skewed two-tenant
# closed loop through appfit-load, and require both tenants to complete
# work in proportion to their (equal) weights, a clean drain on SIGTERM
# and balanced admission accounting (the script and appfitd both exit
# non-zero otherwise).
check-serve:
	sh scripts/check_serve.sh

# The communicator-isolation gate, named explicitly so `make check` always
# runs it under -race even if the full race suite is trimmed: two Split
# groups plus a same-members alias communicator carrying identical tags at
# 64 ranks must never cross-match, and three collectives of different
# shapes under one tag on one placed communicator — whose hierarchical
# phases share its context and tokens — must each land where they belong
# (`race` runs both too; -count=1 defeats the test cache so this target
# always re-executes them).
race-comm:
	$(GO) test -race -count=1 -run 'TestCommContextIsolation64Ranks|TestMixedShapeSameTagCollectives' ./internal/dist

# The pooled-scratch gate, named so `make check` always runs it under
# -race: one Layout reused back to back and from two goroutines at once,
# a prepared job's one Layout shared by concurrent sweep batches, and a
# batch against the serial runs. Every run takes its scratch from its
# Layout's pool, so a scratch shared between two runs at once is a race
# here even where the results agree (-count=1 defeats the test cache).
race-sim:
	$(GO) test -race -count=1 -run 'TestLayoutReuseMatchesFreshRun|TestPreparedLayoutSharedAcrossBatches|TestRunBatchMatchesSerial' ./internal/cluster ./internal/sweep

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Full benchmark pass: the paper-figure benches at the repo root, then the
# scale suite, whose results are recorded as the BENCH_scale.json baseline —
# the repo's perf trajectory, one data point per PR that touches a hot path.
bench: bench-figures bench-scale

bench-figures:
	$(GO) test -bench=. -benchmem -run=^$$ .

bench-scale:
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=0.5s ./internal/bench/scale \
		| $(GO) run ./cmd/benchjson -suite scale -out BENCH_scale.json

# Run every scale benchmark and every root figure benchmark (bench_test.go,
# `make bench-figures`) exactly once: compiles them and executes one
# iteration (about a second for the root ones), catching drift that `go vet`
# and unit tests cannot see.
bench-build:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./internal/bench/scale .

# Regression guard: rerun the scale suite into a fresh JSON and fail if any
# gated metric regressed against the committed BENCH_scale.json baseline —
# 25% on ns/op (wall-time noise margin), 1% on vus/op (virtual makespans
# are deterministic; any drift is a real routing/search change), 10% on
# allocs/op and 15% on B/op (deterministic to a few percent wherever buffers
# are pooled or sized once; benchjson's -gates default).
# Run on hardware comparable to the baseline's recorded cpu: field — the
# ns/op threshold absorbs noise, not machine changes.
bench-compare:
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=0.5s ./internal/bench/scale \
		| $(GO) run ./cmd/benchjson -suite scale -out /tmp/BENCH_scale.new.json
	$(GO) run ./cmd/benchjson -compare BENCH_scale.json /tmp/BENCH_scale.new.json

# The end-to-end benchmark exactly as the pipeline runs it (BENCHMARK.json,
# benchmark/README.md), one workload at a time:
#
#	make benchmark W=serve-hit
benchmark:
	sh benchmark/run.sh --workload $(W) --seed 1 --seconds 15 --trace 0

# Interleaved A/B pairs of one workload — REF (the parent, default HEAD)
# against the working tree, the first side alternating — with per-metric
# medians, quartiles, the median ratio and the win count: how a perf claim
# is measured (scripts/bench_pair.sh). Pick a SEED not used while writing
# the change; S is each run's seconds. GATE=1 first compares one traced
# run per side and fails, naming each, if any exact (`=`) counter drifted.
#
#	make benchmark-pair REF=HEAD W=figures N=10 SEED=23 GATE=1
REF ?= HEAD
N ?= 10
SEED ?= 1
S ?= 15
GATE ?=
benchmark-pair:
	sh scripts/bench_pair.sh $(if $(filter 1,$(GATE)),-gate) $(REF) $(W) $(N) $(SEED) $(S)

# The end-to-end benchmark's smoke, named so `make check` shows it: every
# workload at -quick sizes in-process, every answer checked
# (benchmark/main_test.go; -count=1 defeats the test cache).
benchmark-smoke:
	$(GO) test -count=1 -run TestQuickSmoke ./benchmark

# Code-line ledger: non-test .go lines that are neither blank nor //-only,
# per package and in total — the unit the size claims in ROADMAP.md and
# CHANGES.md are made in.
loc:
	sh scripts/loc.sh

# Compile and link every command entry point.
build-cmds:
	$(GO) build -o /dev/null ./cmd/...
