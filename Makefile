GO ?= go

.PHONY: build test vet race verify parallel-diff snapshot-diff portfolio-diff delta-diff optimize-diff scale-diff formula-size fuzz-smoke alloc-budget serve-smoke perf-gate bench bench-smoke bench-diff clean

# BENCH is the JSON file the bench target writes and bench-diff compares
# against; point it at the next PR's file when cutting a new baseline.
BENCH ?= BENCH_PR13.json

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# bench-smoke compiles and runs one benchmark iteration so the bench
# suite can't bit-rot between full runs.
bench-smoke:
	$(GO) test -run=NONE -bench=BenchmarkCompile -benchtime=1x .

# PERF_SET runs the warm-path benchmarks perf-gate checks, five times
# each with allocation stats, appending to the file named by $(1). The
# sub-benchmark filter cannot also match the subtest-free
# BenchmarkServeWarmLoad, so it runs as a second invocation; the 50k-SKU
# slice computation and hardware-index build live in internal/core and
# run as a third.
PERF_SET = $(GO) test -run=NONE -bench='^(BenchmarkRepeatedQueries|BenchmarkSynthScaling|BenchmarkColdStart)$$/^(warm|catalog=100%|disk-warm)$$' -benchmem -count=5 . >> $(1) && \
	$(GO) test -run=NONE -bench='^BenchmarkServeWarmLoad$$' -benchmem -count=5 . >> $(1) && \
	$(GO) test -run=NONE -bench='^(BenchmarkSliceCompute|BenchmarkHWIndexBuild)$$' -benchmem -count=5 ./internal/core >> $(1)

# bench runs the full root benchmark suite with allocation stats, plus
# the perf-gate set five more times (so its baseline rows are best-of-N
# like the gate's runs), and renders the results to $(BENCH) (name ->
# ns/op, B/op, allocs/op) via the stdlib-only parser in cmd/benchjson.
# Commit the JSON to track the perf trajectory.
bench:
	$(GO) test -run=NONE -bench=. -benchmem -count=1 . | tee /tmp/netarch-bench.txt
	$(call PERF_SET,/tmp/netarch-bench.txt)
	$(GO) run ./cmd/benchjson < /tmp/netarch-bench.txt > $(BENCH)

# perf-gate runs the warm-path set (RepeatedQueries/warm,
# SynthScaling/catalog=100%, ColdStart/disk-warm, ServeWarmLoad,
# SliceCompute/skus=50000, HWIndexBuild) with
# -count=5 -benchmem and fails when best-of-5 B/op or allocs/op exceed
# the newest committed BENCH_*.json by more than 10%. ns/op is printed
# best-of-5 but not gated: wall-clock time is too noisy to gate.
perf-gate:
	rm -f /tmp/netarch-perf-gate.txt
	$(call PERF_SET,/tmp/netarch-perf-gate.txt)
	$(GO) run ./cmd/benchjson -gate "$$(ls BENCH_PR*.json | sort -V | tail -1)" < /tmp/netarch-perf-gate.txt

# bench-diff runs the bench suite and prints per-benchmark deltas against
# the newest committed BENCH_*.json instead of writing a new file — the
# quick "did my change move the needle" loop between baseline cuts.
bench-diff:
	$(GO) test -run=NONE -bench=. -benchmem -count=1 . | tee /tmp/netarch-bench.txt
	$(GO) run ./cmd/benchjson -diff "$$(ls BENCH_PR*.json | sort -V | tail -1)" < /tmp/netarch-bench.txt

# alloc-budget pins the hot-path allocation budgets (zero-alloc
# propagate, bounded warm cache-hit queries) so allocation regressions
# fail the gate even though `test` also covers them.
alloc-budget:
	$(GO) test -run='TestPropagateAllocFree|TestWarmQueryAllocBudget' -count=1 ./internal/sat ./internal/core

# parallel-diff pins the parallel-vs-sequential differentials (the
# DESIGN.md §8 enumeration determinism contract and the §11 sharded
# compile byte-identity, both over the §5.1 queries) so the gate names
# them even though `test` also covers them.
parallel-diff:
	$(GO) test -run='TestEnumerateParallel|TestEnumerateWorkerCountInvariance|TestParallelCompileByteIdentity' -count=1 . ./internal/core

# snapshot-diff pins the disk-cache round-trip differential (the
# DESIGN.md §9 restore-equivalence contract): a solver revived from
# bytes answers identically to its in-process Clone, and an engine
# revived from a cache directory answers the §5.1 queries identically
# to the warm in-process path.
snapshot-diff:
	$(GO) test -run='TestSnapshotRestoreSolvesIdentically|TestDiskCacheDifferential|TestDiskWarmSkipsCompile' -count=1 ./internal/sat ./internal/core

# portfolio-diff pins the portfolio determinism contract under the race
# detector: sat-layer worker invariance (Status/Winner/Model identical at
# 1/2/4/8 workers), the facade-level §5.1 differential (verdicts, designs
# and explanations independent of SetPortfolio width), and the clause
# ring's concurrent-safety hammer.
portfolio-diff:
	$(GO) test -race -run='TestRacePortfolioWorkerInvariance|TestShareConcurrentHammer|TestPortfolioSharesClauses' -count=1 ./internal/sat
	$(GO) test -race -run='TestPortfolioWorkerInvariance|TestWarmStartRoundTrip' -count=1 .

# serve-smoke boots the query service on a random port, runs one query
# per mode, hits /healthz and /statsz, injects one fault, SIGTERMs the
# process, and asserts a clean drain — the full serve lifecycle under the
# race detector (see internal/serve TestServeSmoke).
serve-smoke:
	$(GO) test -race -run='TestServeSmoke' -count=1 ./internal/serve

# delta-diff pins the incremental-compilation byte-identity contract
# (DESIGN.md §14): a delta recompile (shard diff + arena splice) of an
# add/remove/edit must produce solver state byte-identical to a
# from-scratch compile at 1/2/8 workers, at both the logic layer
# (ConvertShardsDelta vs ConvertShards) and the engine layer (UpdateKB
# vs cold compile), plus the live-reload staleness ordering.
delta-diff:
	$(GO) test -run='TestConvertShardsDelta|TestUpdateKBByteIdentity|TestKBMutationStalenessOrdering' -count=1 ./internal/logic ./internal/core
	$(GO) test -race -run='TestUpdateKBConcurrentQueries|TestServeReloadUnderLoad' -count=1 ./internal/core ./internal/serve

# optimize-diff pins the MaxSAT optimality differential (DESIGN.md §15):
# lexicographic optima and Pareto frontiers must equal the brute-force
# enumeration oracle's, for both descent strategies, at 1/2/8 workers,
# warm and cold — plus the metamorphic invariants (cost scaling and
# translation, dominated-SKU insertion, bound tightening).
optimize-diff:
	$(GO) test -run='TestOptimizeDifferential|TestParetoDifferential|TestMetamorphic' -count=1 ./internal/core

# scale-diff pins the relevance-slicing soundness gate (DESIGN.md §16):
# on a 5k-SKU scaled catalog, every verdict, lexicographic optimum,
# Pareto frontier, design and explanation from the cone-of-influence
# slice must match the full encoding — over the §5.1 suite plus seeded
# randomized scenarios, at 1/2/8 workers, warm and cold — together with
# the slice edge cases, the dominance-pruning reference differential
# (hardware index and skyline memo vs brute force; its concurrent part
# again under the race detector) and the 50k-SKU catalog generation
# smoke.
scale-diff:
	$(GO) test -run='TestScaleDifferential|TestSlice|TestPruneHardwareMatchesReference' -count=1 ./internal/core
	$(GO) test -race -run='TestPruneHardwareMatchesReference/concurrent' -count=1 ./internal/core
	$(GO) test -run='TestCatalogScale' -count=1 ./internal/extract

# fuzz-smoke runs the snapshot decoders' fuzz targets briefly so the
# untrusted-bytes contract (typed errors, no panics, no OOM) is
# exercised on every gate, not only in dedicated fuzz sessions, plus the
# MaxSAT bounds fuzzer (random weighted objectives must yield exact,
# witnessed, unbeatable optima) and the HTTP query boundary (every /v1
# body answers 200, 400 or 504 with a well-formed body, never a 500).
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzRestoreSnapshot -fuzztime=10s ./internal/sat
	$(GO) test -run=NONE -fuzz=FuzzDecodeBase -fuzztime=10s ./internal/core
	$(GO) test -run=NONE -fuzz=FuzzMaxSATBounds -fuzztime=10s ./internal/core
	$(GO) test -run=NONE -fuzz=FuzzQueryRequest -fuzztime=10s ./internal/serve

# formula-size pins the vars/clauses of representative compiled bases
# (the §5.1 seed shapes, a cost-capped shape, a 5k-SKU slice), so an
# encoding change that grows every base fails by name.
formula-size:
	$(GO) test -run='TestFormulaSizeGolden' -count=1 ./internal/core

# verify is the full pre-merge gate: tier-1 (build + test) plus static
# analysis, the race detector over every package, the enumeration,
# snapshot, optimality and relevance-slicing differentials, the formula-
# size golden, the hot-path allocation budgets, the serve lifecycle
# smoke, a fuzz smoke over the snapshot decoders and the MaxSAT bounds,
# a benchmark smoke run, and the warm-path allocation gate.
verify: build vet test race parallel-diff snapshot-diff portfolio-diff delta-diff optimize-diff scale-diff formula-size alloc-budget serve-smoke fuzz-smoke bench-smoke perf-gate

clean:
	$(GO) clean ./...
