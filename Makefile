GO ?= go
BIN := $(CURDIR)/bin

.PHONY: build test lint lint-self fuzz-smoke stream-smoke server-smoke sanitize bench bench-check bench-cache bench-server clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint builds the engine-invariant analyzer suite (internal/analysis) and
# runs it over the whole module through the standard vet driver, then
# runs plain go vet (-vettool replaces vet's own analyzers, so without it
# copylocks, which flags a copied atomic.Int64, would not run) and checks
# formatting. The analyzers: streamclose, unsafealias, and the
# interprocedural dataflow checks lockorder, resbalance, ctxflow (over the
# shared CFG/summary IR in internal/analysis/cfg and flow), plus the
# nolintaudit suppression audit. Each caught a seeded defect that tier-1,
# make sanitize and -race missed (DESIGN.md §9).
lint:
	$(GO) build -o $(BIN)/gofusionlint ./cmd/gofusionlint
	$(GO) vet -vettool=$(BIN)/gofusionlint ./...
	$(GO) vet ./...
	@out="$$(gofmt -l ./cmd ./internal)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# lint-self tests the analyzers themselves: CFG golden dumps and the
# randomized structural self-check, the fixpoint driver, every analyzer's
# analysistest golden suite, and the check that every lockorder.Ranks key
# names a mutex the code still has, under the race detector.
lint-self:
	$(GO) test -race ./internal/analysis/...

# sanitize reruns the memory-layer unit tests, the operator tests (the
# partial aggregate's early release at its pass-through switch, a cancel
# mid-pass-through, an abandoned exchange output, every spill path) and
# the differential SQL fuzzer with the checked allocator (canaries,
# double-release and leak detection) swapped in via the `sanitize` build
# tag.
sanitize:
	$(GO) test -tags sanitize ./internal/memory/ ./internal/exec/ ./internal/fuzzsql/

fuzz-smoke:
	$(GO) run ./cmd/fuzzsql -seed 7 -n 120 -q

# stream-smoke exercises the streaming surface under the race detector:
# the differential replay harness (fixed seed, ingestion interleaved
# with probes and a 300-query corpus across mem/gpq/stream backends),
# the churn soak (ingest -> query -> cancel cycles; fails on leaked
# goroutines, reservations, or spill files), and the core streaming
# end-to-end pack (breakers, watermarks, streaming joins, tailing,
# cache invalidation under writes, re-registration of a grown directory
# or a rewritten file). CI also runs all three under the sanitize tag.
stream-smoke:
	$(GO) test -race -run 'TestReplay|TestChurn' ./internal/fuzzsql/
	$(GO) test -race -run 'TestStreaming|TestWatermark|TestTailing|TestCopyInto|TestInsert|TestResultCacheInvalidation|TestPageCacheInvalidation|TestRegisterGPQ' ./internal/core/

# server-smoke exercises the multi-tenant service layer under the race
# detector: admission-control units, the HTTP surface, the concurrency
# soak (mixed read/ingest/cancel; fails on leaked goroutines,
# reservations, or spill files), and the 8-client differential load
# harness — zero sheds with an ample queue, all-shed under saturation,
# and zero result divergences against the serial baseline. CI also runs
# the pack under the sanitize tag.
server-smoke:
	$(GO) test -race ./internal/server/
	$(GO) test -race -run 'TestLoad' ./internal/serverload/

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench-check vets and tests the repository benchmark (BENCHMARK.json,
# benchmark/). It is a nested module with `replace gofusion => ../`, so
# `go build ./...` and `go test ./...` at the root never compile it: an
# exported engine type it names (exec.WindowExec, core.SessionConfig, ...)
# can be renamed without tier-1 noticing.
bench-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# bench-cache measures the shared decoded-page cache and result cache
# (cold vs warm vs nocache vs warmresult, plus the concurrent mixed
# workload); medians of 5 runs feed BENCH_cache.json.
bench-cache:
	$(GO) test -run '^$$' -bench BenchmarkSharedCache -benchtime 5x -count=5 .

# bench-server measures end-to-end service throughput and p50/p99 at
# 1/4/8 concurrent clients with the plan cache off/on; medians of 3
# runs feed BENCH_server.json.
bench-server:
	$(GO) test -run '^$$' -bench BenchmarkServerLoad -benchtime 200x -count=3 ./internal/serverload/

clean:
	rm -rf $(BIN)
