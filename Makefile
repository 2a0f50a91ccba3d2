GO ?= go

.PHONY: all build vet test race check bench bench-json bench-smoke contention-smoke fuzz-smoke chaos-smoke shard-smoke htap-smoke replica-smoke clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-check the concurrency-heavy packages (group commit, GC, version
# space, the snapshot announcement array, pressure controller, the network
# service layer, replication, node assembly, the sharded engine and its 2PC
# path, the lock-free hash table, and the WAL/wire hot paths) with -short to
# keep CI latency sane.
race:
	$(GO) test -race -short ./internal/core/... ./internal/txn/... ./internal/gc/... ./internal/mvcc/... ./internal/sts/... ./internal/sql/... ./internal/server/... ./internal/client/... ./internal/repl/... ./internal/node/... ./internal/wal/... ./internal/wire/... ./internal/netfault/... ./internal/chaos/... ./internal/shard/... ./internal/htap/...

check: vet build test race

bench:
	$(GO) test -bench=. -benchtime=1x -run '^$$' .

# Regenerate the benchmark baseline: the paper-figure suite plus the hot-path
# micro-benchmarks, written to BENCH_<date>.json (see cmd/benchjson).
bench-json:
	$(GO) run ./cmd/benchjson

# CI smoke: one iteration of every hot-path micro-benchmark and of the GC
# pass-cost benchmarks, so bench code cannot rot without failing the build.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkOLAPScan|BenchmarkHashGet|BenchmarkWireFrame|BenchmarkWALAppend|BenchmarkGroupCommit|BenchmarkShardedCommit|BenchmarkSnapshotAcquire|BenchmarkCommitParallel|BenchmarkIntervalPass|BenchmarkTableGCPass' -benchtime=1x . ./internal/mvcc ./internal/wire ./internal/wal ./internal/shard ./internal/htap ./internal/sts ./internal/txn ./internal/gc

# CI smoke: the multi-core hot-path benchmarks (one iteration, pinned to
# GOMAXPROCS=4 so the parallel paths actually interleave) plus the seqlock
# bound-invariant race-stress test — the contention machinery cannot rot
# without failing the build.
contention-smoke:
	GOMAXPROCS=4 $(GO) test -run '^$$' -bench 'BenchmarkSnapshotAcquire|BenchmarkCommitParallel' -benchtime=1x ./internal/sts ./internal/txn
	GOMAXPROCS=4 $(GO) test -race -short -run 'TestSnapshotSetAndBoundInvariantStress' ./internal/txn

# CI smoke: every stdlib fuzz target for 3 s each. The targets cover bytes
# decoded from disk or the network; they are found by name, so a new Fuzz*
# function runs here without editing this file.
fuzz-smoke:
	@set -e; for f in $$(grep -rl --include='*_test.go' --exclude-dir=perfbench --exclude-dir=.bench_build '^func Fuzz' .); do \
		for t in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
			echo "fuzz-smoke: $$t in $$(dirname $$f)"; \
			$(GO) test -run '^$$' -fuzz "^$$t\$$" -fuzztime 3s $$(dirname $$f); \
		done; \
	done

# CI smoke: the deterministic network-chaos harness over a small fixed seed
# set. Each seed runs the replicated cluster + bank workload under a seeded
# nemesis and checks all four invariants (conservation, durability,
# convergence, GC-horizon liveness); a failing seed prints how to reproduce.
chaos-smoke:
	$(GO) run ./cmd/chaos -seeds 1,2,3,4,5 -duration 1200ms

# CI smoke: TPC-C over loopback against `hybridgcd -shards 4` through the
# shard-aware client, ending in the full consistency check. Proves the
# sharded server path (HELLO shard map, pinned single-shard transactions,
# cross-shard 2PC) end to end.
shard-smoke:
	bash ./scripts/shard-smoke.sh

# CI smoke: mixed OLTP/OLAP over loopback against `hybridgcd -htap`. TPC-C
# workers drive the row store while OLAP analysts run column-lane aggregates
# through the wire AGGREGATE verb; the script asserts the migrator actually
# shipped rows into chunks during the run.
htap-smoke:
	bash ./scripts/htap-smoke.sh

# CI smoke: read scale-out over loopback — persistent primary, two streaming
# replicas, TPC-C with `-read-replicas`: pooled analysts split Session and
# bounded reads across the replicas while OLTP writes to the primary. The
# script asserts replicas actually served reads and that read-your-writes
# held on every acked row.
replica-smoke:
	bash ./scripts/replica-read-smoke.sh

clean:
	$(GO) clean ./...
