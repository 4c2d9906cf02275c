# Convenience targets for building, testing and regenerating the paper's
# evaluation. Everything is plain `go` underneath; see README.md.

GO ?= go

.PHONY: all build vet lint check-docs test obsoff race check-harness bench bench-smoke bench-json bench-json-merge bench-json-serve bench-json-cluster serve-smoke trace-smoke cluster-smoke replica-smoke figures examples clean

all: build lint test obsoff race check-harness check-docs bench-smoke serve-smoke trace-smoke cluster-smoke replica-smoke

build:
	$(GO) build ./...

# obsoff proves the observability layer compiles out cleanly: the whole
# module must build and its tests pass with every counter, histogram and
# flight-recorder call reduced to a no-op.
obsoff:
	$(GO) build -tags obsoff ./...
	$(GO) test -tags obsoff ./...

vet:
	$(GO) vet ./...

# lint fails on unformatted files, vet findings, or load-after-validate
# ordering bugs in the tree's optimistic read paths (scripts/checkorder,
# the PR 3 lesson — see DESIGN.md §10).
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./scripts/checkorder ./internal/core

# check-docs enforces doc comments on the public surface and keeps the
# DESIGN.md §9 counter table in sync with internal/obs.
check-docs:
	./scripts/check_docs.sh

test:
	$(GO) test ./...

# race runs the concurrency-sensitive packages under the race detector:
# the lock, the tree (including the live shape walker and the bound-query
# contract stress test), the parallel merge dispatch, the engine's
# parallel data-movement spine, the observability registries, the debug
# server that reads them while workers run, the network serving
# subsystem (phase scheduler, pipelined client, slow-client teardown),
# and the replication subsystem (leader-side streamers, follower apply
# loop, promotion). The tree, the engine that drives it with partitioned
# ascending runs, and the oracle additionally run at -cpu 1,2,4: a
# multi-writer bug (the inner-split sibling race hid for four PRs) must
# not be able to hide behind a 1-CPU runner.
race:
	$(GO) test -race ./internal/optlock ./internal/relation ./internal/obs ./internal/obshttp ./internal/serve ./internal/cluster ./internal/replica
	$(GO) test -race -cpu 1,2,4 ./internal/core ./internal/datalog ./internal/check

# check-harness runs the concurrent-correctness harness (DESIGN.md §10)
# in short mode under the race detector at 1, 2 and 4 CPUs — together
# with the tree's and the engine's own suites, whose multi-writer tests
# need more than one CPU to mean anything — in both build flavours: the
# differential oracle against every provider — including the
# serve-socket target, which drives the §11 relation server over real
# loopback connections, and the cluster target, which injects a shard
# kill-and-recover and a live rebalance into the oracle schedule
# (DESIGN.md §15) — and, under the lockinject tag, the fault-injection
# suite, including the deterministic reproduction of the PR 3
# load-after-validate race against the preserved pre-fix bound path.
# The logcrash leg re-runs the shard log suite with crash injection
# compiled in: every kill-point test proves hardened replay recovers
# exactly the acknowledged prefix where naive replay diverges.
check-harness:
	$(GO) test -short -race -cpu 1,2,4 ./internal/core ./internal/datalog ./internal/check
	$(GO) test -short -race -tags lockinject ./internal/check ./internal/optlock
	$(GO) test -short -race -tags logcrash ./internal/cluster

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke runs the merge benchmark at a toy size as part of `all`:
# it exercises the sequential-vs-parallel merge, the sharded AddFacts
# path and the evaluation anchor, and aborts on any worker-count-
# dependent difference in their results.
bench-smoke:
	$(GO) run ./cmd/benchmerge -size 20000 -load 6000 -evalsize 8 -workers 1,2 -reps 1 >/dev/null

# serve-smoke exercises the network serving subsystem end to end as
# part of `all`: servebtree on a loopback port, a mixed loadgen run
# whose determinism gate verifies the final relation contents, and a
# SIGTERM graceful drain (DESIGN.md §11).
serve-smoke:
	./scripts/serve_smoke.sh

# trace-smoke exercises the evaluation tracer end to end as part of
# `all` (DESIGN.md §13): servebtree and loadgen with sampling armed,
# the /debug/trace scrape, and a datalog -trace file dump — each
# validated as well-formed trace_event JSON by scripts/checktrace.
trace-smoke:
	./scripts/trace_smoke.sh

# cluster-smoke exercises the sharded cluster end to end as part of
# `all` (DESIGN.md §15): three servebtree shards with durable insert
# logs, a checksummed loadgen cluster run, a kill -9 of one shard, log
# recovery on the same address, and re-verification of the exact
# contents checksum.
cluster-smoke:
	./scripts/cluster_smoke.sh

# replica-smoke exercises follower replication end to end as part of
# `all` (DESIGN.md §16): a leader shard with a durable log plus two
# servebtree -follower-of read replicas, a checksummed loadgen run with
# reads offloaded under a staleness bound, a kill -9 of the leader, a
# SIGHUP promotion of one follower (catching up from the dead leader's
# log), and re-verification of the exact contents checksum on the
# promoted leader.
replica-smoke:
	./scripts/replica_smoke.sh

# bench-json regenerates the checked-in benchmark documents: the pinned
# merge-scaling run (>= 1M-tuple source, specbtree.bench.merge.v1), the
# pinned serving-layer run (specbtree.bench.serve.v1) and the pinned
# sharded-cluster run (specbtree.bench.cluster.v1). Figures only
# mean something relative to the recorded cpus/gomaxprocs fields — see
# EXPERIMENTS.md.
bench-json: bench-json-merge bench-json-serve bench-json-cluster

bench-json-merge:
	$(GO) run ./cmd/benchmerge -size 1200000 -load 200000 -evalsize 24 -workers 1,2,8 -json > BENCH_merge.json

bench-json-serve:
	./scripts/bench_serve_json.sh > BENCH_serve.json

bench-json-cluster:
	./scripts/bench_cluster_json.sh > BENCH_cluster.json

# Regenerate every table and figure of the paper (laptop-scale defaults;
# see EXPERIMENTS.md for the flags matching the paper's full sizes).
figures:
	$(GO) run ./cmd/benchseq
	$(GO) run ./cmd/benchpar -threads 1,2,4,8
	$(GO) run ./cmd/benchdatalog -stats
	$(GO) run ./cmd/benchtrees

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/transitiveclosure
	$(GO) run ./examples/pointsto
	$(GO) run ./examples/netsecurity
	$(GO) run ./examples/samegeneration

clean:
	$(GO) clean ./...
