GO ?= go

.PHONY: all build check fmt test race vet lint fuzz faults faults-persist stress-write bench bench-scale bench-rebalance bench-durability bench-pairs bins clean

all: build

build:
	$(GO) build ./...

# check is the tier-1 gate: formatting, vet, the repo's own static
# analyzers, the write-path concurrency stress suite, and the full test
# suite under the race detector.
check: fmt vet lint stress-write
	$(GO) test -race ./...

# fmt fails when a Go file outside testdata/ is not gofmt-formatted, and
# names the files.
fmt:
	@out=$$(gofmt -l $$(git ls-files -co --exclude-standard '*.go' | grep -v '/testdata/')); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# stress-write re-runs (uncached) the write-path concurrency seams under
# the race detector: the cleaner racing all sharded log heads, the epoch /
# tail-watermark invariants under concurrent appends, multi-queue work
# stealing, and group-commit coalescing under parallel Syncs.
stress-write:
	$(GO) test -race -count=1 ./internal/storage \
		-run 'TestCleanerVsShardedHeads|TestTailWatermarkClosure|TestShardedLogEpochsUniqueAndOrdered'
	$(GO) test -race -count=1 ./internal/dispatch -run 'TestWorkStealing|TestStealExactlyOnce'
	$(GO) test -race -count=1 ./internal/backup -run 'TestReplicatorGroupCommit'

# vet includes copylocks, which also guards copies of typed atomics
# (each embeds a noCopy); atomiccheck below relies on it for that half.
vet:
	$(GO) vet ./...

# lint runs the repo-specific invariant analyzers: pool pairing, no
# sleep-polling, no blocking sends under locks, no dropped hot-path errors,
# context-first RPC signatures, and the lock-free protocol checks (typed
# atomics only, seqlock write sections, RCU clone-then-store, per-function
# hotpath allocations). The tool exits 0 clean, 1 on findings and 2 on a
# tool error (a package that does not load or type-check). It is built
# into bin/ and run from there, because go run reports any non-zero exit
# as 1 and so would hide the 2.
lint:
	$(GO) build -o bin/rocksteady-lint ./cmd/rocksteady-lint
	./bin/rocksteady-lint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz gives each wire-protocol fuzz target a short budget on top of the
# checked-in seed corpus; CI-friendly, not a soak.
fuzz:
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzDecodeMessage -fuzztime 10s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzMarshalRoundtrip -fuzztime 10s

# faults runs the fault-injection scenario and chaos suites under the race
# detector: three fixed seeds for reproducible coverage plus one
# time-derived seed (printed on failure) to keep exploring new schedules.
# Replay a failure exactly with the FAULT_SEEDS=<seed> line it logs.
# The coordinator-churn scenario reruns ten times: its ranges migrate back
# before the previous migration has finished only in some runs of a seed,
# so a single run can miss the interleavings that lose writes.
faults:
	FAULT_SEEDS=1,7,42 FAULT_RANDOM_SEED=1 $(GO) test -race -count=1 \
		./internal/cluster/ -run 'TestFaultScenario|TestChaosMigrationsVsOperations'
	FAULT_SEEDS=1 $(GO) test -race -count=10 ./internal/cluster \
		-run TestFaultScenarioCoordinatorChurnDuringRebalance

# faults-persist re-runs the same scenario suite with every cluster backed
# by the durable FileStore (FAULT_PERSIST=1 points each server at a test
# tmpdir): identical seeds and invariants, replica bytes on disk. The
# full-cluster-restart scenario — all processes die, a new cluster on the
# same data directory recovers everything — runs here too.
faults-persist:
	FAULT_PERSIST=1 FAULT_SEEDS=1,7,42 FAULT_RANDOM_SEED=1 $(GO) test -race -count=1 \
		./internal/cluster/ -run 'TestFaultScenario|TestChaosMigrationsVsOperations'

# bench runs the RPC hot-path microbenchmarks with allocation reporting and
# records the machine-readable results in BENCH_hotpath.json.
bench:
	$(GO) test -run xxx -bench 'BenchmarkMarshalRoundtrip|BenchmarkTCPSend|BenchmarkPullPath|BenchmarkPutPath' -benchmem -count=1 .
	BENCH_JSON=BENCH_hotpath.json $(GO) test -run TestHotpathBenchArtifact -count=1 .

# bench-scale runs the multi-core read- and write-path scaling benchmarks
# at 1/2/4/8 simulated cores and merges the "scaling" section into
# BENCH_hotpath.json (the hot-path sections written by `make bench` are
# preserved). The MixedScaling put-heavy rows are the write-scaling series:
# ops/s should climb with cores now that appends spread across shard heads.
bench-scale:
	$(GO) test -run xxx -bench 'BenchmarkReadScaling|BenchmarkMixedScaling' -benchtime .3s -cpu 1,2,4,8 -count=1 ./internal/server
	BENCH_SCALE_JSON=$(CURDIR)/BENCH_hotpath.json $(GO) test -run TestScalingBenchArtifact -benchtime .3s -count=1 ./internal/server

# bench-durability measures replication flush throughput across the backup
# backends (MemStore, FileStore with the batched group fsync, FileStore
# fsyncing every append) and merges the "durability" section into
# BENCH_hotpath.json. The artifact test also asserts batched beats
# unbatched — the group fsync must earn its keep.
bench-durability:
	$(GO) test -run xxx -bench BenchmarkReplicationFlush -benchtime .3s -count=1 ./internal/backup
	BENCH_DURABILITY_JSON=$(CURDIR)/BENCH_hotpath.json $(GO) test -run TestDurabilityBenchArtifact -count=1 -v ./internal/backup

# bench-rebalance measures the heat-driven rebalancer under a moving
# Zipfian hotspot on an egress-capped fabric (rebalancing on vs off) and
# merges the "rebalance" section into BENCH_hotpath.json. The artifact test
# also asserts on beats off — the closed loop must earn its keep.
bench-rebalance:
	$(GO) test -run xxx -bench BenchmarkRebalanceSkew -benchtime 12000x -count=1 ./internal/cluster
	BENCH_REBALANCE_JSON=$(CURDIR)/BENCH_hotpath.json $(GO) test -run TestRebalanceBenchArtifact -count=1 -v ./internal/cluster

# bench-pairs compares the working tree with BASE on the end-to-end
# benchmark (benchmark/run.sh) in PAIRS alternating pairs per workload.
# Every run is contained in its own process group and killed after it;
# results land in bench-pairs/ (see scripts/bench-pairs.sh).
BASE ?= HEAD
PAIRS ?= 10
WORKLOADS ?= ycsb_b_tcp ycsb_a_repl migrate_loaded crash_recovery
bench-pairs:
	bash scripts/bench-pairs.sh $(BASE) $(PAIRS) "$(WORKLOADS)"

bins:
	$(GO) build -o bin/ ./cmd/...

clean:
	rm -f BENCH_hotpath.json
	rm -rf bin
	$(GO) clean
	$(GO) clean -fuzzcache
