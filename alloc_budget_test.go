//go:build !race

package rocksteady_test

import (
	"testing"

	"rocksteady/internal/storage"
	"rocksteady/internal/wire"
)

// TestHotpathAllocBudgets pins the RPC hot-path allocation budgets from
// BENCH_hotpath.json so a regression fails tests, not just the report-only
// bench job. Gated off the race builds: the race runtime adds bookkeeping
// allocations that would make the strict budgets flaky.
//
// The storage-layer counterpart — HashTable.Get at 0 allocs/op — is
// TestSeqlockGetZeroAllocs in internal/storage; the scheduler's
// enqueue→pickup fast path at 0 allocs/op is TestEnqueuePickupZeroAlloc in
// internal/dispatch.
func TestHotpathAllocBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budgets need full benchmark runs")
	}
	cases := []struct {
		name   string
		fn     func(*testing.B)
		budget int64
	}{
		{"MarshalRoundtrip", benchmarkMarshalRoundtrip, 2},
		{"TCPSend", benchmarkTCPSend, 2},
		{"PullPath", benchmarkPullPath, 18},
		// A write RPC end to end: the 17 steady-state allocations are the
		// RPC plumbing (frames, reply futures, dispatch closure) — the log
		// append itself reuses the shard head's segment, and one spare is
		// left for the amortized segment roll.
		{"PutPath", benchmarkPutPath, 18},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := testing.Benchmark(c.fn)
			if got := r.AllocsPerOp(); got > c.budget {
				t.Errorf("%s allocates %d/op, budget %d", c.name, got, c.budget)
			} else {
				t.Logf("%s: %d allocs/op (budget %d)", c.name, got, c.budget)
			}
		})
	}
}

// TestHeatSampledGetZeroAllocs pins the read path with heat tracking at
// zero allocations per op. Sample shift 0 records *every* access — the
// worst case; the production shift of 5 does strictly less work — so a
// Get that both reads the seqlock and bumps a heat bucket must still not
// allocate.
func TestHeatSampledGetZeroAllocs(t *testing.T) {
	l := storage.NewShardedLog(1<<16, 1, nil)
	ht := storage.NewHashTable(1024)
	hm := storage.NewHeatMap(1, 0)
	hm.RegisterTable(1)
	key := []byte("alpha")
	h := wire.HashKey(key)
	ref, _, err := l.AppendObject(1, key, []byte("one"))
	if err != nil {
		t.Fatal(err)
	}
	ht.Put(1, key, h, ref)

	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := ht.Get(1, key, h); !ok {
			t.Fatal("Get missed")
		}
		hm.Record(0, 1, h)
	})
	if allocs != 0 {
		t.Fatalf("heat-sampled Get allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkHeatSnapshotAggregation reports (but does not pin — it is off
// the hot path, polled once per rebalancer tick) the cost of folding the
// sharded heat counters into per-table bucket totals: shards × tables ×
// 256 atomic loads plus one slice allocation per snapshot.
func BenchmarkHeatSnapshotAggregation(b *testing.B) {
	const workers, tables = 8, 4
	hm := storage.NewHeatMap(workers, 0)
	for t := wire.TableID(1); t <= tables; t++ {
		hm.RegisterTable(t)
	}
	// Populate every (shard, table, bucket) counter so aggregation sums
	// real values rather than zero-filled cache lines.
	for sh := 0; sh < workers; sh++ {
		for t := wire.TableID(1); t <= tables; t++ {
			for bkt := uint64(0); bkt < storage.HeatBuckets; bkt++ {
				hm.Record(sh, t, bkt<<(64-8))
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if snap := hm.Snapshot(); len(snap) != tables {
			b.Fatalf("snapshot covers %d tables, want %d", len(snap), tables)
		}
	}
}
