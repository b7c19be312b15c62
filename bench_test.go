package rocksteady_test

// One testing.B benchmark per evaluation figure (§4), sized so the whole
// suite runs in minutes. cmd/rocksteady-bench runs the same experiments at
// full scale with tabular output; EXPERIMENTS.md records paper-vs-measured.
//
// Benchmarks report figure-specific custom metrics (MB/s, Mobj/s, µs)
// via b.ReportMetric, so `go test -bench=. -benchmem` doubles as the
// reproduction summary.

import (
	"context"
	"fmt"
	"testing"

	"rocksteady/internal/bench"
	"rocksteady/internal/cluster"
	"rocksteady/internal/core"
	"rocksteady/internal/storage"
	"rocksteady/internal/transport"
	"rocksteady/internal/wire"
)

func quickParams(b *testing.B) bench.Params {
	b.Helper()
	p := bench.DefaultParams()
	p.Objects = 30_000
	p.Seconds = 3
	p.Clients = 4
	p.Workers = 4
	return p
}

// BenchmarkFig3MultigetSpread measures multiget locality: total objects/s
// and dispatch load versus how many servers each 7-key multiget touches.
func BenchmarkFig3MultigetSpread(b *testing.B) {
	p := quickParams(b)
	p.Seconds = 7 // one second per spread level
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig3MultigetSpread(p)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 7 {
			b.Fatalf("expected 7 spread levels, got %d", len(rows))
		}
		b.ReportMetric(rows[0].MObjectsPerSec*1e6, "spread1-obj/s")
		b.ReportMetric(rows[6].MObjectsPerSec*1e6, "spread7-obj/s")
		if rows[6].MObjectsPerSec > 0 {
			b.ReportMetric(rows[0].MObjectsPerSec/rows[6].MObjectsPerSec, "locality-gain-x")
		}
	}
}

// BenchmarkFig4IndexScaling measures index scan latency/throughput for the
// three placement configurations.
func BenchmarkFig4IndexScaling(b *testing.B) {
	p := quickParams(b)
	p.Objects = 20_000
	p.Clients = 2
	for i := 0; i < b.N; i++ {
		pts, err := bench.Fig4IndexScaling(p)
		if err != nil {
			b.Fatal(err)
		}
		best := map[string]float64{}
		for _, pt := range pts {
			if pt.KObjectsPerSec > best[pt.Config] {
				best[pt.Config] = pt.KObjectsPerSec
			}
		}
		b.ReportMetric(best["1 Indexlet, 1 Tablet"]*1e3, "1i1t-obj/s")
		b.ReportMetric(best["2 Indexlets, 1 Tablet"]*1e3, "2i1t-obj/s")
		b.ReportMetric(best["2 Indexlets, 2 Tablets"]*1e3, "2i2t-obj/s")
	}
}

// BenchmarkFig5Baseline measures the pre-existing migration's rate with
// each phase-skip variant (the bottleneck decomposition).
func BenchmarkFig5Baseline(b *testing.B) {
	for _, v := range bench.Fig5Variants {
		b.Run(v.Name, func(b *testing.B) {
			p := quickParams(b)
			p.ReplicationFactor = 1
			var mbps float64
			for i := 0; i < b.N; i++ {
				series, err := bench.Fig5BaselineBreakdown(bench.Params{
					Objects: p.Objects, Seconds: p.Seconds, Clients: p.Clients,
					Workers: p.Workers, ReplicationFactor: 1, Theta: p.Theta,
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, s := range series {
					if s.Variant == v.Name {
						mbps = s.MeanMBps
					}
				}
			}
			b.ReportMetric(mbps, "MB/s")
		})
	}
}

// BenchmarkFig9Rocksteady runs the YCSB-B migration timeline for each
// protocol variant (Figures 9, 10, 11 derive from the same run).
func BenchmarkFig9MigrationImpact(b *testing.B) {
	for _, v := range []bench.Variant{bench.VariantRocksteady, bench.VariantNoPriorityPulls, bench.VariantSourceRetains} {
		b.Run(string(v), func(b *testing.B) {
			p := quickParams(b)
			for i := 0; i < b.N; i++ {
				res, err := bench.Fig9MigrationImpact(p, v)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Migration.RateMBps(), "MB/s")
				var during, p999 float64
				var n int
				for _, pt := range res.Points {
					if pt.Phase == "migrating" {
						during += pt.ThroughputKops
						p999 += pt.P999Micros
						n++
					}
				}
				if n > 0 {
					b.ReportMetric(during/float64(n)*1e3, "ops/s-during")
					b.ReportMetric(p999/float64(n), "p99.9-µs-during")
				}
			}
		})
	}
}

// BenchmarkFig12SkewImpact measures source dispatch load across Zipfian
// skews during migration.
func BenchmarkFig12SkewImpact(b *testing.B) {
	p := quickParams(b)
	for i := 0; i < b.N; i++ {
		series, err := bench.Fig12SkewImpact(p, []float64{0, 0.99})
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range series {
			b.ReportMetric(s.MeanDuringMigration, fmt.Sprintf("dispatch-θ%.2f", s.Theta))
		}
	}
}

// BenchmarkFig13PriorityPulls compares async batched vs synchronous
// PriorityPulls with background Pulls disabled (Figures 13/14).
func BenchmarkFig13PriorityPulls(b *testing.B) {
	for _, mode := range []bench.Fig13Mode{bench.ModeAsyncBatched, bench.ModeSyncSingle} {
		b.Run(string(mode), func(b *testing.B) {
			p := quickParams(b)
			p.Seconds = 4
			for i := 0; i < b.N; i++ {
				res, err := bench.Fig13PriorityPullStrategies(p, mode)
				if err != nil {
					b.Fatal(err)
				}
				var med float64
				var n int
				for _, pt := range res.Points {
					if pt.Phase == "migrating" && pt.MedianMicros > 0 {
						med += pt.MedianMicros
						n++
					}
				}
				if n > 0 {
					b.ReportMetric(med/float64(n), "median-µs-during")
				}
				b.ReportMetric(float64(res.PriorityPullRPCs), "prio-pull-rpcs")
			}
		})
	}
}

// BenchmarkFig15PullScalability measures the isolated source pull engine.
func BenchmarkFig15PullScalability(b *testing.B) {
	for _, threads := range []int{1, 4, 8} {
		for _, size := range []int{128, 1024} {
			b.Run(fmt.Sprintf("threads=%d/size=%d", threads, size), func(b *testing.B) {
				p := quickParams(b)
				p.Objects = 20_000
				p.Seconds = 2
				for i := 0; i < b.N; i++ {
					pts, err := bench.Fig15PullReplayScalability(p, []int{threads}, []int{size})
					if err != nil {
						b.Fatal(err)
					}
					for _, pt := range pts {
						b.ReportMetric(pt.GBPerSec, pt.Side+"-GB/s")
					}
				}
			})
		}
	}
}

// BenchmarkHeadline reproduces the §4.2 summary numbers.
func BenchmarkHeadline(b *testing.B) {
	p := quickParams(b)
	for i := 0; i < b.N; i++ {
		h, err := bench.Headline(p)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(h.MigrationMBps, "MB/s")
		b.ReportMetric(h.MedianDuring, "median-µs-during")
		b.ReportMetric(h.P999During, "p99.9-µs-during")
	}
}

// --- microbenchmarks of the underlying engines -------------------------

// BenchmarkLogAppend measures raw log append throughput (100 B objects).
func BenchmarkLogAppend(b *testing.B) {
	l := storage.NewShardedLog(1<<22, 1, nil)
	key := make([]byte, 30)
	value := make([]byte, 100)
	b.SetBytes(int64(storage.EntrySize(30, 100)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := l.AppendObject(1, key, value); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHashTableGet measures primary-key index lookups.
func BenchmarkHashTableGet(b *testing.B) {
	l := storage.NewShardedLog(1<<22, 1, nil)
	ht := storage.NewHashTable(1 << 16)
	keys := make([][]byte, 10_000)
	hashes := make([]uint64, len(keys))
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%08d", i))
		hashes[i] = wire.HashKey(keys[i])
		ref, _, _ := l.AppendObject(1, keys[i], []byte("value"))
		ht.Put(1, keys[i], hashes[i], ref)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := i % len(keys)
		if _, ok := ht.Get(1, keys[idx], hashes[idx]); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkMigrationEndToEnd measures a whole small migration.
func BenchmarkMigrationEndToEnd(b *testing.B) {
	p := quickParams(b)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, table := setupLoadedPair(b, p)
		b.StartTimer()
		g, err := c.Migrate(context.Background(), table, wire.FullRange().Split(2)[1], 0, 1)
		if err != nil {
			b.Fatal(err)
		}
		res := g.Wait()
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		b.StopTimer()
		b.ReportMetric(res.RateMBps(), "MB/s")
		c.Close()
		b.StartTimer()
	}
}

func setupLoadedPair(b *testing.B, p bench.Params) (*cluster.Cluster, wire.TableID) {
	b.Helper()
	c := cluster.New(cluster.Config{
		Servers:           2,
		Workers:           p.Workers,
		HashTableCapacity: p.Objects * 2,
		Fabric:            transport.FabricConfig{},
		Migration:         core.Options{},
		Quiet:             true,
	})
	keys := make([][]byte, p.Objects)
	values := make([][]byte, p.Objects)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%026d", i))
		values[i] = make([]byte, p.ValueSize)
	}
	cl := c.MustClient()
	table, err := cl.CreateTable(context.Background(), "bench", c.Server(0).ID())
	if err != nil {
		b.Fatal(err)
	}
	if err := c.BulkLoad(context.Background(), table, keys, values); err != nil {
		b.Fatal(err)
	}
	return c, table
}
